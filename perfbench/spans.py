"""Span recorder for the traced pass.

The recorder wraps each module's public entry points at the name through
which the caller looks them up, keeps every span in memory, and restores
the originals on exit, so untraced repetitions run the unmodified library.
A layer's self time is its span's duration minus the durations of its
child spans; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
import types
from contextlib import contextmanager

import numpy as np

from topt import auglag, config, fem, levelset, optimizer, outputs, sensitivity

# Work done inside the recorder (counting factor fill, comparing
# topologies) gets its own span so it is not charged to any layer.
RECORD = "trace.record"


def _changed(args, kwargs, out):
    before = args[1] if len(args) > 1 else kwargs["topo"]
    return {"changed": not np.array_equal(out.solid, before.solid)}


def _factor(args, kwargs, lu):
    return {"fill_nnz": lu.L.nnz + lu.U.nnz, "n_free": lu.shape[0]}


# (layer, module, attribute, info); each attribute is the one the caller
# resolves: fem.analyze calls its own module globals, optimizer imports
# repair_connectivity by name, sensitivity and optimizer go through fem.*.
_TARGETS = (
    ("config.build_problem", config, "build_problem", None),
    ("optimizer.run", optimizer, "run", None),
    ("outputs.write_outputs", outputs, "write_outputs",
     lambda a, k, paths: {"bytes": sum(p.stat().st_size for p in paths)}),
    ("mesh.active_submesh", fem, "active_submesh", None),
    ("mesh.repair_connectivity", optimizer, "repair_connectivity", _changed),
    ("fem.assemble", fem, "assemble", None),
    ("fem.solve", fem, "solve", None),
    ("fem.recover", fem, "recover", None),
    ("fem.condition_estimate", fem, "condition_estimate",
     lambda a, k, out: {"converged": bool(out[1])}),
    ("sensitivity.constraint_fields", sensitivity, "constraint_fields",
     lambda a, k, out: {"adjoint_solves": out.adjoint_solves}),
    ("sensitivity.adjoint_rhs_pnorm", sensitivity, "adjoint_rhs_pnorm", None),
    ("auglag.combine_level_sets", auglag, "combine_level_sets", None),
    ("levelset.find_tau", levelset, "find_tau", None),
    ("levelset.extend_into_skin", levelset, "extend_into_skin", None),
    ("levelset.smooth_filter", levelset, "smooth_filter", None),
    ("optimizer.fixed_point_step", optimizer, "fixed_point_step",
     lambda a, k, out: {"converged": bool(out[2])}),
)


class Tracer:
    """In-memory spans: [name, parent index, repetition, start, end, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep = 0

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, self.rep,
                time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                record = self._open(RECORD)
                try:
                    span[5] = info(args, kwargs, out)
                finally:
                    self._close(record)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, module, attr, info in _TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), info))
            # factorization is lazy inside SystemMatrix.lu, which calls
            # fem.spla.splu; give fem a copy of the namespace with splu wrapped
            proxy = types.SimpleNamespace(**vars(fem.spla))
            proxy.splu = self.wrap("fem.factorize", fem.spla.splu, _factor)
            saved.append((fem, "spla", fem.spla))
            fem.spla = proxy
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, rep, start, end, info in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "rep": rep,
                                     "start": start, "end": end, "info": info}) + "\n")

    def layer_metrics(self, rep: int) -> tuple[dict, float, float]:
        """Per-layer metrics of one traced repetition, the traced optimize
        time, and the part of it that no reported self time (nor the
        recorder's own work) accounts for."""
        index = [i for i, s in enumerate(self.spans) if s[2] == rep]
        dur = {i: self.spans[i][4] - self.spans[i][3] for i in index}
        child = dict.fromkeys(index, 0.0)
        for i in index:
            parent = self.spans[i][1]
            if parent >= 0:
                child[parent] += dur[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        infos: dict[str, list] = {}
        for i in index:
            name = self.spans[i][0]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if self.spans[i][5] is not None:
                infos.setdefault(name, []).append(self.spans[i][5])

        root = next(i for i in index if self.spans[i][0] == "optimizer.run")
        under = {root}
        for i in index:  # spans are stored in start order, parents first
            if self.spans[i][1] in under:
                under.add(i)
        recorder_s = sum(dur[i] - child[i] for i in under if self.spans[i][0] == RECORD)

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        def mean(name, key):
            vals = [x[key] for x in infos.get(name, [])]
            return float(np.mean(vals)) if vals else 0.0

        def total(name, key):
            return sum(x[key] for x in infos.get(name, []))

        metrics = {
            "mesh.active_submesh.self_s": s("mesh.active_submesh"),
            "mesh.active_submesh.calls": n("mesh.active_submesh"),
            "mesh.repair_connectivity.self_s": s("mesh.repair_connectivity"),
            "mesh.repair_connectivity.calls": n("mesh.repair_connectivity"),
            "mesh.repair_connectivity.changed_frac": mean("mesh.repair_connectivity", "changed"),
            "fem.assemble.self_s": s("fem.assemble"),
            "fem.factorize.self_s": s("fem.factorize"),
            "fem.factorize.calls": n("fem.factorize"),
            "fem.factorize.fill_nnz": mean("fem.factorize", "fill_nnz"),
            "fem.factorize.n_free": mean("fem.factorize", "n_free"),
            "fem.solve.self_s": s("fem.solve"),
            "fem.solve.calls": n("fem.solve"),
            "fem.solves_per_factorization": n("fem.solve") / max(n("fem.factorize"), 1),
            "fem.recover.self_s": s("fem.recover"),
            "fem.condition_estimate.self_s": s("fem.condition_estimate"),
            "fem.condition_estimate.calls": n("fem.condition_estimate"),
            "fem.condition_estimate.converged_frac": mean("fem.condition_estimate", "converged"),
            "sensitivity.constraint_fields.self_s": s("sensitivity.constraint_fields"),
            "sensitivity.adjoint_solves": total("sensitivity.constraint_fields", "adjoint_solves"),
            "sensitivity.adjoint_rhs_pnorm.self_s": s("sensitivity.adjoint_rhs_pnorm"),
            "auglag.combine_level_sets.self_s": s("auglag.combine_level_sets"),
            "levelset.find_tau.self_s": s("levelset.find_tau"),
            "levelset.extend_into_skin.self_s": s("levelset.extend_into_skin"),
            "levelset.smooth_filter.self_s": s("levelset.smooth_filter"),
            "levelset.smooth_filter.calls": n("levelset.smooth_filter"),
            "optimizer.self_s": s("optimizer.run") + s("optimizer.fixed_point_step"),
            "optimizer.fixed_point_step.calls": n("optimizer.fixed_point_step"),
            "optimizer.inner_converged_frac": mean("optimizer.fixed_point_step", "converged"),
            "outputs.write_outputs.self_s": s("outputs.write_outputs"),
            "outputs.bytes_written": total("outputs.write_outputs", "bytes"),
            "config.build_problem.self_s": s("config.build_problem"),
        }
        layers_s = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                       and not k.startswith(("outputs.", "config.")))
        return metrics, dur[root], dur[root] - layers_s - recorder_s
