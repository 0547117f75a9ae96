"""Command-line interface.

    topt run --config problem.ini --out results/ [--filter] [--mesh-scale 2]
    topt bench l-bracket-single [--delta 1.5] [--sigma 1000] --out results/
    topt verify

Exit codes: 0 on feasible completion, 2 when the problem is infeasible at
the full domain, 1 on any error. The only environment variable consulted is
TOPT_THREADS (accepted for compatibility; this build runs single-threaded
for determinism).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import optimizer, outputs
from .config import (ConfigError, build_problem, parse_problem,
                     serialize_problem_config, with_overrides)
from .fem import SingularSystemError, SolveError
from .mesh import TopologyError
from .problems import BUILTIN_NAMES, builtin_config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--filter", action="store_true", help="enable sensitivity smoothing")
    p.add_argument("--mesh-scale", type=int, default=1, metavar="K",
                   help="multiply the mesh density by K along each axis")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topt",
                                     description="multi-constrained topology optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a problem described by a config file")
    p_run.add_argument("--config", required=True, help="problem configuration file")
    _add_common(p_run)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark problem")
    p_bench.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p_bench.add_argument("--delta", type=float, default=None,
                         help="override the displacement bound(s)")
    p_bench.add_argument("--sigma", type=float, default=None,
                         help="override the stress bound(s)")
    _add_common(p_bench)

    sub.add_parser("verify", help="run the built-in oracle checks")
    return parser


def _report(problem, result, out_dir: str) -> int:
    paths = outputs.write_outputs(problem, result, out_dir)
    print(f"{problem.name}: {result.message}")
    print(f"  final volume fraction: {result.topology.volume_fraction:.4f}")
    print(f"  fea solves: {result.fea_count}")
    for spec, value in zip(problem.constraints, result.constraint_values):
        print(f"  {spec.kind} [case {spec.case}]: {value:.4f} (bound {spec.bound:g})")
    print("  wrote: " + ", ".join(str(p) for p in paths))
    return 0 if result.feasible else 2


def _cmd_run(args) -> int:
    text = Path(args.config).read_text()
    problem = parse_problem(text, name=Path(args.config).stem, mesh_scale=args.mesh_scale)
    if args.filter:
        problem.config = dataclasses.replace(problem.config, filter_enabled=True)
    result = optimizer.run(problem)
    return _report(problem, result, args.out)


def _cmd_bench(args) -> int:
    cfg = builtin_config(args.name, delta_max=args.delta, sigma_max=args.sigma)
    if args.filter:
        cfg = with_overrides(cfg, filter_enabled=True)
    problem = build_problem(cfg, mesh_scale=args.mesh_scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_problem_config(cfg))
    result = optimizer.run(problem)
    return _report(problem, result, args.out)


def _cmd_verify() -> int:
    """Compact oracle suite: adjoint identities and cut exactness."""
    import numpy as np

    from . import fem, levelset, sensitivity
    from .mesh import DomainSpec, PointLoad, TopologyState, build_mesh

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    # compliance adjoint: rhs = -f must give lambda = -u
    mesh, boundary = build_mesh(DomainSpec(1.0, 0.5, 8, 4))
    for n in range(mesh.n_nodes):
        if mesh.nodes[n, 0] == 0.0:
            boundary.fix_node(n, "xy")
    tip = int(np.argmin((mesh.nodes[:, 0] - 1.0) ** 2 + (mesh.nodes[:, 1] - 0.25) ** 2))
    boundary.point_loads.append(PointLoad(1, tip, (0.0, -1.0), 1.0))
    analysis = fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))
    lam = fem.solve(analysis.system, -analysis.loads[0])
    u = analysis.displacements[0]
    err = np.max(np.abs(lam + u)) / np.max(np.abs(u))
    check("compliance adjoint lambda = -u", err <= 1e-9, f"rel err {err:.2e}")

    # p-norm adjoint rhs vs central finite differences on a 2x2 patch
    mesh2, boundary2 = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
    for n in range(mesh2.n_nodes):
        if mesh2.nodes[n, 0] == 0.0:
            boundary2.fix_node(n, "xy")
    tip2 = int(np.argmin((mesh2.nodes[:, 0] - 1.0) ** 2 + (mesh2.nodes[:, 1] - 0.5) ** 2))
    boundary2.point_loads.append(PointLoad(1, tip2, (0.0, -1.0), 1.0))
    a2 = fem.analyze(mesh2, boundary2, fem.Material(), TopologyState.full(mesh2))
    include = np.ones(mesh2.n_elements, dtype=bool)
    rhs, degenerate = sensitivity.adjoint_rhs_pnorm(
        a2.active, a2.tensors[0], fem.Material(), 8, include)
    worst = np.inf
    if not degenerate:
        u2 = a2.displacements[0]
        step = 1e-6 * np.linalg.norm(u2)
        fd = np.empty(len(a2.active.free_dofs))
        for i, dof in enumerate(a2.active.free_dofs):
            up, um = u2.copy(), u2.copy()
            up[dof] += step
            um[dof] -= step
            s_p = sensitivity.pnorm_stress(fem.von_mises(
                fem.recover(a2.active, up, fem.Material()).stress), include, 8)
            s_m = sensitivity.pnorm_stress(fem.von_mises(
                fem.recover(a2.active, um, fem.Material()).stress), include, 8)
            fd[i] = (s_p - s_m) / (2 * step)
        worst = np.max(np.abs(-rhs[a2.active.free_dofs] - fd)) / np.max(np.abs(fd))
    check("p-norm adjoint rhs vs finite differences", worst <= 1e-5,
          f"rel err {worst:.2e}")

    # tau-volume exactness on random fields
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 400))
        values = rng.normal(size=n)
        target = float(rng.uniform(0.01, 1.0))
        f = sensitivity.SensitivityField(values=values)
        topo = levelset.extract_domain(f, levelset.find_tau(f, target))
        worst_gap = max(worst_gap, abs(topo.volume_fraction - target) * n)
    check("tau cut volume exactness", worst_gap <= 1.0, f"worst gap {worst_gap:.2f} elements")

    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    os.environ.get("TOPT_THREADS")  # reserved; the pipeline is single-threaded
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify()
    except (ConfigError, ValueError, OSError,
            SingularSystemError, SolveError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
