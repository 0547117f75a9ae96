"""Command-line interface.

    topt run --config problem.ini --out results/ [--filter] [--mesh-scale 2]
    topt bench l-bracket-single [--delta 1.5] [--sigma 1000] --out results/
    topt verify

``topt verify`` runs the oracle checks of acceptance criteria 2 and 4
(adjoint identities, tau cut exactness) on the acceptance suite's inputs.

Exit codes: 0 on feasible completion (or all checks passing), 2 when the
problem is infeasible at the full domain, 1 on any error (running out of
memory or a floating-point overflow, invalid operation or division by zero
included) or failed check, reported in one line.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import checks, fem, optimizer, outputs
from .config import (ConfigError, build_problem, parse_problem_config,
                     serialize_problem_config, with_overrides)
from .fem import SingularSystemError
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


def _optimize(cfg, args, write_config: bool = False) -> int:
    """Apply ``--filter``, build the problem, optionally write its
    ``config.ini`` to the output directory first, then run and report."""
    if args.filter:
        cfg = with_overrides(cfg, filter=True)
    problem = build_problem(cfg, mesh_scale=args.mesh_scale)
    if write_config:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.ini").write_text(serialize_problem_config(cfg))
    return _report(problem, optimizer.run(problem), args.out)


def _cmd_verify() -> int:
    """Acceptance criteria 2 and 4 on the acceptance suite's own inputs."""
    analysis = checks.patch_2x2()
    failures = 0
    for name, value, tol, detail in (
            ("compliance adjoint lambda = -u", checks.compliance_adjoint_error(analysis),
             1e-9, "rel err {:.2e}"),
            ("p-norm adjoint rhs vs finite differences",
             checks.pnorm_rhs_error(analysis, fem.Material(), 8), 1e-5, "rel err {:.2e}"),
            ("tau cut volume exactness", checks.tau_gap(np.random.default_rng(2024), 100, 2000),
             1.0, "worst gap {:.3f} elements")):
        ok = value <= tol
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail.format(value)})")
        failures += not ok
    return 1 if failures else 0


def _innermost(exc: BaseException) -> str:
    """The innermost ``topt`` function on the traceback of ``exc``."""
    names = [f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
             for frame, _ in traceback.walk_tb(exc.__traceback__)
             if frame.f_globals.get("__name__", "").startswith("topt.")]
    return names[-1] if names else "topt"


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "run":
                path = Path(args.config)
                return _optimize(parse_problem_config(path.read_text(), name=path.stem), args)
            if args.command == "bench":
                return _optimize(builtin_config(args.name, delta_max=args.delta,
                                                sigma_max=args.sigma), args, write_config=True)
            return _cmd_verify()
    except (ConfigError, ValueError, OSError, SingularSystemError, TopologyError) as exc:
        message = str(exc)
    except FloatingPointError as exc:  # the lengths or loads may be out of range
        message = f"{_innermost(exc)}: {exc}"
    except MemoryError as exc:  # numpy's says what it failed to allocate
        message = f"out of memory ({exc})" if str(exc) else "out of memory"
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)  # one line
    return 1


if __name__ == "__main__":
    sys.exit(main())
