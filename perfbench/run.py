"""Benchmark of the topt library path: build_problem -> run -> write_outputs.

Run from the repository root:

    python3 perfbench/run.py --workload lbracket-fine --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop: each repetition is one full
optimization, and the next starts when the previous one has finished and
been checked. Repetitions continue until the next one would overrun
``--seconds`` (at least two run). With ``--trace 0`` the time left is filled
with set-up and write calls and the end-to-end metrics are reported, as
times at a reference host speed (see ``calibrate.py``); with ``--trace 1``
untraced and traced repetitions alternate
and the per-layer metrics of the traced ones are reported. ``--workload all``
runs every workload, each in its own process, in an order drawn from the
seed. The last line of standard output is the JSON result; the lines before
it record the environment and every repetition.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_CALLS = 5   # one set-up or write takes 10-130 ms, too short to time once
WRITE_CALLS = 3
MIN_REPS = 2      # the answer is compared across repetitions
CHILD_GRACE_S = 140  # start-up, plus one repetition slower than all before it
# Read only at process start, so main() re-executes itself with them set.
# With glibc's defaults the memory peak of identical runs differed by up to
# 50%. A fixed mmap threshold steadied it but cost up to 250k page faults
# per optimization, at a price that varied with the host. A heap that never
# returns memory takes almost no faults after the first repetition. A fixed
# hash seed fixes the allocation order (set iteration), which moved the
# peak by another 3%. The pipeline is serial, and a second BLAS thread
# bought no speed.
PINNED_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
              "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}


def _load_library() -> None:
    """Import topt from this checkout's sources, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "topt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no topt sources under {src}")
    sys.path.insert(0, str(src))
    import topt
    if Path(topt.__file__).resolve().parent != src / "topt":
        raise SystemExit(f"perfbench: imported topt from {topt.__file__}, not {src}")


def _blas_threads(*packages) -> dict:
    """Thread-pool size of the OpenBLAS each package bundles (numpy and
    scipy ship one each)."""
    sizes = {}
    for package in packages:
        pattern = os.path.join(os.path.dirname(package.__file__), os.pardir,
                               f"{package.__name__}.libs", "libscipy_openblas*")
        for path in glob.glob(pattern):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    sizes[package.__name__] = fn()
    return sizes


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy, scipy),
            "pinned": {k: os.environ.get(k) for k in PINNED_ENV}}


def _timed(cal, fn, *args):
    """Result, wall time, and time at the calibrator's reference speed
    (the wall time again when there is no calibrator)."""
    gc.collect()
    if cal is not None:
        return cal.timed(fn, *args)
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, wall


def repetition(workload, load_factor: float, out_dir: Path, setup_calls: int,
               write_calls: int, cal=None) -> tuple[dict, tuple]:
    """One full optimization, its timings, and the checks on its answer;
    also returns the problem and result for later write samples."""
    from topt import optimizer, outputs

    setup, write = [], []
    for _ in range(setup_calls):
        problem, *t = _timed(cal, workload.build, load_factor)
        setup.append(t)
    with cal.installed() if cal is not None else nullcontext():
        result, *optimize = _timed(cal, optimizer.run, problem)
    for _ in range(write_calls):
        paths, *t = _timed(cal, outputs.write_outputs, problem, result, out_dir)
        write.append(t)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"setup_s": [t[1] for t in setup], "optimize_s": optimize[1],
            "write_s": [t[1] for t in write],
            "setup_wall_s": [t[0] for t in setup], "optimize_wall_s": optimize[0],
            "write_wall_s": [t[0] for t in write],
            "fea_solves": result.fea_count,
            "final_vf": result.topology.volume_fraction,
            "history_records": len(result.history),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": digest.hexdigest(),
            "reason": workload.check(problem, result)}, (problem, result)


def fill_samples(workload, load_factor: float, problem, result, out_dir: Path,
                 until: float, cal) -> tuple[list, list]:
    """Alternate set-up and write calls until ``until``: more samples of
    these short calls, spread over more of the run."""
    from topt import outputs

    setup, write = [], []
    while time.perf_counter() < until:
        setup.append(_timed(cal, workload.build, load_factor)[2])
        write.append(_timed(cal, outputs.write_outputs, problem, result, out_dir)[2])
    return setup, write


def _one_line(exc: BaseException) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 wanted: list[dict]) -> tuple[dict, int]:
    """Run one workload; ``wanted`` lists the metrics to report."""
    _load_library()
    from calibrate import REFERENCE_S, Calibrator
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    rng = random.Random(seed)
    out_dir = OUT / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # the traced pass compares wall times of traced and untraced runs
    tracer, cal = (Tracer(), None) if trace else (None, Calibrator())
    print(json.dumps({"environment": environment(), "workload": name, "seed": seed,
                      "trace": trace, "calibration_reference_s": REFERENCE_S}), flush=True)

    reps: list[dict] = []
    reference = last = None
    longest = 0.0
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + longest <= seconds:
        traced = trace and len(reps) % 2 == 1
        # 10^[-3, 3]: the pipeline normalizes loads, so the answer must not move
        factor = 10.0 ** rng.uniform(-3.0, 3.0)
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.rep = len(reps)
                with tracer.installed():
                    rep, _ = repetition(workload, factor, out_dir, 1, 1)
            else:
                rep, last = repetition(workload, factor, out_dir, SETUP_CALLS,
                                       WRITE_CALLS, cal)
        except Exception as exc:  # a failure ends only its repetition
            rep = {"reason": _one_line(exc)}
        longest = max(longest, time.perf_counter() - t0)
        rep.update(rep=len(reps), traced=traced, load_factor=factor)
        if rep["reason"] is None:
            reference = reference or rep["digest"]
            if rep["digest"] != reference:
                rep["reason"] = f"artifact digest {rep['digest']} differs from {reference}"
        if rep["reason"] is None and traced:
            layers, traced_s, unaccounted = tracer.layer_metrics(rep["rep"])
            rep["layers"] = {**layers, "optimizer.history_records": rep["history_records"]}
            if abs(unaccounted) > 1e-6:
                rep["reason"] = (f"layer self times leave {unaccounted!r} s of the "
                                 f"traced {traced_s!r} s unaccounted")
        print(json.dumps({k: v for k, v in rep.items() if k != "layers"}), flush=True)
        reps.append(rep)
    if tracer is not None:
        tracer.write(out_dir / "spans.jsonl")

    ok = [r for r in reps if r["reason"] is None]
    extra_setup, extra_write = [], []
    if not trace and last is not None and ok:
        try:
            extra_setup, extra_write = fill_samples(workload, factor, *last, out_dir,
                                                    start + seconds, cal)
        except Exception as exc:  # counted like a failed repetition
            reps.append({"reason": _one_line(exc), "rep": len(reps), "traced": False})
            print(json.dumps(reps[-1]), flush=True)
    metrics = {}
    if trace:
        plain = [r["optimize_wall_s"] for r in ok if not r["traced"]]
        layered = [r for r in ok if r["traced"]]
        if plain and layered:
            metrics = {k: statistics.median(r["layers"][k] for r in layered)
                       for k in layered[0]["layers"]}
            metrics["trace.overhead_frac"] = (
                statistics.median(r["optimize_wall_s"] for r in layered)
                / statistics.median(plain) - 1.0)
    elif ok:
        metrics = {  # times at the calibrator's reference speed
            "optimize_s": statistics.median(r["optimize_s"] for r in ok),
            "setup_s": statistics.median([t for r in ok for t in r["setup_s"]] + extra_setup),
            "write_s": statistics.median([t for r in ok for t in r["write_s"]] + extra_write),
            # after one optimization, as one `topt run` process reaches; with
            # a heap that never shrinks, later repetitions add fragmentation
            "peak_rss_mb": ok[0]["peak_rss_mb"],
            "fea_solves": ok[0]["fea_solves"],
            "final_vf": ok[0]["final_vf"],
        }
    failed = len(reps) - len(ok)
    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    return {"correct": correct, "attempted": len(reps), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted if m["name"] in metrics}}, 0 if correct else 1


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Every workload in its own process, so memory peaks stay apart."""
    order = list(names)
    random.Random(seed).shuffle(order)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                stdout=subprocess.PIPE, text=True, check=False,
                timeout=seconds + CHILD_GRACE_S)
            lines = proc.stdout.splitlines()
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            lines = [f"perfbench: {name} timed out"]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged, 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, **PINNED_ENV})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result, code = run_all(names, args.seed, args.seconds, bool(args.trace))
    else:
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        result, code = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), wanted)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
