"""momentset benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the repository root. The package is imported from ./src, never from
an installed copy. BLAS runs on one thread. Set-up generates the dataset
several times; the timed section then runs whole rounds until --seconds have
passed, and the checks in oracles.py run on the last round's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the environment block. The whole record, with per-round
figures and the eval quality, goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"


def import_package():
    """Put ./src first on the import path and import momentset from it."""
    if not (SRC / "momentset" / "__init__.py").is_file():
        raise SystemExit(f"error: no momentset package under {SRC}")
    sys.path.insert(0, str(SRC))
    import momentset
    if Path(momentset.__file__).resolve().parent != SRC / "momentset":
        raise SystemExit(f"error: momentset was imported from {momentset.__file__}")


def metric_units(trace: bool) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(figures: dict[str, float], units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(figures))
    if missing:
        raise SystemExit(f"error: no figure for {missing}")
    return {k: {"value": figures[k], "unit": u} for k, u in units.items()}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def source_digest():
        h = hashlib.sha256()
        for p in sorted(SRC.rglob("*.py")):
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    try:  # git may not look above the repository root for a .git
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(np), "scipy": _blas_version(scipy)},
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _blas_runtime_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return None


def _blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read from the library."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                out[Path(lib).name] = getattr(handle, sym)()
                break
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run timed rounds and check one workload; returns its record."""
    from workloads import Bench, RoundFailed

    work = BENCH_DIR / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(name, seed, work)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    try:
        if tracer:
            tracer.install()
        setup_times = bench.setup()
        if tracer:
            tracer.uninstall()

        # whole rounds until --seconds have passed; a traced run alternates
        # untraced and traced rounds so it can report the tracing overhead
        rounds, traced, out, last = [], [], None, None
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds or not rounds
               or (tracer and not traced)):
            if out is not None:
                shutil.rmtree(out)
            out = work / f"round{len(rounds) + len(traced)}"
            use_tracer = tracer is not None and len(traced) < len(rounds)
            if use_tracer:
                tracer.install()
            try:
                r = bench.run_round(out)
            except RoundFailed:
                break
            finally:
                if use_tracer:
                    tracer.uninstall()
            (traced if use_tracer else rounds).append(r)
            last = r
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if bench.failed:
            return {"correct": False, "attempted": bench.attempted,
                    "failed": bench.failed, "metrics": {}, "problems": bench.failures}
        problems = bench.check(last, out)
        record = {"correct": not problems, "attempted": bench.attempted,
                  "failed": bench.failed, "problems": problems,
                  "quality": bench.quality(last),
                  "rounds": [vars(r) | {"traced": False} for r in rounds]
                  + [vars(r) | {"traced": True} for r in traced],
                  "setup_s": setup_times}
        if tracer:
            figures = tracer.metrics(rounds=len(traced), setups=len(setup_times))
            figures["trace.overhead_pct"] = 100 * (
                statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in rounds) - 1)
            figures["evaluate.video_map.map"] = record["quality"]["recognition_map"]
            figures["evaluate.nlq_recall.r1_iou0.3"] = record["quality"]["nlq_recall1_iou0.3"]
        else:
            figures = bench.end_to_end(setup_times, rounds, out, peak_rss_mb)
        record["metrics"] = select(figures, metric_units(trace))
        return record
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def run_all(args, names) -> int:
    """Run each workload in a fresh process and print every metric."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    # numpy reads the BLAS thread count when it loads, with the package
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    env = environment(args.seed)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = env
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, default=float)
    print(json.dumps({"env": env}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if not record["correct"]:
        print("checks failed: " + "; ".join(record["problems"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
