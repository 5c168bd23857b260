"""Steadiness check: run each workload repeatedly and report the spread of each metric.

    python3 stabbench/steady.py --runs 10 [--workload NAME ...]

Each run is a fresh ``run.py`` process with its own seed (1, 2, ..., runs).
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
flagged FLAG when the spread exceeds the metric's bound in BENCHMARK.json
(exit code 1).  It also prints the share of
failed items, which must be the same in every run, and records nproc,
the BLAS thread count and the library versions.  The whole result is
written to stabbench/results/steady-<time>.json.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT  # importing run applies its BLAS thread default before numpy loads


def environment() -> dict:
    import numpy as np

    np.linalg.eigh(np.eye(2))  # make sure the BLAS library is loaded
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "blas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads and config:
                    config.restype = ctypes.c_char_p
                    env["blas_threads"] = threads()
                    env["blas"] = config().decode()
    return env


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        out[m["name"]] = {
            "median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"], "flag": spread > m["bound"],
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        bench = json.load(handle)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    result = {"environment": environment(), "runs": args.runs, "workloads": {}}
    print(json.dumps(result["environment"]), flush=True)
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            started = time.perf_counter()
            runs.append(run_once(name, seed, bench["run_seconds"]))
            print(f"  {name} seed {seed}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        stats = summarize(runs, bench["end_to_end"])
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        result["workloads"][name] = {
            "metrics": stats,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "failed_over_attempted": shares,
            "all_correct": all(r["correct"] for r in runs),
        }
        print(f"{name}: correct={all(r['correct'] for r in runs)} failed/attempted={shares}",
              flush=True)
        for metric, s in stats.items():
            mark = "FLAG" if s["flag"] else ("tight" if s["spread"] > s["bound"] / 3 else "ok")
            print(f"  {metric:14s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['spread']:7.4f}  bound {s['bound']:.2f}  {mark}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", time.strftime("steady-%Y%m%dT%H%M%S.json"))
    with open(path, "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=1)
    print(f"written {os.path.relpath(path, ROOT)}")
    return 1 if any(s["flag"] for w in result["workloads"].values()
                    for s in w["metrics"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
