"""stabkit benchmark: three closed-loop workloads of in-process CLI calls.

    python3 stabbench/run.py --workload fidelity-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a stabkit checkout; stabkit is imported from ./src.
One process issues one item at a time.  An item is one or more calls of
``stabkit.cli.main`` on input files generated from --seed; every report is
checked afterwards against ``refcheck``.  Items come in whole rounds of a
fixed make-up, repeated until --seconds have passed, at least MIN_ITEMS
items have run (so that p90 has ten items beyond it) and at least the
workload's min_rounds rounds have run.  Set-up is
timed setup_samples times in all: here and in fresh processes run between
slices of the item phase.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds twice, untraced and then traced (counts then repeat exactly), and
prints the per-layer metrics plus the tracing overhead; the spans go to
stabbench/results/.  The last line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys

# Every matrix here is at most 256 x 256: a second BLAS thread brings no speed,
# only jitter from its spin-waiting on a shared machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ITEMS = 100
CHILD_TIMEOUT_S = 120


def import_stabkit():
    """Import stabkit from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stabkit", "cli.py")):
        sys.exit(f"stabbench: no stabkit sources under {src}")
    sys.path.insert(0, src)
    import stabkit.cli

    if not os.path.abspath(stabkit.cli.__file__).startswith(src + os.sep):
        sys.exit("stabbench: stabkit was not imported from this checkout")
    return stabkit.cli


def call_cli(cli, argv) -> int:
    """One in-process CLI call; its stderr lines are kept out of the benchmark's output."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # an uncaught error in the program counts as a failed item
            return 1


def run_item(cli, item, tracer=None) -> tuple[float, int]:
    """Run an item's steps; returns (seconds, first nonzero exit code or 0)."""
    if tracer:
        tracer.item = item.name
        sid = tracer.span("item")
    start = time.perf_counter()
    code = 0
    for step in item.steps:
        if callable(step):
            step()
        else:
            code = call_cli(cli, step)
            if code:
                break
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end(sid)
        tracer.item = None
    return elapsed, code


def read_reports(item) -> list:
    reports = []
    for path in item.outputs:
        with open(path, encoding="ascii") as handle:
            reports.append(handle.read())
    return reports


def setup(workload, work, cli) -> float:
    for argv in workload.warmup(work):
        code = call_cli(cli, argv)
        if code:
            sys.exit(f"stabbench: warm-up {argv[0]} exited {code}")
    return time.perf_counter() - T0


class Phase:
    """Rounds of items, timed item by item; reports are kept for checking."""

    def __init__(self):
        self.item_s: list[float] = []
        self.wall_s = 0.0
        self.records: list[tuple] = []  # (item, exit code, report texts)

    def run_round(self, cli, items, tracer=None) -> None:
        start = time.perf_counter()
        for item in items:
            elapsed, code = run_item(cli, item, tracer)
            self.item_s.append(elapsed)
            self.records.append((item, code, [] if code else read_reports(item)))
        self.wall_s += time.perf_counter() - start  # reading reports: ms per round

    @property
    def attempted(self) -> int:
        return len(self.records)

    def failures(self) -> list[str]:
        return [f"{item.name} (exit {code})" for item, code, _ in self.records if code]

    def problems(self) -> list[str]:
        """Check failures of every report, and every exit other than the named fault's."""
        out = []
        for item, code, texts in self.records:
            if code:
                if code != item.fault_exit:
                    out.append(f"{item.name}: exit {code}, not the named fault's"
                               if item.fault_exit else f"{item.name}: exit {code}")
                continue
            try:
                found = item.check([json.loads(t) for t in texts])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"malformed report: {exc!r}"]
            out.extend(f"{item.name}: {p}" for p in found)
        return out


def make_round(workload, seed, r, work):
    import numpy as np

    return workload.round(np.random.default_rng([seed, r]), work)


def child_setup(args, k: int) -> float:
    """Set-up time of a fresh process, timed like the run's own (from the top of run.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
         args.workload, "--seed", str(args.seed), "--work", f"setup{k}"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        sys.exit(f"stabbench: set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", default="main", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = import_stabkit()
    import workloads  # after stabkit: the check for sources runs first
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(HERE, "work", args.workload, args.work)
    results = os.path.join(HERE, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_s = setup(workload, work, cli)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = []
    if not tracer:
        # The item phase is cut into slices with a set-up child between them, so that
        # the items sample the machine over the whole run, not over its last seconds.
        phase = Phase()
        setups = [setup_s]
        r = 0
        slices = workload.setup_samples  # a set-up child between each pair of slices
        for k in range(slices):
            last = k == slices - 1
            while (phase.wall_s < args.seconds * (k + 1) / slices
                   or (last and (phase.attempted < MIN_ITEMS or r < workload.min_rounds))):
                phase.run_round(cli, make_round(workload, args.seed, r, work))
                r += 1
            if not last:
                setups.append(child_setup(args, k))
        item_ms = [1000.0 * s for s in phase.item_s]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (phase.attempted / phase.wall_s, "1/s"),
            "item_ms_p50": (statistics.median(item_ms), "ms"),
            "item_ms_p90": (statistics.quantiles(item_ms, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        phases = [phase]
        note = f"rounds={r} setup_samples={[round(s, 4) for s in setups]}"
    else:
        # Each round runs untraced and traced, in alternating order; the difference
        # in wall time is the tracing overhead.
        plain, traced = Phase(), Phase()
        tracer.uninstall()
        for r in range(workload.trace_rounds):
            for on in ((False, True) if r % 2 == 0 else (True, False)):
                items = make_round(workload, args.seed, r, work)
                if on:
                    tracer.install()
                    traced.run_round(cli, items, tracer)
                    tracer.uninstall()
                else:
                    plain.run_round(cli, items)
        spans = os.path.join(results, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
            unit_of = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        measured = tracer.metrics(traced.attempted)
        measured["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
        values = {name: (measured[name], unit_of[name]) for name in unit_of}
        phases = [plain, traced]
        note = f"rounds={workload.trace_rounds} x2 spans={spans}"
        if [rec[1:] for rec in plain.records] != [rec[1:] for rec in traced.records]:
            problems.append("tracing changed a report or an exit code")

    problems += [p for ph in phases for p in ph.problems()]
    failures = [f for ph in phases for f in ph.failures()]
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    attempted = sum(ph.attempted for ph in phases)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={len(failures)} {note} failing={sorted(set(failures))}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
