"""msgate benchmark: workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload table_build --size full --seconds 60
    python3 perfbench/run.py --smoke                   # tiny sizes, checks every metric

One process drives one workload in a closed loop with one client: each
operation is an in-process ``msgate.cli.main(argv)`` call, started when the
previous one and its correctness check have finished.  The run repeats the
workload's fixed operation sequence until ``--seconds`` would be exceeded
(at least once).  ``--size`` picks the operation sizes (see workloads.py);
the gated size, ``bench``, keeps each sequence at 0.7-4 s.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s``, the median of five set-ups (four in fresh interpreters);
``wall_s``, the best sequence time of the run; ``op_p50_s``/``op_p90_s``,
percentiles over the sequence's operations of each operation's best time;
``peak_rss_mb``.  Best-of-repeats follows timeit: on a shared host the
slower repeats measure other tenants, not msgate.  Failures are the
``failed`` count out of ``attempted``.  With ``--trace 1`` the run
alternates untraced and traced sequences and reports the per-layer metrics
of ``tracing.py``; the spans go to ``.perfbench_out/``.  The line before
the result stamps provenance: versions, BLAS threads, commit, seed.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before heavy imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from env import ROOT, provenance, use_checkout_source  # noqa: E402
from reference import load_refs  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 170
OUT_DIR = ROOT / ".perfbench_out"


def call(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one CLI command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark counts the failure and keeps going
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Tally:
    """Operation outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.z: list[float] = []

    def run_sequence(self, ops, main) -> list[float]:
        """Run and check the operations in order; their latencies in seconds."""
        latencies = []
        for op in ops:
            rc, out, err, seconds = call(main, op.argv)
            latencies.append(seconds)
            self.attempted += 1
            try:
                if rc != 0:
                    raise CheckFailed(f"exit code {rc}: {err[-600:]}")
                extra = op.check(out) or {}
            except (CheckFailed, ValueError, KeyError, OSError) as exc:
                self.failed += 1
                print(f"FAILED: msgate {' '.join(op.argv)}\n  {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            else:
                if "z" in extra:
                    self.z.append(extra["z"])
        return latencies


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_workload(args, work):
    """Import msgate, build what the workload reads, warm up; seconds since T0."""
    import msgate.cli as cli

    os.environ["MSGATE_CACHE_DIR"] = str(work / "cache")
    refs = load_refs()
    workload = WORKLOADS[args.workload](args.seed, args.size, work, refs)
    workload.setup(lambda argv: call(cli.main, argv)[:3])
    return workload, cli.main, refs, time.perf_counter() - T0


def fresh_setups(args, count: int) -> list[float]:
    """Set-up time of ``count`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up subprocess failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(workload, main, seconds: float, tally: Tally) -> list[list[float]]:
    """Repeat the sequence until the next one would overrun; op latencies per repeat."""
    deadline = time.perf_counter() + seconds
    repeats: list[list[float]] = []
    while not repeats or time.perf_counter() + statistics.median(map(sum, repeats)) <= deadline:
        repeats.append(tally.run_sequence(workload.sequence(), main))
    return repeats


def measure_traced(workload, main, refs, seconds: float, tally: Tally, trace_path, stamp):
    """Alternate untraced and traced sequences; per-layer metrics.

    The spans, hook totals and ``stamp`` (provenance) go to ``trace_path``.
    """
    tracer = Tracer(refs)
    traced_main = tracer.traced_main(main)
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    cpu = 0.0
    while not plain or time.perf_counter() + statistics.median(plain) + statistics.median(traced) <= deadline:
        plain.append(sum(tally.run_sequence(workload.sequence(), main)))
        cpu0 = _cpu_s()
        with tracer.sequence_scope():
            traced.append(sum(tally.run_sequence(workload.sequence(), traced_main)))
        cpu += _cpu_s() - cpu0
    traced_wall = statistics.fmean(traced)  # per-layer numbers are means per sequence too
    overhead = min(traced) / min(plain) - 1.0
    # Traced and untraced sequences have the same inputs, hence the same z.
    metrics = tracer.metrics(traced_wall, overhead, cpu, max(tally.z, default=0.0))
    for line in tracer.stress_report(traced_wall):
        print(f"trace: {line}", file=sys.stderr)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"provenance": stamp, "workload": workload.name, **tracer.dump()}
    trace_path.write_text(json.dumps(doc, separators=(",", ":")))
    return metrics


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def run_one(args) -> int:
    use_checkout_source()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload, main, refs, setup_s = setup_workload(args, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        stamp = provenance(args.seed)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
            values = measure_traced(workload, main, refs, args.seconds, tally, trace_path, stamp)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            repeats = measure(workload, main, args.seconds, tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_s] + fresh_setups(args, SETUP_REPEATS - 1)
            walls = [sum(r) for r in repeats]
            best = [min(op) for op in zip(*repeats)]  # each operation's best repeat
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": min(walls),
                "op_p50_s": statistics.median(best),
                "op_p90_s": percentile(best, 90),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            print(f"repeats {len(walls)} of {len(best)} operations, "
                  f"sequence s {[round(w, 4) for w in walls]}, "
                  f"set-ups {[round(s, 4) for s in setups]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": stamp}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


# ------------------------------------------------------- every workload at once

def run_all(seed: int, seconds: int, trace: int, size: str) -> dict[str, dict]:
    """Each workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--size", size]
        proc = subprocess.run(cmd, cwd=ROOT,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def print_table(results: dict[str, dict]) -> None:
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        print(f"  {'failed_frac':36s} {frac:.6g} 1")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")


def smoke() -> int:
    """Tiny runs of every workload in both modes; every named metric with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= WORKLOADS.keys():
        problems.append("BENCHMARK.json names a workload the code lacks")
    for trace, section, ours in (
        (0, "end_to_end", END_TO_END),
        (1, "per_layer", {k: u for k, (u, _) in PER_LAYER.items()}),
    ):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != ours:
            problems.append(f"{section} in BENCHMARK.json differs from the code")
        results = run_all(seed=7, seconds=1, trace=trace, size="tiny")
        print_table(results)
        for name, res in results.items():
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} failed operations")
            printed = {k: m["unit"] for k, m in res["metrics"].items()}
            if printed != declared:
                problems.append(f"{name} trace={trace}: printed {sorted(printed.items())}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "every metric printed with its unit"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="operation sizes: bench (gated), full (CLI defaults), tiny (smoke)")
    parser.add_argument("--smoke", action="store_true", help="tiny runs, check every metric")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace, args.size)
        print_table(results)
        print(json.dumps(results))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
