#!/usr/bin/env python3
"""Benchmark the satpoly CLI end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload easy-eval --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ and nowhere else.  One process runs one workload as a
closed loop with a single client: each task calls satpoly.cli.main(argv)
in-process with stdout captured, on files generated from --seed.  The loop
runs whole five-round cycles of 100 tasks and stops at the first cycle
boundary where the summed task time has reached --seconds.  Every cycle
after the first starts with every satpoly cache emptied, as the first one
starts in a fresh process.  Generation and answer checks happen between
tasks, outside the timed calls.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first round
three times in one process, with every satpoly cache emptied before the
second and third pass: untraced, untraced again as the reference, then
traced.  It prints the per-layer metrics and the tracing overhead; the
spans go to .bench_out/ in the checkout.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracing  # neither module imports satpoly
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WALL_CAP_S = 140.0  # start no task past this, so a run ends within 180 s
SETUP_PROBES = 2  # import timings before the loop and again after every round
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import satpoly.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t, satpoly.cli.__file__)\n"
)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_seconds() -> float:
    """Time `import satpoly.cli` in a fresh interpreter (what every CLI call pays)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"importing satpoly.cli failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not _under_src(path):
        fail(f"satpoly.cli came from {path}, not from {SRC}")
    return float(seconds)


def invoke(cli, argv: list[str]):
    """Call cli.main(argv) with stdout/stderr captured; return (seconds, code, out, err, exc)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects an argv
            code = e.code
        except Exception as e:  # a crash is a failed task, never the end of the run
            exc = e
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), exc


def judge(task, code, out: str, err: str, exc) -> tuple[str, str]:
    """Classify one result: ok, known (a known defect), crash, exit, or wrong."""
    if exc is not None:
        known = task.known_crash(exc)
        if known:
            return "known", known
        return "crash", f"{type(exc).__name__}: {str(exc)[:120]}"
    if code != 0:
        return "exit", f"exit code {code}: {err.strip()[-120:]}"
    try:
        payload = json.loads(out.strip().splitlines()[-1])
        reason = task.check(payload)
    except Exception as e:  # malformed output is a wrong answer
        reason = f"unreadable output ({type(e).__name__}: {e})"
    return ("wrong", reason) if reason else ("ok", "")


def run_pass(cli, tasks, seconds=None, tracer=None, on_round_end=None):
    """Closed loop over the iterable `tasks`; return one record per task run.

    With a deadline it stops at the first cycle boundary where the summed
    task time has reached `seconds`, and empties every satpoly cache at
    each boundary it passes; without one (seconds is None) every task
    runs.  on_round_end() runs after every round.  A record is (family,
    seconds, status, reason, stdout bytes).
    """
    cycle = workloads.CYCLE_ROUNDS * workloads.ROUND_TASKS
    records = []
    timed = 0.0
    start = time.perf_counter()
    for task in tasks:
        if seconds is not None:
            if records and not len(records) % cycle:
                if timed >= seconds:
                    break
                tracing.clear_caches()
            if time.perf_counter() - start > WALL_CAP_S:
                # only a program several times slower than at baseline gets
                # here; its run then ends inside a cycle
                sys.stderr.write(f"perfbench: wall cap hit after {len(records)} tasks\n")
                break
        if tracer is not None:
            tracer.task = len(records)
        # start each task from a collected heap, as a fresh CLI process does,
        # so garbage left by generation and checks never lands in a task
        gc.collect()
        elapsed, code, out, err, exc = invoke(cli, task.argv)
        timed += elapsed
        status, reason = judge(task, code, out, err, exc)
        for path in task.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        records.append((task.family, elapsed, status, reason, len(out.encode())))
        if on_round_end is not None and not len(records) % workloads.ROUND_TASKS:
            on_round_end()
    return records


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A mean of all order statistics, weighted by the chance that each is the
    median of a sample of this size (a Beta((n+1)/2, (n+1)/2) law), so
    nearly all weight lies on the middle fifth of the ranks.  Near the
    median the tasks of a run lie a few percent apart in latency, so two of
    them that swap places between runs move a single order statistic by
    that much; the weighted mean barely moves.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    t = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_density = (n - 1) / 2 * (np.log(t) + np.log1p(-t))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_density - log_density.max()))))
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], t))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, right=1.0))
    return float(weights @ ordered)


def summarize(records) -> None:
    """Per-family counts and median latency, then failure reasons, on stderr."""
    stream = sys.stderr
    by_family: dict[str, list] = {}
    for family, seconds, status, reason, _ in records:
        by_family.setdefault(family, []).append((seconds, status))
    stream.write(f"{'family':40} {'tasks':>5} {'ok':>4} {'p50_s':>9} {'max_s':>9}\n")
    for family in sorted(by_family):
        rows = by_family[family]
        lat = [s for s, _ in rows]
        ok = sum(1 for _, st in rows if st == "ok")
        stream.write(f"{family:40} {len(rows):5d} {ok:4d} {statistics.median(lat):9.4f} "
                     f"{max(lat):9.4f}\n")
    reasons = Counter((status, reason) for _, _, status, reason, _ in records if status != "ok")
    for (status, reason), n in sorted(reasons.items()):
        stream.write(f"failed {n:4d} x {status}: {reason}\n")


def result_line(records, metrics: dict, checked) -> str:
    """The final JSON line for `records`; the records in `checked` decide `correct`."""
    failed = sum(1 for r in records if r[2] != "ok")
    correct = all(r[2] in ("ok", "known") for r in checked)
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def end_to_end(records, setup: list[float]) -> dict:
    lat = [r[1] for r in records]
    ok = sum(1 for r in records if r[2] == "ok")
    return {
        "setup_s": (min(setup), "s"),
        "tasks_per_s": (ok / sum(lat), "1/s"),
        "task_p50_s": (harrell_davis_median(lat), "s"),
        "task_p90_s": (nearest_rank(lat, 0.9), "s"),
        "ok_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satpoly" / "cli.py").is_file():
        fail(f"no satpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.ROUNDS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.ROUNDS)}")

    setup = [import_seconds() for _ in range(0 if args.trace else SETUP_PROBES)]
    from satpoly import cli  # noqa: E402

    if not _under_src(cli.__file__):
        fail(f"satpoly.cli came from {cli.__file__}, not from {SRC}")

    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        stream = workloads.task_stream(args.workload, args.seed, scratch)
        if args.trace:
            records, checked, metrics = traced_run(cli, stream, args)
        else:
            records = checked = run_pass(
                cli, stream, args.seconds,
                on_round_end=lambda: setup.extend(import_seconds() for _ in range(SETUP_PROBES)),
            )
            metrics = end_to_end(records, setup)
        summarize(records)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    print(result_line(records, metrics, checked))
    return 0


def traced_run(cli, stream, args):
    """The first round three times: untraced, then from emptied caches untraced and traced.

    The second, untraced pass is the reference for the overhead: it starts
    from the same state as the traced one, with the caches emptied in a
    process that has run the round once.  Returns (traced records, records
    of every pass, per-layer metrics) and writes the spans to .bench_out/.
    """
    tasks = list(itertools.islice(stream, workloads.ROUND_TASKS))
    first = run_pass(cli, tasks)
    tracing.clear_caches()
    untraced = run_pass(cli, tasks)
    cleared = tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run_pass(cli, tasks, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_wall = sum(r[1] for r in untraced)
    traced_wall = sum(r[1] for r in records)
    metrics = tracer.metrics()
    metrics["cli.main.output_bytes"] = (sum(r[4] for r in records), "bytes")
    metrics["cli.main.failed_frac"] = (
        sum(1 for r in records if r[2] != "ok") / len(records), "ratio")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(str(span_file), {"workload": args.workload, "seed": args.seed,
                                  "tasks": [t.family for t in tasks],
                                  "caches_cleared": cleared})
    sys.stderr.write(f"spans written to {span_file}\n")
    return records, first + untraced + records, metrics


if __name__ == "__main__":
    sys.exit(main())
