"""logmono benchmark: time to verdict on seeded problems.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; logmono is imported from ``src/`` there and
nowhere else.  One process, one thread, one workload, a closed loop with a
single caller.

``--trace 0`` runs the timed loop for ``--seconds`` seconds and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed list of problems untraced,
then again with the outside-in tracer (``tracer.py``), and prints the
per-layer metrics.  Every answer is graded against an oracle after the
timed loop; a wrong answer makes the exit code 1.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exit code 2, without that line, means the benchmark could not set up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import UNMEASURED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5  # setup_s is the median of this many set-ups
MIN_PROBLEMS = 100  # so that at least ten samples lie beyond the p90
WARMUP_PROBLEMS = 3
PROBLEM_LIMIT_S = 10.0  # a problem running longer fails
HARD_LIMIT_S = 120.0  # the timed loop stops here even below MIN_PROBLEMS
REFERENCE_EVERY_S = 0.1  # wall time between two reference measurements
REFERENCE_PARSERS = 3
REFERENCE_ITERATIONS = 600
REFERENCE_NOMINAL_S = 0.005  # reference CPU time on an uncontended 2-vCPU VM
DIGEST_PROBLEMS = 100  # answers hashed into output_digest
RESTORE_CHECK_PROBLEMS = 20


class SetupError(Exception):
    pass


class ProblemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ProblemTimeout


# ---------------------------------------------------------------------------
# Machine speed
#
# On a VM that shares its host's CPUs the same work can take 1.7x the CPU time
# from one second to the next.  Fixed reference work, interleaved with the
# problems, measures the current speed, and every CPU or wall time the
# benchmark reports is scaled by REFERENCE_NOMINAL_S / (reference time
# nearby).  The scale does not depend on logmono, so it cancels only the
# machine's drift.


def reference_s() -> float:
    """CPU seconds of fixed pure-Python work of the kinds logmono does:
    building and using an argparse parser, and Fraction arithmetic into a
    dict keyed by exponent tuples."""
    t0 = time.process_time()
    for _ in range(REFERENCE_PARSERS):
        parser = argparse.ArgumentParser(prog="reference")
        parser.add_argument("--json", action="store_true")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d", "e", "f"):
            sub.add_parser(name).add_argument("problem")
        parser.parse_args(["f", "x"])
    acc: dict = {}
    zero = Fraction(0)
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, zero) + Fraction(i, 1 + i % 11)
    return time.process_time() - t0


def speed_scales(refs: list[float]) -> list[float]:
    """Scale for the span after each reference measurement, from the
    median of the five measurements around it."""
    return [
        REFERENCE_NOMINAL_S / statistics.median(refs[max(0, k - 2) : k + 3])
        for k in range(len(refs))
    ]


# ---------------------------------------------------------------------------
# Set-up


def _import_logmono():
    """Import logmono afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "logmono" or n.startswith("logmono.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if not (src / "logmono" / "__init__.py").is_file():
        raise SetupError(f"no logmono sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("logmono")
    if Path(pkg.__file__).resolve().parent != (src / "logmono").resolve():
        raise SetupError(f"imported logmono from {pkg.__file__}, not from {src}")


def setup(name: str, seed: int, count: int, workdir: Path):
    """Import logmono, generate the inputs and write the problem files.
    Returns (CPU seconds, workload, items)."""
    t0 = time.process_time()
    _import_logmono()
    wl = WORKLOADS[name]()
    items = wl.prepare(seed, count, workdir)
    return time.process_time() - t0, wl, items


# ---------------------------------------------------------------------------
# Running problems


def run_one(wl, item):
    """One problem: (CPU s, wall s, summarized outcome, failure message)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    raw = failure = None
    try:
        signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            raw = wl.call(item)
        except ProblemTimeout:
            failure = f"over the {PROBLEM_LIMIT_S:g} s time limit"
        except (Exception, SystemExit):
            failure = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        sys.stdout, sys.stderr = saved
    outcome = None if failure else wl.summarize(item, raw, out.getvalue(), err.getvalue())
    return c1 - c0, w1 - w0, outcome, failure


def _freeze_heap():
    """Move the benchmark's own objects (the problem pool) out of the
    collector's reach, so that collections inside logmono cost what they
    would in a process holding only logmono's objects."""
    gc.collect()
    gc.freeze()


def run_pass(wl, items, seconds=None, tracer=None):
    """Closed loop over ``items``.  With ``seconds``, cycle through them until
    that much wall time has passed and MIN_PROBLEMS are done; without, run
    each once.  The reference work runs between problems.  Returns one
    (start, scaled CPU s, scaled wall s, item, outcome, failure) per problem."""
    rows, refs = [], []
    start = time.perf_counter()
    last_ref = -REFERENCE_EVERY_S
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if seconds is None:
            if i == len(items):
                break
        elif (elapsed >= seconds and i >= MIN_PROBLEMS) or elapsed >= HARD_LIMIT_S:
            break
        if elapsed - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_s())
            last_ref = elapsed
        item = items[i % len(items)]
        i += 1
        if tracer is not None:
            tracer.problem = item.index
        cpu, wall, outcome, failure = run_one(wl, item)
        rows.append((elapsed, cpu, wall, len(refs) - 1, item, outcome, failure))
    scales = speed_scales(refs)
    return [(t, c * scales[k], w * scales[k], item, o, f) for t, c, w, k, item, o, f in rows]


def _warm_up(wl, items):
    for item in items[-WARMUP_PROBLEMS:]:
        run_one(wl, item)
    _freeze_heap()


def collect(rows):
    """First answer per problem, and failures, including a problem whose
    answer changes when it repeats."""
    outcomes, failures = {}, []
    for *_, item, outcome, failure in rows:
        if failure:
            failures.append(f"problem {item.index}: {failure}")
        elif item.index not in outcomes:
            outcomes[item.index] = outcome
        elif outcomes[item.index] != outcome:
            failures.append(f"problem {item.index}: answer changed when repeated")
    return outcomes, failures


def grade(wl, items, outcomes) -> list[str]:
    failures = []
    for index, outcome in sorted(outcomes.items()):
        msg = wl.grade(items[index], outcome)
        if msg:
            failures.append(f"problem {index}: {msg}")
    return failures


def output_digest(outcomes) -> str:
    """Hash of the first answers, ungraded report fields included, so two
    runs on one seed can be compared for identical output."""
    h = hashlib.sha256()
    for index in range(DIGEST_PROBLEMS):
        h.update(repr(outcomes.get(index)).encode())
    return h.hexdigest()[:16]


def _nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(wl, items, seconds, setup_s):
    _warm_up(wl, items)
    rows = run_pass(wl, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes, failures = collect(rows)
    t0 = time.process_time()
    failures += grade(wl, items, outcomes)
    oracle_s = time.process_time() - t0
    cpu = [r[1] for r in rows]
    n = len(rows)
    metrics = {
        "problems_per_s": (n / sum(cpu), "1/s"),
        "latency_p50_ms": (statistics.median(cpu) * 1e3, "ms"),
        "latency_p90_ms": (_nearest_rank(cpu, 0.9) * 1e3, "ms"),
        "wall_problems_per_s": (n / sum(r[2] for r in rows), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"samples: {n} timed problems, {len(outcomes)} distinct",
        f"error_rate: {len(failures) / n:.6g} ratio ({len(failures)} failed of {n} attempted)",
        f"output_digest: {output_digest(outcomes)}",
        f"oracle_s: {oracle_s:.3f} s (untimed)",
    ]
    return n, failures, metrics, notes


def traced(wl, items, seed):
    """Untraced pass, traced pass, then an untraced re-run that must repeat
    the first pass byte for byte.  Counts repeat exactly per seed because
    the problem list is fixed."""
    items = items[: wl.trace_count]
    _warm_up(wl, items)
    base = run_pass(wl, items)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = run_pass(wl, items, tracer=tracer)
    finally:
        tracer.restore()
    again = run_pass(wl, items[:RESTORE_CHECK_PROBLEMS])

    outcomes, failures = collect(base)
    for rows, what in ((with_trace, "traced"), (again, "after restore")):
        for *_, item, outcome, failure in rows:
            if failure:
                failures.append(f"problem {item.index} ({what}): {failure}")
            elif item.index in outcomes and outcome != outcomes[item.index]:
                failures.append(f"problem {item.index}: answer {what} differs from untraced")
    failures += grade(wl, items, outcomes)

    cpu_base = sum(r[1] for r in base)
    cpu_traced = sum(r[1] for r in with_trace)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (cpu_traced / cpu_base, "ratio")
    trace_path = ROOT / ".bench_build" / "perfbench" / f"trace-{wl.name}-{seed}.jsonl"
    tracer.write_spans(trace_path)
    notes = [
        f"samples: {len(items)} problems, untraced then traced",
        f"untraced problems_per_s: {len(items) / cpu_base:.6g} 1/s",
        f"traced problems_per_s: {len(items) / cpu_traced:.6g} 1/s",
        f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}, "
        f"{tracer.dropped} more counted but not stored",
        f"output_digest: {output_digest(outcomes)}",
    ] + [f"unmeasured: {k}: {v}" for k, v in UNMEASURED.items()]
    return len(items), failures, metrics, notes


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl_cls = WORKLOADS[args.workload]
    count = max(MIN_PROBLEMS, wl_cls.trace_count, math.ceil(wl_cls.pool_per_second * args.seconds))
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        times = []
        for _ in range(SETUP_REPS):
            wl = items = None
            gc.collect()
            before = reference_s()
            t, wl, items = setup(args.workload, args.seed, count, workdir)
            times.append(t * REFERENCE_NOMINAL_S * 2 / (before + reference_s()))
        setup_s = statistics.median(times)
        if args.trace:
            attempted, failures, metrics, notes = traced(wl, items, args.seed)
        else:
            attempted, failures, metrics, notes = end_to_end(wl, items, args.seconds, setup_s)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
