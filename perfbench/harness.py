"""Closed-loop run loop shared by all workloads.

One client, no threads: each op starts when the previous one returns.  A
workload generates one *pass*: a list of ops over all of its inputs.  A
run repeats whole passes until it has lasted the run's seconds and
attempted at least ``MIN_OPS`` ops, so that ten or more latency samples lie
beyond p90.
Every op runs under a fixed wall budget enforced in process with
``SIGALRM``.  Results are kept and verified only after the timed phase,
against the workload's independent reference computation.

Timings are scaled to a fixed machine speed.  On a machine shared with
other tenants, the speed at which the same Python code runs drifts by a
quarter or more over tens of seconds, and every op slows alike.  So before
each op the loop times ``reference_loop``, a fixed pure-Python
elimination that calls no tiltlab code, and each latency is scaled by
``REFERENCE_S`` over the median reference time of the ops around it.  The
scaled latency is what the op would take on a machine that runs the loop in
``REFERENCE_S``; the log also prints the unscaled figures.  Latency
percentiles count every run of every op as a sample, and throughput is
verified ops over the summed scaled latencies of all attempted ops.
"""

from __future__ import annotations

import random
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

MIN_OPS = 100
MAX_TIMED_S = 120.0  # a timed phase stops mid-pass after this long
REFERENCE_S = 0.8e-3  # reference_loop's time on the baseline machine (README) at its usual speed
SPEED_WINDOW = 10  # reference times on each side of an op that give its machine speed
_REFERENCE_MATRIX = [random.Random(i).choices(range(101), k=20) for i in range(20)]

OK, WRONG, MISS, RAISED, OVER_BUDGET = "ok", "wrong", "miss", "raised", "over_budget"


class OverBudget(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    ``except Exception`` inside the library swallows it."""


def _on_alarm(signum, frame):
    raise OverBudget()


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # OK, WRONG (a certified claim refuted), MISS (an uncertified answer wrong)
    # or OVER_BUDGET (a result over a work budget of the op's own)
    check: Callable[[object], str]
    tag: str = ""  # names the known-defect input family, if any
    size: str = ""
    budget_s: float | None = None  # overrides the workload's budget for this op kind
    known_failure: str = ""  # the defect's failure mode: MISS, OVER_BUDGET or an exception name


def reference_loop() -> float:
    """Seconds taken by Gauss-Jordan elimination mod 101 of a fixed 20 x 20
    matrix of Python ints in lists, the kind of work tiltlab does: the
    machine's speed now."""
    t0 = perf_counter()
    p = 101
    a = [row[:] for row in _REFERENCE_MATRIX]
    n, r = len(a), 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return perf_counter() - t0


def speed_scaled(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the reference speed, given reference times measured
    around it."""
    return seconds * REFERENCE_S / statistics.median(refs)


def late(owner, name: str, *args):
    """``owner.name(*args)`` as a zero-argument call that looks the
    attribute up when it runs, so that the tracer's wrappers are used."""
    return lambda: getattr(owner, name)(*args)


def unexpected_failure(rec: "Record") -> bool:
    """An op that missed, raised or ran over budget outside its documented
    defect."""
    if rec.outcome in (MISS, OVER_BUDGET):
        return rec.op.known_failure != rec.outcome
    return rec.outcome == RAISED and rec.op.known_failure != rec.error


@dataclass
class Record:
    op: Op
    latency: float
    outcome: str
    result: object = None
    error: str = ""
    ref: float = 0.0  # reference_loop time measured just before the op


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)
    elapsed: float = 0.0
    peak_rss_mb: float = 0.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_op(op: Op, budget_s: float) -> Record:
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.budget_s or budget_s)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        return Record(op, perf_counter() - t0, OVER_BUDGET)
    except Exception as exc:  # the op failed; count it, never stop the loop
        return Record(op, perf_counter() - t0, RAISED, error=type(exc).__name__)
    return Record(op, perf_counter() - t0, "done", result)


def timed_phase(ops: list[Op], seconds: float, budget_s: float, children: bool,
                after_op: Callable[[], None] | None = None) -> Phase:
    phase = Phase()
    start = perf_counter()
    while True:
        for op in ops:
            ref = reference_loop()
            rec = run_op(op, budget_s)
            rec.ref = ref
            phase.records.append(rec)
            if after_op is not None:
                after_op()
            if perf_counter() - start > MAX_TIMED_S:
                break
        elapsed = perf_counter() - start
        if elapsed > MAX_TIMED_S or (elapsed >= seconds and len(phase.records) >= MIN_OPS):
            break
    phase.elapsed = perf_counter() - start
    phase.peak_rss_mb = peak_rss_mb(children)
    return phase


def verify(phase: Phase):
    for rec in phase.records:
        if rec.outcome == "done":
            try:
                rec.outcome = rec.op.check(rec.result)
            except Exception as exc:  # a result the reference cannot even read is wrong
                rec.outcome, rec.error = WRONG, f"check raised {type(exc).__name__}: {exc}"
            rec.result = None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(phase: Phase) -> dict:
    recs = phase.records
    ok = sum(1 for r in recs if r.outcome == OK)
    refs = [r.ref for r in recs]
    w = SPEED_WINDOW
    lat = [speed_scaled(r.latency, refs[max(0, i - w):i + w + 1]) for i, r in enumerate(recs)]
    raw = [r.latency for r in recs]
    p90 = percentile(lat, 90)
    return {
        "attempted": len(recs),
        "ok": ok,
        "failed": len(recs) - ok,
        "wrong": sum(1 for r in recs if r.outcome == WRONG),
        "passes": max(Counter(id(r.op) for r in recs).values()),
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for x in lat if x > p90),
        "failed_op_share": (len(recs) - ok) / len(recs),
        "verified_op_share": ok / len(recs),
        "peak_rss_mb": phase.peak_rss_mb,
        "elapsed_s": phase.elapsed,
        "raw_ops_per_s": ok / sum(raw),
        "raw_op_p50_ms": percentile(raw, 50) * 1e3,
        "raw_op_p90_ms": percentile(raw, 90) * 1e3,
        "reference_ms": statistics.median(refs) * 1e3,
    }


def outcome_table(phase: Phase) -> list[str]:
    """One line per (kind, tag): attempts and outcomes, for the log."""
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for r in phase.records:
        row = rows.setdefault((r.op.kind, r.op.tag), {})
        row[r.outcome] = row.get(r.outcome, 0) + 1
    lines = []
    for (kind, tag), row in sorted(rows.items()):
        n = sum(row.values())
        bad = n - row.get(OK, 0)
        detail = " ".join(f"{k}={v}" for k, v in sorted(row.items()))
        label = f"{kind}[{tag}]" if tag else kind
        lines.append(f"  {label:<34} attempted={n:<5} failed_share={bad / n:.3f}  {detail}")
    return lines


def log(msg: str):
    print(msg, flush=True)


def warn(msg: str):
    print(msg, file=sys.stderr, flush=True)
