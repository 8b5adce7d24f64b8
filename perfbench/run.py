"""tiltlab benchmark.

    python3 perfbench/run.py --workload homext-dense --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` without being installed.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of an untraced run, with ``--trace 1``
the per-layer metrics of a traced run (plus the tracing overhead).  Earlier
lines are a human-readable log: the input digest, outcome counts per op
kind and every metric with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import digest
from harness import (MISS, OK, WRONG, log, outcome_table, reference_loop, run_op, speed_scaled, summarize,
                     timed_phase, unexpected_failure, verify, warn)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "homext-dense": "wl_homext",
    "ar-search": "wl_arsearch",
    "cli-cold": "wl_cli",
    "zmod-words": "wl_zmod",
}
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
SETUP_REFS = 20  # reference-loop runs before and after a set-up, for its machine speed

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("verified_op_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

_SPANS = {
    "exactlin": ["rref", "matmul", "snf"],
    "quiverrep": ["hom_space", "hom_ext_dims", "tor_dims", "proj_presentation"],
    "artheory": ["decompose", "is_isomorphic", "tau", "tube_catalog"],
    "perpcat": ["perp_conditions", "divisible_radical", "class_compare"],
    "dedekind": ["classify", "prime_support", "classify_tilting", "closed_form"],
    "freegrp": ["envelope_value"],
}
CLI_COMMANDS = ["tube-demo", "dedekind", "free-envelope", "perp-check", "custom"]


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for layer, fns in _SPANS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out += [
        ("exactlin.rref.cells", "count"),
        ("exactlin.rref.max_cells", "count"),
        ("exactlin.matrix_new.calls", "count"),
        ("exactlin.snf.max_bits", "bits"),
        ("quiverrep.hom_space.system_cells", "count"),
        ("artheory.all_submodules.calls", "count"),
        ("artheory.all_submodules.self_s", "s"),
        ("artheory.all_submodules.tuples_visited", "count"),
        ("artheory.all_submodules.yielded", "count"),
        ("artheory.all_submodules.yield_ratio", "ratio"),
        ("artheory.is_isomorphic.false_negatives", "count"),
        ("freegrp.envelope_value.letters", "count"),
        ("freegrp.envelope_value_alg.self_s", "s"),
        ("freegrp.envelope_value_alg.terms", "count"),
        ("freegrp.ga_mul.self_s", "s"),
        ("freegrp.ga_mul.terms_out", "count"),
        ("cli.interp_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    out += [(f"cli.{c}.wall_ms", "ms") for c in CLI_COMMANDS]
    out += [
        ("trace.ops_per_s_untraced", "1/s"),
        ("trace.ops_per_s_traced", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def setup(wl, seed: int):
    """Input generation, library import and one warm-up op of each kind;
    returns (ops of one pass, spec, seconds at the reference speed)."""
    refs = [reference_loop() for _ in range(SETUP_REFS)]
    t0 = perf_counter()
    spec = wl.generate(seed)
    ops = wl.build(spec)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, wl.BUDGET_S)
    elapsed = perf_counter() - t0
    refs += [reference_loop() for _ in range(SETUP_REFS)]
    return ops, spec, speed_scaled(elapsed, refs)


def probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, traced, untraced, extras: dict) -> dict:
    """Every per-layer metric: span self times and call counts, counters,
    and the workload's own extras; a layer the workload never calls is 0."""
    values = {}
    for name, _ in per_layer_names():
        span, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = tracer.self_s.get(span, 0.0)
        elif name in tracer.counts:
            values[name] = tracer.counts[name]
        elif field == "calls":
            values[name] = tracer.calls.get(span, 0)
        else:
            values[name] = extras.get(name, 0)
    tuples = values["artheory.all_submodules.tuples_visited"]
    values["artheory.all_submodules.yield_ratio"] = (
        values["artheory.all_submodules.yielded"] / tuples if tuples else 0.0)
    values["artheory.is_isomorphic.false_negatives"] = sum(
        1 for r in traced.records if r.op.kind == "is_isomorphic" and r.outcome == MISS)
    u, t = summarize(untraced)["ops_per_s"], summarize(traced)["ops_per_s"]
    values["trace.ops_per_s_untraced"] = u
    values["trace.ops_per_s_traced"] = t
    values["trace.overhead_pct"] = (u / t - 1.0) * 100.0 if t else 0.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tiltlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tiltlab" / "__init__.py").is_file():
        warn(f"perfbench: no tiltlab sources under {src}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(src))
    wl = importlib.import_module(WORKLOADS[args.workload])
    # one CPU for this process and its children, so that the reference loop
    # gauges the speed of the CPU the ops (CLI processes too) run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.setup_probe:
        print(repr(setup(wl, args.seed)[2]))
        return 0

    ops, spec, own_setup = setup(wl, args.seed)
    log(f"workload {args.workload} seed {args.seed} inputs sha256:{digest(spec)} "
        f"ops/pass {len(ops)} budget {wl.BUDGET_S} s/op")
    children = getattr(wl, "CHILD_PROCESSES", False)

    if not args.trace:
        setups = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        phase = timed_phase(ops, args.seconds, wl.BUDGET_S, children)
        verify(phase)
        s = summarize(phase)
        s["setup_s"] = statistics.median(setups)
        _log_phase("untraced", phase, s)
        log(f"  setup samples (s): {', '.join(f'{x:.4f}' for x in setups)}")
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in END_TO_END}
        records = phase.records
    else:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        untraced = timed_phase(ops, args.seconds, wl.BUDGET_S, children)
        if not children:
            install_layers(tracer)
            try:
                traced = timed_phase(ops, args.seconds, wl.BUDGET_S, children,
                                     after_op=tracer.reinstall)
            finally:
                tracer.uninstall()
        else:
            traced = untraced  # the ops run in child processes; nothing here to wrap
        extras = wl.layer_extras(traced, args.seed) if hasattr(wl, "layer_extras") else {}
        verify(untraced)
        verify(traced)
        _log_phase("untraced", untraced, summarize(untraced))
        if traced is not untraced:
            _log_phase("traced", traced, summarize(traced))
        out = HERE / ".out" / f"trace-{args.workload}.json"
        tracer.write(out)
        log(f"  {len(tracer.start)} spans written to {out.relative_to(ROOT)}")
        values = layer_metrics(tracer, traced, untraced, extras)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
        for name, m in metrics.items():
            log(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        records = untraced.records + (traced.records if traced is not untraced else [])

    # wrong answers, and failures outside the documented defects, make the run incorrect
    bad = [r for r in records if r.outcome == WRONG or unexpected_failure(r)]
    for r in bad[:5]:
        warn(f"perfbench: {r.outcome} from {r.op.kind} {r.op.size} {r.error}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.outcome != OK),
        "metrics": metrics,
    }))
    return 0


def _log_phase(label: str, phase, s: dict):
    log(f"{label}: {s['attempted']} ops in {s['passes']} passes, {s['elapsed_s']:.3f} s, {s['ok']} verified, "
        f"{s['failed']} failed ({s['wrong']} wrong), {s['beyond_p90']} samples beyond p90")
    for line in outcome_table(phase):
        log(line)
    for name, unit in END_TO_END + [("failed_op_share", "ratio"), ("raw_ops_per_s", "1/s"),
                                    ("raw_op_p50_ms", "ms"), ("raw_op_p90_ms", "ms"), ("reference_ms", "ms")]:
        if name in s:
            log(f"  {name:<20} {s[name]:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
