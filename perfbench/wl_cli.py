"""cli-cold: every subcommand as a fresh ``python -m tiltlab.cli`` process.

What a user pays per command: interpreter start, imports (sympy among
them) and the scenario itself.  A pass runs ``tube-demo``,
``dedekind``, ``free-envelope``, ``perp-check`` and ``custom`` on the
repository fixture, in text and in JSON, for two ``--seed`` values drawn
from the benchmark seed: twenty command lines, one process at a time,
with ``PYTHONPATH=src`` because the package is not installed.  Passes
repeat, so every command line runs several times and its output must be
byte-identical each time.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import OK, WRONG, Op

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "tests/fixtures/kronecker.txt"
COMMANDS = {
    "tube-demo": [],
    "dedekind": ["--random-ore", "3"],
    "free-envelope": [],
    "perp-check": [],
    "custom": [FIXTURE],
}
GROUPS = 2  # input groups per pass
BUDGET_S = 10.0  # slowest command takes ~0.9 s
CHILD_PROCESSES = True  # peak memory is the largest child's; nothing in this process to trace


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    return {"groups": [[[cmd, fmt, rng.randrange(10**6)] for cmd in COMMANDS for fmt in ("text", "json")]
                       for _ in range(GROUPS)]}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def argv(cmd: str, fmt: str, seed: int) -> list[str]:
    return [sys.executable, "-m", "tiltlab.cli", cmd, *COMMANDS[cmd], "--format", fmt, "--seed", str(seed)]


def run_command(args: list[str], env: dict) -> tuple[int, bytes]:
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def build(spec: dict) -> list[Op]:
    env = _env()
    refs: dict[tuple, _Reference] = {}
    groups = []
    for grp in spec["groups"]:
        ops = []
        for cmd, fmt, seed in grp:
            ref = refs.setdefault((cmd, fmt, seed), _Reference(fmt))
            # one op kind: every command pays the same start-up, so one warm-up
            # run fills the bytecode and page caches for all of them
            ops.append(Op("cli", functools.partial(run_command, argv(cmd, fmt, seed), env), ref.check,
                          size=f"{cmd} {fmt}"))
        groups.append(ops)
    return [op for ops in groups for op in ops]


class _Reference:
    """Exit code 0, every check passed, and the same bytes as the first
    run of the same command line."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.first: bytes | None = None

    def check(self, result) -> str:
        code, out = result
        if code != 0 or not _all_passed(self.fmt, out.decode()):
            return WRONG
        if self.first is None:
            self.first = out
        return OK if out == self.first else WRONG


def _all_passed(fmt: str, text: str) -> bool:
    if fmt == "json":
        report = json.loads(text)
        checks = report["checks"]
        return bool(checks) and all(c["pass"] for c in checks) and report["summary"]["failed"] == 0
    lines = text.splitlines()
    marks = [ln for ln in lines if ln.startswith("[")]
    return bool(marks) and all(ln.startswith("[PASS] ") for ln in marks) and lines[-1].endswith(", 0 failed")


def layer_extras(phase, seed: int) -> dict:
    """Interpreter start-up, ``import tiltlab.cli`` on top of it, and the
    median wall time of each subcommand in the traced phase."""
    env = _env()

    def wall(args, n=5):
        times = []
        for _ in range(n):
            t0 = perf_counter()
            subprocess.run(args, cwd=ROOT, env=env, capture_output=True, check=True)
            times.append((perf_counter() - t0) * 1e3)
        return statistics.median(times)

    interp = wall([sys.executable, "-c", "pass"])
    out = {
        "cli.interp_ms": interp,
        "cli.import_ms": wall([sys.executable, "-c", "import tiltlab.cli"]) - interp,
    }
    for cmd in COMMANDS:
        lat = [r.latency * 1e3 for r in phase.records if r.op.size.split()[0] == cmd]
        out[f"cli.{cmd}.wall_ms"] = statistics.median(lat) if lat else 0.0
    return out
