"""Deterministic check reports with matching text and JSON renderings."""

from __future__ import annotations

from fractions import Fraction


def plain(value):
    """Convert report payloads to JSON-stable primitives."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return str(value)


class Check:
    __slots__ = ("name", "inputs", "values", "passed")

    def __init__(self, name: str, inputs: dict, values: dict, passed: bool):
        self.name, self.inputs, self.values, self.passed = name, inputs, values, passed


class Report:
    __slots__ = ("scenario", "params", "checks")

    def __init__(self, scenario: str, params: dict):
        self.scenario, self.params, self.checks = scenario, params, []

    def add(self, name: str, passed: bool, inputs: dict | None = None, values: dict | None = None):
        self.checks.append(Check(name, plain(inputs or {}), plain(values or {}), bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": plain(self.params),
            "checks": [
                {"name": c.name, "inputs": c.inputs, "values": c.values, "pass": c.passed}
                for c in self.checks
            ],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        import json  # imported where a report is rendered, not where it is built

        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        import json

        lines = [f"scenario: {self.scenario}"]
        params = plain(self.params)
        lines.append("params: " + json.dumps(params, sort_keys=True))
        for c in self.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
            if c.inputs:
                lines.append("    inputs: " + json.dumps(c.inputs, sort_keys=True))
            if c.values:
                lines.append("    values: " + json.dumps(c.values, sort_keys=True))
        s = self.summary
        lines.append(f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed")
        return "\n".join(lines) + "\n"
