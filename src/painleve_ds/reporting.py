"""Small result containers shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import format_rational, is_rational


def jsonable(x):
    """Map exact values onto JSON-safe primitives; rationals become 'p/q' strings."""
    if is_rational(x):
        return format_rational(Fraction(x))
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        return out


@dataclass
class CheckReport:
    label: str
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, witness=None):
        self.checks.append(Check(name, bool(passed), witness))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "pass": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass
class SampleReport:
    """A sampled suite: how many points it drew and the JSON-ready failures."""

    label: str
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "samples": self.attempted,
            "passed": self.passed,
            "failures": self.failures,
        }
