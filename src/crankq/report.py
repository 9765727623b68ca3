"""Outcome record for a single verification task."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:
    from .series import Series

__all__ = ["CheckReport", "first_mismatch"]


@dataclass(frozen=True)
class CheckReport:
    """Result of one verification task.

    ``witness`` is present exactly when the task failed and points at the
    smallest offending index (exponent, progression step, grid point ...)
    together with whatever residue or mismatch was observed there.
    ``elapsed_ms`` is measured by :func:`crankq.tasks.run_task`; a report
    returned by calling a check function directly carries 0.
    """

    task: str
    params: dict[str, Any] = field(default_factory=dict)
    order: int = 0
    outcome: str = "pass"
    witness: Optional[dict[str, Any]] = None
    elapsed_ms: int = 0

    def __post_init__(self):
        if self.outcome not in ("pass", "fail"):
            raise ValueError(f"outcome must be 'pass' or 'fail', got {self.outcome!r}")
        if self.outcome == "fail" and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    @classmethod
    def from_failures(cls, task: str, params: dict[str, Any], order: int,
                      failures: Iterable[Optional[dict[str, Any]]]) -> CheckReport:
        """Fail with the first failure as the witness, else pass.

        None entries stand for checks that passed.  Failures are drawn only
        up to the first, so a generator of failures stops there.
        """
        witness = next(filter(None, failures), None)
        return cls(task, params, order, "pass" if witness is None else "fail",
                   witness)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        """Plain dict with a stable key order, for JSON serialization."""
        out: dict[str, Any] = {
            "task": self.task,
            "params": self.params,
            "order": self.order,
            "outcome": self.outcome,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=False)

    def text_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        bits = [f"{tag} {self.task}"]
        if self.params:
            bits.append("(" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")")
        if self.order:
            bits.append(f"order={self.order}")
        if self.witness is not None:
            bits.append("witness=" + json.dumps(self.witness, sort_keys=False))
        bits.append(f"[{self.elapsed_ms} ms]")
        return " ".join(bits)


def first_mismatch(lhs: Series, rhs: Series, keys: tuple[str, str] = ("lhs", "rhs"),
                   modulus: Optional[int] = None) -> Optional[dict[str, int]]:
    """Witness at the lowest exponent where two series differ, or None.

    With ``modulus`` both sides are compared, and reported, as least
    non-negative residues.  ``keys`` name the two reported values.
    """
    if modulus is not None:
        lhs, rhs = lhs.reduce_mod(modulus), rhs.reduce_mod(modulus)
    diff = lhs.first_diff(rhs)
    if diff is None:
        return None
    return {"exponent": diff, keys[0]: lhs._at(diff), keys[1]: rhs._at(diff)}
