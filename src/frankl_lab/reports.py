"""Verification report records; only `theorems` builds them.

Claim identifiers are stable strings intended for CI consumption:
"missing-subsets", "missing-covering", "thm-g", "thm-f-2n-minus-n",
"monotonicity", "fg-duality".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """A claim's verdict on a scope.  The status follows from the record:
    "violated" if there are violations, else "skipped" if a leg was left
    unchecked, else "verified"."""

    claim: str
    scope: dict
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.violations:
            return "violated"
        return "skipped" if self.skipped else "verified"

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "scope": self.scope,
            "status": self.status,
            "violations": self.violations,
            "notes": self.notes,
        }
