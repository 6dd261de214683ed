"""Run limits shared by the f/g searches (`max_nodes` counts search nodes)
and the exact simplex (it counts pivots); both return partial results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SearchBudget:
    """Optional node and wall-clock limits; absent means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:  # NaN too
            raise ValueError("max_seconds must be positive")


NO_BUDGET = SearchBudget()
