"""Run limits shared by the f/g searches (`max_nodes` counts search nodes)
and the exact simplex (it counts pivots), and `Meter`, the one clock that
spends them and times every result; both engines return partial results."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SearchBudget:
    """Optional node and wall-clock limits; absent means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        nodes, seconds = self.max_nodes, self.max_seconds
        if nodes is not None:
            if type(nodes) is not int:
                raise ValueError(f"max_nodes must be an int, got {nodes!r}")
            if nodes <= 0:
                raise ValueError("max_nodes must be positive")
        if seconds is not None:
            if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
                raise ValueError(f"max_seconds must be an int or a float, got {seconds!r}")
            if not seconds > 0:  # NaN too
                raise ValueError("max_seconds must be positive")


NO_BUDGET = SearchBudget()


class Meter:
    """Counts one run's steps against a budget and times the run.  Within
    budget the clock is read on the first step, then every `every` steps:
    4096 search nodes (microseconds each) or 16 pivots (milliseconds each)."""

    __slots__ = ("budget", "every", "nodes", "t0", "exhausted")

    def __init__(self, budget: SearchBudget = NO_BUDGET, every: int = 1):
        self.budget = budget
        self.every = every
        self.nodes = 0
        self.t0 = time.perf_counter()
        self.exhausted = False

    def tick(self, count: int = 1) -> bool:
        """Count `count` steps, or up to the first one past the budget: the
        same steps, clock readings and verdict as single ticks until one
        returns False.  True while within budget.  Once spent, it stays
        spent: a tick counts nothing and reads no clock."""
        if self.exhausted:
            return False
        b = self.budget
        start, last = self.nodes, self.nodes + count
        if b.max_nodes is not None and last > b.max_nodes:
            last = b.max_nodes + 1
            self.exhausted = True
        if b.max_seconds is not None:
            # the clock is read at steps 1, every + 1, 2 * every + 1, ...,
            # but not at a step past the node budget
            stop = last - 1 if self.exhausted else last
            for step in range(start + 1 + -start % self.every, stop + 1, self.every):
                if time.perf_counter() - self.t0 > b.max_seconds:
                    last = step
                    self.exhausted = True
                    break
        self.nodes = last
        return not self.exhausted

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self.t0
