"""Shared reference implementations for oracle-style cross-checks.

These deliberately avoid the package's bitmask machinery: families are
frozensets of frozensets of elements, so any agreement with the fast
paths is meaningful.
"""

from itertools import combinations

import pytest

from frankl_lab import SetFamily


def to_setset(family: SetFamily) -> frozenset:
    return frozenset(frozenset(s) for s in family.sets())


def closure_reference(sets) -> frozenset:
    """Fixed point of pairwise unions, computed naively on frozensets."""
    current = set(frozenset(s) for s in sets)
    while True:
        new = {a | b for a in current for b in current} - current
        if not new:
            return frozenset(current)
        current |= new


def is_union_closed_reference(sets) -> bool:
    fam = set(frozenset(s) for s in sets)
    return all((a | b) in fam for a in fam for b in fam)


def all_subfamilies(n: int):
    """Every subfamily of the power set of [n] as a tuple of frozensets."""
    universe = list(range(1, n + 1))
    all_sets = [frozenset(c) for r in range(n + 1) for c in combinations(universe, r)]
    for size in range(len(all_sets) + 1):
        yield from combinations(all_sets, size)


@pytest.fixture
def example_family() -> SetFamily:
    """The running example: {{1},{2,3},{1,2,3},{1,2,3,4}} on [4]."""
    return SetFamily.from_sets(4, [(1,), (2, 3), (1, 2, 3), (1, 2, 3, 4)])


def include_allowed_reference(n: int, members, mask: int, cap: int) -> bool:
    """May the branch-and-bound kernel add `mask` to the family `members`
    (masks on [n]) under the frequency cap `cap`?  The member-by-member scan
    of the kernel before it kept tables: every element of the mask lies in
    fewer than `cap` members, and the union of the mask with each member is
    a member."""
    def elements(m):
        return frozenset(e for e in range(n) if m >> e & 1)

    family = {elements(t) for t in members}
    added = elements(mask)
    return (all(sum(e in s for s in family) < cap for e in added)
            and all(added | s in family for s in family))
