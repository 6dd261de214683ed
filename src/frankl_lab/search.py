"""Exact computation of the extremal functions f(n,a) and g(n,m).

f(n,a) = maximum size of a union-closed family on [n] in which every
element lies in at most a members.  g(n,m) = minimum, over union-closed
families of exactly m sets on [n], of the most frequent element's count.

This module holds only the engines and their result type, SearchResult.
Run limits live in `budget`; family predicates and constructors (closure
tests, frequency counts, the n <= 4 enumeration, seeded random families)
live in `families`.

Three engines:

  exhaustive   every union-closed family, n <= 4 only, read from
               `families.enumerate_union_closed`.  One table per n is
               cached and answers every (a) and (m) query, with
               lexicographically smallest witnesses among the optima.
  depth-first  one branch-and-bound kernel, _depth_first, for f and g at
               n >= 5, over masks ordered by descending popcount, so any
               union of included sets lies strictly earlier in the order
               and closure is enforced incrementally.  Each node includes
               its mask (if the family stays closed and no element
               frequency passes a cap), then excludes it.  A per-node visit
               function carries each caller's incumbent and bound:
                 f  cap a; prunes on incumbent size plus remaining
                    capacity;
                 g  cap one below the incumbent; prunes on a lower bound
                    from the frequency slots needed.
               The kernel also cuts isomorphs: at the first mask of each
               popcount level, a partial family isomorphic under S_n to
               one already explored there is cut (see _IsomorphRejector).
  complement   for g when few sets are missing (2^n - m <= n): choose the
               missing masks instead of the present ones, depth-first in
               ascending (popcount, value) order.  A choice is admissible
               iff no missing mask is a union of two present ones; a
               missing U with two present (|U|-1)-subsets is cut as soon
               as it is chosen, and a complete choice is tested by the
               equivalent cover rule: no missing U != 0 is covered by its
               present proper subsets.  The objective is 2^(n-1) minus the
               least-covered element's cover count.

Witness policy: exhaustive scans and the complement search return the
lexicographically smallest optimal family; the kernel's f and g searches
return the first optimum met in its fixed order (the size-based prune
discards later ties by design, and an isomorph that is cut cannot hold a
strictly better family).  All are deterministic run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .budget import NO_BUDGET, Meter, SearchBudget
from .families import (EXHAUSTIVE_MAX_N, MAX_GROUND_SIZE, SetFamily, complement,
                       enumerate_union_closed, family_to_json, is_union_closed, max_frequency)


@dataclass(frozen=True)
class SearchResult:
    """f(n,a) or g(n,m) with a witness.  `arg` is the fixed argument and
    `arg_name` its JSON key: "a" for f, "m" for g."""

    n: int
    arg_name: str
    arg: int
    value: int
    witness: SetFamily
    proven_optimal: bool
    nodes: int
    seconds: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            self.arg_name: self.arg,
            "value": self.value,
            "proven_optimal": self.proven_optimal,
            "witness": family_to_json(self.witness),
            "nodes": self.nodes,
            "seconds": self.seconds,
        }


# ---------------------------------------------------------------------------
# exhaustive tables, n <= 4

@lru_cache(maxsize=None)
def _exhaustive_tables(n: int) -> tuple[dict, dict]:
    """Best families per max-frequency class and per exact size, n <= 4.

    Returns (by_freq, by_size):
      by_freq[mf] = (largest size among families with max frequency mf,
                     lexicographically smallest such witness mask tuple)
      by_size[m]  = (smallest max frequency among families of size m,
                     lexicographically smallest such witness mask tuple)
    """
    by_freq: dict[int, tuple[int, tuple[int, ...]]] = {}
    by_size: dict[int, tuple[int, tuple[int, ...]]] = {}
    for family in enumerate_union_closed(n):
        size, mf, masks = len(family), max_frequency(family).count, family.masks
        cur = by_freq.get(mf)
        if cur is None or size > cur[0] or (size == cur[0] and masks < cur[1]):
            by_freq[mf] = (size, masks)
        if size:
            curs = by_size.get(size)
            if curs is None or mf < curs[0] or (mf == curs[0] and masks < curs[1]):
                by_size[size] = (mf, masks)
    return by_freq, by_size


def _exhaustive_f(n: int, a: int) -> tuple[int, tuple[int, ...]]:
    by_freq, _ = _exhaustive_tables(n)
    best_size = -1
    best_masks: tuple[int, ...] = ()
    for mf, (size, masks) in by_freq.items():
        if mf <= a and (size > best_size or (size == best_size and masks < best_masks)):
            best_size, best_masks = size, masks
    return best_size, best_masks


# ---------------------------------------------------------------------------
# the depth-first kernel

_BB_MAX_N = 11  # the 4-bit colour-profile digits of _IsomorphRejector need n < 16
# Relabellings a canonical form may try.  7! admits every boundary at
# n <= 7; a boundary over the cap is not canonicalised, which is sound.
_RELABEL_CAP = 5040


def _branch_order(n: int) -> list[int]:
    """Masks by descending popcount, then ascending value; the empty set
    lands last, and S|T of two incomparable masks precedes both."""
    return sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))


class _IsomorphRejector:
    """Isomorph rejection at the popcount-level boundaries of the branch order.

    At the first mask of popcount k (n-1 >= k >= 2) every mask of larger
    popcount is decided and the undecided masks, those of popcount <= k,
    form a union of S_n-orbits.  From there on feasibility, the slot
    count, the running maximum and the decisions of the f and g visit
    functions of _depth_first are S_n-invariant, and the incumbent only
    improves, so a partial family isomorphic to one already explored at
    the same boundary cannot beat the incumbent; the kernel prunes it
    (the node still counts against the budget).

    Isomorphism is decided by a canonical form: the least sorted image of
    the family over the leaves of an individualise-and-refine search
    (McKay, "Isomorph-free exhaustive generation", 1998).  Colour
    refinement splits the elements by degree and by the sizes of the
    members containing them, repeated until stable; then the elements of
    the first class left with several members are individualised in
    turn, one per twin class, and refined again, down to a labelling.
    The leaves are relabellings that respect the first refined classes,
    so when those admit more than _RELABEL_CAP relabellings the boundary
    is not canonicalised at all.

    A member's colour profile, the multiset of its elements' colours, is
    one integer, the sum of 1 << 4*colour[e] over its elements.  Colours
    are ranks below n and a colour occurs at most n times in a member, so
    the 4-bit digits never carry while n <= _BB_MAX_N = 11 < 16: equal
    profiles are exactly equal multisets.
    """

    __slots__ = ("n", "elems", "boundary", "seen")

    def __init__(self, n: int, order: list[int]):
        self.n = n
        self.elems = [tuple(e for e in range(n) if mask >> e & 1) for mask in range(1 << n)]
        self.boundary = [False] * len(order)
        for i, mask in enumerate(order):
            k = mask.bit_count()
            if 2 <= k < n and order[i - 1].bit_count() != k:
                self.boundary[i] = True
        self.seen: set[tuple[int, tuple[int, ...]]] = set()

    def repeated(self, i: int, included: list[int]) -> bool:
        """At boundary i: has an isomorph of `included` been seen here?"""
        form = self._canonical_form(included)
        if form is None:
            return False
        key = (i, form)
        if key in self.seen:
            return True
        self.seen.add(key)
        return False

    def _canonical_form(self, masks: list[int]) -> Optional[tuple[int, ...]]:
        """Least sorted image of the family over the leaves of an
        individualise-and-refine search, or None when the refined element
        classes admit more than _RELABEL_CAP relabellings."""
        n = self.n
        members = [self.elems[mask] for mask in masks]
        colour, count = self._refine(members, [0] * n, 1)
        sizes = [0] * count
        for c in colour:
            sizes[c] += 1
        if math.prod([math.factorial(s) for s in sizes]) > _RELABEL_CAP:
            return None
        twin = self._twins(masks, colour)
        best: Optional[list[int]] = None
        stack = [(colour, count)]
        while stack:
            colour, count = stack.pop()
            if count == n:  # discrete: colour[e] is the new label of e
                bit = [1 << c for c in colour]
                image = sorted([sum(map(bit.__getitem__, es)) for es in members])
                if best is None or image < best:
                    best = image
                continue
            sizes = [0] * count
            for c in colour:
                sizes[c] += 1
            cell = next(c for c in range(count) if sizes[c] > 1)
            # individualise each element of the first non-singleton cell,
            # one per twin class: swapping twins maps one subtree onto the
            # other.  e keeps colour `cell`, its cell-mates move up by one.
            tried = set()
            for e in range(n):
                if colour[e] == cell and twin[e] not in tried:
                    tried.add(twin[e])
                    split = [c + (c > cell or (c == cell and x != e))
                             for x, c in enumerate(colour)]
                    stack.append(self._refine(members, split, count + 1))
        return tuple(best)

    def _refine(self, members: list[tuple[int, ...]], colour: list[int],
                count: int) -> tuple[list[int], int]:
        """Colour refinement: split the element classes by the multiset of
        colour profiles of the members containing each element, until no
        class splits.  `colour` holds ranks 0..count-1; so does the result,
        returned with its class count, and relabelling the input relabels
        the output the same way."""
        n = self.n
        while True:
            weight = [1 << (c << 2) for c in colour]
            signature: list[list[int]] = [[] for _ in colour]
            for es in members:
                profile = sum(map(weight.__getitem__, es))
                for e in es:
                    signature[e].append(profile)
            for c, s in zip(colour, signature):
                s.sort()
                s.append(c)  # keep the old colour: the new classes refine the old
            keys = [tuple(s) for s in signature]
            ranked = sorted(set(keys))
            if len(ranked) == count:
                return colour, count
            rank = {k: r for r, k in enumerate(ranked)}
            colour = [rank[k] for k in keys]
            count = len(ranked)
            if count == n:
                return colour, count

    def _twins(self, masks: list[int], colour: list[int]) -> list[int]:
        """twin[e]: the least element whose transposition with e maps the
        family onto itself (e itself if there is none)."""
        family = set(masks)
        twin = list(range(self.n))
        for x in range(self.n):
            for y in range(x + 1, self.n):
                if twin[y] != y or colour[x] != colour[y]:
                    continue
                swap = (1 << x) | (1 << y)
                if all((mask & swap) in (0, swap) or mask ^ swap in family for mask in masks):
                    twin[y] = twin[x]
        return twin


def _depth_first(n: int, budget: SearchBudget, visit) -> Meter:
    """Depth-first search over the union-closed families on [n].

    Node i decides order[i] of _branch_order(n): first it includes the
    mask, if the family stays union-closed (every union of two members
    lies earlier in the order, so one test against the members suffices)
    and no element frequency exceeds the cap; then it excludes it.  Each
    node, a leaf i == 2^n included, counts against the budget and calls
    visit(i, size, used, top, included): `included` holds the members in
    branch order, `used` is the sum and `top` the maximum of the element
    frequencies.  visit does the caller's incumbent and bound bookkeeping
    and returns the frequency cap for including order[i], or None to cut
    the node; it must return None at a leaf.  A node that survives visit
    is also cut at a boundary where an isomorph was seen (see
    _IsomorphRejector).  That cut is sound only because visit's return
    value depends on `included` only up to a relabelling of [n], and any
    incumbent it keeps only improves.

    The nodes wait on an explicit stack of frames (i, size, used, top), so
    a path of 2^n + 1 nodes needs no raised recursion limit.  Expanding a
    node pushes its exclude frame, a None marker that undoes the include,
    then its include frame.  Once the budget has run out, each frame left
    is still counted, then dropped.
    Returns the meter: node count, seconds, and whether the budget ran out.
    """
    if n > _BB_MAX_N:
        raise ValueError(f"branch-and-bound search capped at n = {_BB_MAX_N}, got {n}")
    order = _branch_order(n)
    iso = _IsomorphRejector(n, order)
    elems = [iso.elems[mask] for mask in order]
    boundary = iso.boundary
    meter = Meter(budget, every=4096)
    freq = [0] * n
    included: list[int] = []
    inc_bits = 0
    stack: list[Optional[tuple[int, int, int, int]]] = [(0, 0, 0, 0)]
    while stack:
        frame = stack.pop()
        if frame is None:
            mask = included.pop()
            inc_bits ^= 1 << mask
            for e in iso.elems[mask]:
                freq[e] -= 1
            continue
        i, size, used, top = frame
        if not meter.tick():
            continue
        cap = visit(i, size, used, top, included)
        if cap is None or (boundary[i] and iso.repeated(i, included)):
            continue
        stack.append((i + 1, size, used, top))
        mask, es = order[i], elems[i]
        feasible = top < cap or all(freq[e] < cap for e in es)  # top bounds every freq[e]
        if feasible:
            for t in included:
                u = mask | t
                if u != t and not (inc_bits >> u) & 1:
                    feasible = False
                    break
        if feasible:
            new_top = top
            for e in es:
                freq[e] += 1
                if freq[e] > new_top:
                    new_top = freq[e]
            included.append(mask)
            inc_bits |= 1 << mask
            stack.append(None)
            stack.append((i + 1, size + 1, used + len(es), new_top))
    return meter


# ---------------------------------------------------------------------------
# branch and bound for f, n >= 5


def _bb_f(n: int, a: int, budget: SearchBudget) -> SearchResult:
    length = 1 << n
    # seed from the exhaustive n = 4 table: a family on [4] is a family on
    # [n] with unchanged frequencies
    best_size, best_masks = _exhaustive_f(EXHAUSTIVE_MAX_N, min(a, 1 << EXHAUSTIVE_MAX_N))

    def visit(i, size, used, top, included):
        nonlocal best_size, best_masks
        if size > best_size:
            best_size, best_masks = size, tuple(sorted(included))
        if i == length:
            return None
        # the empty set sits at the end of the order and costs no slots
        if size + 1 + min(length - i - 1, n * a - used) <= best_size:
            return None
        return a

    meter = _depth_first(n, budget, visit)
    witness = SetFamily(n, best_masks)
    return SearchResult(n, "a", a, best_size, witness, not meter.exhausted, meter.nodes,
                        meter.seconds)


def compute_f(n: int, a: int, budget: SearchBudget = NO_BUDGET) -> SearchResult:
    """Exact f(n,a) with witness; proven_optimal is False only on budget stop.

    a = 0 is accepted (the only admissible members are none or the empty
    set, so f(n,0) = 1); it arises from the f(n, 2^(n-1)-1) theorem at n=1.
    """
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    if a < 0:
        raise ValueError(f"frequency cap must be >= 0, got {a}")
    meter = Meter()
    if a >= 1 << (n - 1):
        # the full power set is feasible and no family can be larger
        return SearchResult(n, "a", a, 1 << n, SetFamily.power_set(n), True, 1,
                            meter.seconds)
    if n <= EXHAUSTIVE_MAX_N:
        value, masks = _exhaustive_f(n, a)
        return SearchResult(n, "a", a, value, SetFamily(n, masks), True, 1 << (1 << n),
                            meter.seconds)
    result = _bb_f(n, a, budget)
    _validate_f_witness(result)
    return result


def _validate_f_witness(result: SearchResult) -> None:
    w = result.witness
    if len(w) != result.value or not is_union_closed(w) or max_frequency(w).count > result.arg:
        raise AssertionError(f"search produced an invalid witness for f({result.n},{result.arg})")


# ---------------------------------------------------------------------------
# g(n, m)


def _g_by_complement(n: int, m: int, budget: SearchBudget) -> SearchResult:
    """Choose the k = 2^n - m missing masks directly (k <= n).

    Depth-first over the masks in ascending (popcount, value) order.  A
    missing U with |U| >= 2 is pruned as soon as two of its
    (|U|-1)-subsets are present, since their union is U; all of those
    subsets come before U in the order, so the prune is exact.  Each
    complete choice is a candidate, checked by _complement_closed.  The
    incumbent starts at the top slice, the first candidate met, so a
    budget stop before it still returns a family.
    """
    full = 1 << n
    k = full - m
    half = 1 << (n - 1)
    order = sorted(range(full), key=lambda x: (x.bit_count(), x))
    elems = [[e for e in range(n) if u >> e & 1] for u in order]
    below = [[u ^ (1 << e) for e in es] for u, es in zip(order, elems)]  # (|U|-1)-subsets
    meter = Meter(budget, every=4096)
    top = SetFamily(n, _top_slice_family(n, m))
    best_value = max_frequency(top).count
    best_missing = complement(top).masks
    missing: list[int] = []
    mset: set[int] = set()
    cover = [0] * n  # cover[e]: the missing masks that contain e

    def rec(start: int) -> None:
        nonlocal best_value, best_missing
        if len(missing) == k:
            if not meter.tick() or not _complement_closed(missing, mset):
                return
            # among equal values the lexicographically smallest family is
            # the one whose sorted missing tuple is largest
            key = tuple(sorted(missing))
            value = half - min(cover)
            if value < best_value or (value == best_value and key > best_missing):
                best_value, best_missing = value, key
            return
        for j in range(start, full - (k - len(missing)) + 1):
            size = len(elems[j])
            # keeping U's (|U|-1)-subsets to at most one present takes
            # |U| - 1 of them missing; sizes only grow from here
            if size - 1 > len(missing) or meter.exhausted:
                return
            if size >= 2 and size - len(mset.intersection(below[j])) >= 2:
                continue
            u = order[j]
            missing.append(u)
            mset.add(u)
            for e in elems[j]:
                cover[e] += 1
            rec(j + 1)
            for e in elems[j]:
                cover[e] -= 1
            mset.discard(u)
            missing.pop()

    rec(0)
    del rec  # the closure refers to itself: free it and its search state now, not at a GC pass
    witness = SetFamily(n, tuple(x for x in range(full) if x not in best_missing))
    return SearchResult(n, "m", m, best_value, witness, not meter.exhausted, meter.nodes,
                        meter.seconds)


def _complement_closed(missing: list[int], mset: set[int]) -> bool:
    """Is the power set minus `missing` (also given as the set `mset`)
    union-closed?  Not iff some missing U != 0 is covered by its present
    proper subsets: a missing S | T of present S and T is, and adding a
    cover up one subset at a time passes from a present union to a
    missing one, the union of two present sets."""
    for u in missing:
        covered = 0
        s = u
        while s:
            s = (s - 1) & u
            if s not in mset:
                covered |= s
        if u and covered == u:
            return False
    return True


def _top_slice_family(n: int, m: int) -> tuple[int, ...]:
    """A union-closed family of exactly m sets: drop the 2^n - m smallest
    masks in (popcount, value) order from the power set.  Dropping always
    removes an inclusion-minimal member, which preserves closure."""
    drop = sorted(range(1 << n), key=lambda x: (x.bit_count(), x))[: (1 << n) - m]
    dropped = set(drop)
    return tuple(x for x in range(1 << n) if x not in dropped)


def _bb_g(n: int, m: int, budget: SearchBudget) -> SearchResult:
    length = 1 << n
    best_masks = _top_slice_family(n, m)
    best_value = max_frequency(SetFamily(n, best_masks)).count

    def visit(i, size, used, top, included):
        nonlocal best_value, best_masks
        if size == m:
            if top < best_value:
                best_value, best_masks = top, tuple(sorted(included))
            return None
        if i == length or size + (length - i) < m:
            return None
        # the empty set sits at the end of the order, so before a leaf it
        # is still available and one of the sets still needed costs no slots
        if max(top, -(-(used + max(0, m - size - 1)) // n)) >= best_value:
            return None
        return best_value - 1

    meter = _depth_first(n, budget, visit)
    witness = SetFamily(n, best_masks)
    return SearchResult(n, "m", m, best_value, witness, not meter.exhausted, meter.nodes,
                        meter.seconds)


def compute_g(n: int, m: int, budget: SearchBudget = NO_BUDGET) -> SearchResult:
    """Exact g(n,m) with witness.

    Union-closed families of every size 1 <= m <= 2^n exist (peel
    inclusion-minimal members off the power set), so there is no
    infeasible case inside that range.
    """
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    if not 1 <= m <= 1 << n:
        raise ValueError(f"family size must be in [1, 2^{n}], got {m}")
    if (1 << n) - m <= n:
        result = _g_by_complement(n, m, budget)
    elif n <= EXHAUSTIVE_MAX_N:
        meter = Meter()
        _, by_size = _exhaustive_tables(n)
        value, masks = by_size[m]
        result = SearchResult(n, "m", m, value, SetFamily(n, masks), True, 1 << (1 << n),
                              meter.seconds)
    else:
        result = _bb_g(n, m, budget)
    _validate_g_witness(result)
    return result


def _validate_g_witness(result: SearchResult) -> None:
    w = result.witness
    if (len(w) != result.arg or not is_union_closed(w)
            or max_frequency(w).count != result.value):
        raise AssertionError(f"search produced an invalid witness for g({result.n},{result.arg})")
