"""Exact computation of the extremal functions f(n,a) and g(n,m).

f(n,a) = maximum size of a union-closed family on [n] in which every
element lies in at most a members.  g(n,m) = minimum, over union-closed
families of exactly m sets on [n], of the most frequent element's count.

Three engines:

  exhaustive   all 2^(2^n) subfamilies, n <= 4 only.  A single scan per n
               is cached and answers every (a) and (m) query, with
               lexicographically smallest witnesses among the optima.
  depth-first  one branch-and-bound kernel, _depth_first, for f and g at
               n >= 5, over masks ordered by descending popcount, so any
               union of included sets lies strictly earlier in the order
               and closure is enforced incrementally.  Each node includes
               its mask (if the family stays closed and no element
               frequency passes a cap), then excludes it.  A per-node visit
               function carries each caller's incumbent and bound:
                 f  cap a; prunes on incumbent size plus remaining
                    capacity and, for n >= 7, stops at the certified upper
                    bound fbar(n,a);
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
               as it is chosen, and every complete choice is checked in
               full.  The objective is 2^(n-1) minus the least-covered
               element's cover count.

Witness policy: exhaustive scans and the complement search return the
lexicographically smallest optimal family; the kernel's f and g searches
return the first optimum met in its fixed order (the size-based prune
discards later ties by design, and an isomorph that is cut cannot hold a
strictly better family).  All are deterministic run to run.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from . import certificate as _certificate
from .families import (SetFamily, is_union_closed, max_frequency, popcount,
                       union_closure)


@dataclass(frozen=True)
class SearchBudget:
    """Optional node and wall-clock limits; absent means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


NO_BUDGET = SearchBudget()


class _Ticker:
    """Budget bookkeeping shared by the search loops."""

    __slots__ = ("budget", "nodes", "t0", "exhausted")

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.nodes = 0
        self.t0 = time.perf_counter()
        self.exhausted = False

    def tick(self) -> bool:
        """Count one node; True while within budget."""
        self.nodes += 1
        b = self.budget
        if b.max_nodes is not None and self.nodes > b.max_nodes:
            self.exhausted = True
        elif b.max_seconds is not None and self.nodes % 4096 == 0:
            if time.perf_counter() - self.t0 > b.max_seconds:
                self.exhausted = True
        return not self.exhausted

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self.t0


@dataclass(frozen=True)
class FResult:
    n: int
    a: int
    value: int
    witness: SetFamily
    proven_optimal: bool
    nodes: int
    seconds: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "value": self.value,
            "proven_optimal": self.proven_optimal,
            "witness": {"n": self.witness.n, "masks": list(self.witness.masks)},
            "nodes": self.nodes,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class GResult:
    n: int
    m: int
    value: int
    witness: SetFamily
    proven_optimal: bool
    nodes: int
    seconds: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "value": self.value,
            "proven_optimal": self.proven_optimal,
            "witness": {"n": self.witness.n, "masks": list(self.witness.masks)},
            "nodes": self.nodes,
            "seconds": self.seconds,
        }


# ---------------------------------------------------------------------------
# exhaustive enumeration, n <= 4

EXHAUSTIVE_MAX_N = 4


@lru_cache(maxsize=None)
def _union_closed_bitsets(n: int) -> tuple[int, ...]:
    """Every union-closed subfamily of 2^[n], encoded as a 2^n-bit integer
    (bit m set iff mask m is a member), ascending.  n <= 4 only."""
    full = 1 << n
    out = []
    for bits in range(1 << full):
        g = bits
        masks = []
        while g:
            low = g & -g
            masks.append(low.bit_length() - 1)
            g ^= low
        closed = True
        for i in range(len(masks)):
            mi = masks[i]
            for j in range(i + 1, len(masks)):
                if not (bits >> (mi | masks[j])) & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append(bits)
    return tuple(out)


def _family_from_bitset(n: int, bits: int) -> SetFamily:
    masks = []
    while bits:
        low = bits & -bits
        masks.append(low.bit_length() - 1)
        bits ^= low
    return SetFamily(n, tuple(masks))


def enumerate_union_closed(n: int) -> Iterator[SetFamily]:
    """Yield every union-closed subfamily of 2^[n] once, in mask-bitset order.

    Guarded to n <= 4: there are 2^(2^n) candidates to sift.
    """
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}, got {n}")
    for bits in _union_closed_bitsets(n):
        yield _family_from_bitset(n, bits)


def _bitset_stats(n: int, bits: int) -> tuple[int, int]:
    """(size, max element frequency) of a family bitset."""
    size = 0
    freq = [0] * n
    g = bits
    while g:
        low = g & -g
        mask = low.bit_length() - 1
        g ^= low
        size += 1
        while mask:
            lo = mask & -mask
            freq[lo.bit_length() - 1] += 1
            mask ^= lo
    return size, (max(freq) if freq else 0)


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
    for bits in _union_closed_bitsets(n):
        size, mf = _bitset_stats(n, bits)
        masks = tuple(_family_from_bitset(n, bits).masks)
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

_BB_MAX_N = 11  # recursion depth is 2^n + O(1)
# Relabellings a canonical form may try.  7! admits every boundary at
# n <= 7; a boundary over the cap is not canonicalised, which is sound.
_RELABEL_CAP = 5040


def _branch_order(n: int) -> list[int]:
    """Masks by descending popcount, then ascending value; the empty set
    lands last, and S|T of two incomparable masks precedes both."""
    return sorted(range(1 << n), key=lambda m: (-popcount(m), m))


@contextmanager
def _recursion_depth(depth: int) -> Iterator[None]:
    """Raise the interpreter's recursion limit to fit `depth` nested
    calls for the duration of a search, then restore it."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, depth + 1000))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


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
    """

    __slots__ = ("n", "elems", "boundary", "seen")

    def __init__(self, n: int, order: list[int]):
        self.n = n
        self.elems = [tuple(e for e in range(n) if mask >> e & 1) for mask in range(1 << n)]
        self.boundary = [False] * len(order)
        for i, mask in enumerate(order):
            k = popcount(mask)
            if 2 <= k < n and popcount(order[i - 1]) != k:
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
        n, elems = self.n, self.elems
        colour = self._refine(masks, [0] * n)
        sizes = [colour.count(c) for c in range(max(colour) + 1)]
        if math.prod(math.factorial(s) for s in sizes) > _RELABEL_CAP:
            return None
        twin = self._twins(masks, colour)
        best: Optional[list[int]] = None
        stack = [colour]
        while stack:
            colour = stack.pop()
            cell = next((c for c in sorted(colour) if colour.count(c) > 1), None)
            if cell is None:  # discrete: colour[e] is the new label of e
                image = sorted([sum([1 << colour[e] for e in elems[mask]]) for mask in masks])
                if best is None or image < best:
                    best = image
                continue
            # individualise each element of the first non-singleton cell,
            # one per twin class: swapping twins maps one subtree onto the other
            tried = set()
            for e in range(n):
                if colour[e] == cell and twin[e] not in tried:
                    tried.add(twin[e])
                    split = [2 * c + (c == cell and x != e) for x, c in enumerate(colour)]
                    stack.append(self._refine(masks, split))
        return tuple(best)

    def _refine(self, masks: list[int], colour: list[int]) -> list[int]:
        """Colour refinement: split the element classes by the multiset of
        colour profiles of the members containing each element, until no
        class splits.  Colours come back as ranks 0.. of their signatures,
        so relabelling the input relabels the output the same way."""
        elems = self.elems
        count = len(set(colour))
        while True:
            profiles: list[list[tuple[int, ...]]] = [[] for _ in colour]
            for mask in masks:
                profile = tuple(sorted([colour[e] for e in elems[mask]]))
                for e in elems[mask]:
                    profiles[e].append(profile)
            signature = [(c, tuple(sorted(p))) for c, p in zip(colour, profiles)]
            rank = {s: r for r, s in enumerate(sorted(set(signature)))}
            colour = [rank[s] for s in signature]
            if len(rank) == count or len(rank) == self.n:
                return colour
            count = len(rank)

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


class _Halt(Exception):
    """Raised by a visit function to end the search at once."""


def _depth_first(n: int, budget: SearchBudget, visit) -> _Ticker:
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
    the node; it must return None at a leaf, and may raise _Halt to end
    the search.  A node that survives visit is also cut at a boundary
    where an isomorph was seen (see _IsomorphRejector).  That cut is sound
    only because visit's return value depends on `included` only up to a
    relabelling of [n], and any incumbent it keeps only improves.
    Returns the ticker: node count, seconds, and whether the budget ran out.
    """
    if n > _BB_MAX_N:
        raise ValueError(f"branch-and-bound search capped at n = {_BB_MAX_N}, got {n}")
    order = _branch_order(n)
    iso = _IsomorphRejector(n, order)
    elems = [iso.elems[mask] for mask in order]
    boundary = iso.boundary
    tick = _Ticker(budget)
    freq = [0] * n
    included: list[int] = []
    inc_bits = 0

    def rec(i: int, size: int, used: int, top: int) -> None:
        nonlocal inc_bits
        if not tick.tick():
            return
        cap = visit(i, size, used, top, included)
        if cap is None or (boundary[i] and iso.repeated(i, included)):
            return
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
            rec(i + 1, size + 1, used + len(es), new_top)
            inc_bits &= ~(1 << mask)
            included.pop()
            for e in es:
                freq[e] -= 1
        rec(i + 1, size, used, top)

    with _recursion_depth(len(order)):
        try:
            rec(0, 0, 0, 0)
        except _Halt:
            pass
    del rec  # the closure refers to itself: free it and its search state now, not at a GC pass
    return tick


# ---------------------------------------------------------------------------
# branch and bound for f, n >= 5


def _seed_incumbent_f(n: int, a: int) -> tuple[int, tuple[int, ...]]:
    """Lower bound from the exhaustive n=4 table; any family on [4] is a
    family on [n] for n >= 4 with unchanged frequencies."""
    return _exhaustive_f(EXHAUSTIVE_MAX_N, min(a, 1 << EXHAUSTIVE_MAX_N))


def _bb_f(n: int, a: int, budget: SearchBudget) -> FResult:
    length = 1 << n
    best_size, best_masks = _seed_incumbent_f(n, a)
    # an improvement that meets the certified bound ends the search (the
    # n = 4 seed itself never meets it at n <= 11)
    cert_cap = math.floor(_certificate.bar_f(n, a)) if n >= 7 and a >= 1 else None

    def visit(i, size, used, top, included):
        nonlocal best_size, best_masks
        if size > best_size:
            best_size, best_masks = size, tuple(sorted(included))
            if cert_cap is not None and best_size >= cert_cap:
                raise _Halt
        if i == length:
            return None
        # the empty set sits at the end of the order and costs no slots
        if size + 1 + min(length - i - 1, n * a - used) <= best_size:
            return None
        return a

    tick = _depth_first(n, budget, visit)
    witness = SetFamily(n, best_masks)
    return FResult(n, a, best_size, witness, not tick.exhausted, tick.nodes, tick.seconds)


def compute_f(n: int, a: int, budget: SearchBudget = NO_BUDGET) -> FResult:
    """Exact f(n,a) with witness; proven_optimal is False only on budget stop.

    a = 0 is accepted (the only admissible members are none or the empty
    set, so f(n,0) = 1); it arises from the f(n, 2^(n-1)-1) theorem at n=1.
    """
    if n < 1:
        raise ValueError(f"ground size must be >= 1, got {n}")
    if a < 0:
        raise ValueError(f"frequency cap must be >= 0, got {a}")
    t0 = time.perf_counter()
    if a >= 1 << (n - 1):
        # the full power set is feasible and no family can be larger
        return FResult(n, a, 1 << n, SetFamily.power_set(n), True, 1,
                       time.perf_counter() - t0)
    if n <= EXHAUSTIVE_MAX_N:
        value, masks = _exhaustive_f(n, a)
        witness = SetFamily(n, masks)
        nodes = 1 << (1 << n)
        return FResult(n, a, value, witness, True, nodes, time.perf_counter() - t0)
    result = _bb_f(n, a, budget)
    _validate_f_witness(result, a)
    return result


def _validate_f_witness(result: FResult, a: int) -> None:
    w = result.witness
    if len(w) != result.value or not is_union_closed(w) or max_frequency(w).count > a:
        raise AssertionError(f"search produced an invalid witness for f({result.n},{a})")


# ---------------------------------------------------------------------------
# g(n, m)


def _cover_counts(n: int, missing: tuple[int, ...]) -> list[int]:
    cover = [0] * n
    for u in missing:
        m = u
        while m:
            low = m & -m
            cover[low.bit_length() - 1] += 1
            m ^= low
    return cover


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _complement_is_union_closed(n: int, missing_set: frozenset[int]) -> bool:
    """Is 2^[n] minus the given masks union-closed?

    Fails iff some missing mask U equals S | T for present S, T; it
    suffices to scan S over submasks of U and ask for any present T with
    U \\ S <= T <= U.
    """
    for u in missing_set:
        for s in _submasks(u):
            if s == u or s in missing_set:
                continue
            rest = u & ~s
            for w in _submasks(s):
                if (rest | w) not in missing_set:
                    return False  # forced union: S | (rest|w) = u, both present
    return True


def _g_by_complement(n: int, m: int, budget: SearchBudget) -> GResult:
    """Choose the k = 2^n - m missing masks directly (k <= n).

    Depth-first over the masks in ascending (popcount, value) order.  A
    missing U with |U| >= 2 is pruned as soon as two of its
    (|U|-1)-subsets are present, since their union is U; all of those
    subsets come before U in the order, so the prune is exact.  Each
    complete choice is a candidate, checked for closure in full.
    """
    full = 1 << n
    k = full - m
    half = 1 << (n - 1)
    order = sorted(range(full), key=lambda x: (popcount(x), x))
    sizes = [popcount(u) for u in order]
    below = [[u ^ (1 << e) for e in range(n) if u >> e & 1] for u in order]  # (|U|-1)-subsets
    tick = _Ticker(budget)
    best_value: Optional[int] = None
    best_missing: tuple[int, ...] = ()
    missing: list[int] = []
    mset: set[int] = set()

    def rec(start: int) -> None:
        nonlocal best_value, best_missing
        if len(missing) == k:
            if not tick.tick() or not _complement_is_union_closed(n, frozenset(mset)):
                return
            value = half - min(_cover_counts(n, tuple(missing)))
            # among equal values the lexicographically smallest family is
            # the one whose sorted missing tuple is largest
            key = tuple(sorted(missing))
            if (best_value is None or value < best_value
                    or (value == best_value and key > best_missing)):
                best_value, best_missing = value, key
            return
        for j in range(start, full - (k - len(missing)) + 1):
            size = sizes[j]
            # keeping U's (|U|-1)-subsets to at most one present takes
            # |U| - 1 of them missing; sizes only grow from here
            if size - 1 > len(missing) or tick.exhausted:
                return
            if size >= 2 and size - len(mset.intersection(below[j])) >= 2:
                continue
            u = order[j]
            missing.append(u)
            mset.add(u)
            rec(j + 1)
            mset.discard(u)
            missing.pop()

    rec(0)
    del rec  # as in _depth_first: break the closure's reference to itself
    if best_value is None:
        raise AssertionError(f"no union-closed family of size {m} on [{n}]")
    witness = SetFamily(n, tuple(x for x in range(full) if x not in best_missing))
    return GResult(n, m, best_value, witness, not tick.exhausted, tick.nodes, tick.seconds)


def _top_slice_family(n: int, m: int) -> tuple[int, ...]:
    """A union-closed family of exactly m sets: drop the 2^n - m smallest
    masks in (popcount, value) order from the power set.  Dropping always
    removes an inclusion-minimal member, which preserves closure."""
    drop = sorted(range(1 << n), key=lambda x: (popcount(x), x))[: (1 << n) - m]
    dropped = set(drop)
    return tuple(x for x in range(1 << n) if x not in dropped)


def _bb_g(n: int, m: int, budget: SearchBudget) -> GResult:
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

    tick = _depth_first(n, budget, visit)
    witness = SetFamily(n, best_masks)
    return GResult(n, m, best_value, witness, not tick.exhausted, tick.nodes, tick.seconds)


def compute_g(n: int, m: int, budget: SearchBudget = NO_BUDGET) -> GResult:
    """Exact g(n,m) with witness.

    Union-closed families of every size 1 <= m <= 2^n exist (peel
    inclusion-minimal members off the power set), so there is no
    infeasible case inside that range.
    """
    if n < 1:
        raise ValueError(f"ground size must be >= 1, got {n}")
    if not 1 <= m <= 1 << n:
        raise ValueError(f"family size must be in [1, 2^{n}], got {m}")
    t0 = time.perf_counter()
    if (1 << n) - m <= n:
        result = _g_by_complement(n, m, budget)
    elif n <= EXHAUSTIVE_MAX_N:
        _, by_size = _exhaustive_tables(n)
        value, masks = by_size[m]
        nodes = 1 << (1 << n)
        result = GResult(n, m, value, SetFamily(n, masks), True, nodes,
                         time.perf_counter() - t0)
    else:
        result = _bb_g(n, m, budget)
    _validate_g_witness(result)
    return result


def _validate_g_witness(result: GResult) -> None:
    w = result.witness
    if (len(w) != result.m or not is_union_closed(w)
            or max_frequency(w).count != result.value):
        raise AssertionError(f"search produced an invalid witness for g({result.n},{result.m})")


# ---------------------------------------------------------------------------
# reproducible random families

_SM64_MASK = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def _splitmix64_stream(seed: int) -> Iterator[int]:
    """SplitMix64 (Steele-Lea-Flood 2014 constants): a 64-bit splittable
    generator, fixed permanently so corpora reproduce byte for byte."""
    state = seed & _SM64_MASK
    while True:
        state = (state + _SM64_GAMMA) & _SM64_MASK
        z = state
        z = ((z ^ (z >> 30)) * _SM64_MIX1) & _SM64_MASK
        z = ((z ^ (z >> 27)) * _SM64_MIX2) & _SM64_MASK
        yield z ^ (z >> 31)


def random_union_closed(n: int, seed: int, density: Fraction | float | int | str) -> SetFamily:
    """Union closure of a density-p random subset of all masks.

    Deterministic in (n, seed, density): mask i is included iff the i-th
    SplitMix64 draw u satisfies u/2^64 < density, compared in exact
    rational arithmetic (no floats in the decision).
    """
    if not 1 <= n <= 16:
        raise ValueError(f"ground size must be in [1, 16], got {n}")
    d = Fraction(density)
    if not 0 <= d <= 1:
        raise ValueError(f"density must be in [0, 1], got {d}")
    threshold = d.numerator << 64
    den = d.denominator
    stream = _splitmix64_stream(seed)
    masks = [m for m, u in zip(range(1 << n), stream) if u * den < threshold]
    return union_closure(SetFamily(n, tuple(masks)))
