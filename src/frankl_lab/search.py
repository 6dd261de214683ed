"""Exact computation of the extremal functions f(n,a) and g(n,m).

f(n,a) = maximum size of a union-closed family on [n] in which every
element lies in at most a members.  g(n,m) = minimum, over union-closed
families of exactly m sets on [n], of the most frequent element's count.

This module holds only the engines and their result type, SearchResult.
Run limits live in `budget`; family predicates and constructors (closure
tests, frequency counts, the n <= 4 enumeration, seeded random families)
live in `families`.

Two engines, and a seed table for the first:

  depth-first  one branch-and-bound kernel, _depth_first, at every n, for
               f below the power set (a < 2^(n-1)) and for g below the
               complement range (2^n - m > n), over masks ordered by
               descending popcount, so any union of included sets lies
               strictly earlier in the order and closure is enforced
               incrementally.  Each node includes its mask (if the family
               stays closed and no element frequency passes a cap), then
               excludes it.  The include test is one bit test, against a
               table of the masks that keep the family closed and touch no
               element at the cap; `room`, the masks of that table still
               ahead in the order, bounds what the family can gain.  A
               visit function carries each caller's incumbent and bound:
                 f  cap a; prunes when the incumbent size is not beaten by
                    the size plus the least of room and the remaining
                    frequency slots;
                 g  cap one below the incumbent; prunes when room cannot
                    reach m sets, or on a lower bound from the frequency
                    slots needed.
               A node that cannot include its mask changes neither the
               family nor room, so the kernel skips runs of them, to the
               next includable mask or the next popcount level, and counts
               the nodes skipped.  It also cuts isomorphs at the first mask
               of each popcount level by sibling orbits (McKay, J.
               Algorithms 1998).  A node's group is the stabiliser of its
               new members in its parent's, from S_n at the root, and is
               never searched for: at n <= 7 every group is the list of its
               elements, and one pass over the parent's list gives both a
               child's orbit and its group; past n = 7 a group is
               (generators, order), and one walk over the child's orbit
               gives the orbit and, by Schreier's lemma, the generators of
               its group (Sims 1970).
  seed table   f only, n <= 4: a cached table per n, read from every
               family of `families.enumerate_union_closed`, of the largest
               size and its lexicographically smallest witness at each cap
               a.  The table of [min(n, 4)] seeds the f search, and at
               n <= 4 it is optimal, so the search only proves it.
  complement   for g when few sets are missing (2^n - m <= n): choose the
               missing masks instead of the present ones, depth-first in
               ascending (popcount, value) order.  A choice is admissible
               iff no missing mask is a union of two present ones; a
               missing U with two present (|U|-1)-subsets is cut as soon
               as it is chosen, and a complete choice is tested by the
               equivalent cover rule: no missing U != 0 is covered by its
               present proper subsets.  The objective is 2^(n-1) minus the
               least-covered element's cover count.

Witness policy: the complement search returns the lexicographically
smallest optimal family; the kernel's f and g searches return the first
optimum met in its fixed order (the size-based prune discards later ties
by design, and an isomorph that is cut cannot hold a strictly better
family), and the f search gives up its seed only for a larger family.
So f at n <= 4 keeps the seed table's lexicographically smallest witness,
and g below the complement range takes the kernel's first optimum at
every n.  All are deterministic run to run, and compute_f and compute_g
revalidate every witness they return.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat

from .budget import NO_BUDGET, Meter, SearchBudget
from .families import (EXHAUSTIVE_MAX_N, MAX_GROUND_SIZE, SetFamily, element_planes,
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
# the seed table for f, n <= 4

@lru_cache(maxsize=None)
def _f_table(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The f answer for every cap a = 0..2^(n-1), n <= 4: entry a holds the
    largest size among families with max frequency <= a and the
    lexicographically smallest such witness mask tuple."""
    by_freq: dict[int, tuple[int, tuple[int, ...]]] = {}
    for family in enumerate_union_closed(n):
        size, mf, masks = len(family), max_frequency(family).count, family.masks
        cur = by_freq.get(mf)
        if cur is None or size > cur[0] or (size == cur[0] and masks < cur[1]):
            by_freq[mf] = (size, masks)
    # a running best over the classes mf <= a: larger size, then smaller masks
    table = []
    best = (-1, ())
    for a in range((1 << (n - 1)) + 1):
        if a in by_freq:
            best = min(best, by_freq[a], key=lambda entry: (-entry[0], entry[1]))
        table.append(best)
    return table


# ---------------------------------------------------------------------------
# the depth-first kernel

_BB_MAX_N = 11  # a chosen ceiling: 2^n include tables of 2^n bits, 512 KiB at n = 11
# At n <= 7, n! <= 5,040: the kernel lists every group element (_symmetric_group)
_LISTED_MAX_N = 7
# Past n = 7, the orbit points one walk may visit before it stops and hands
# down the trivial group; it bounds a node's time and memory at n = 10 and 11
_ORBIT_CAP = 13_699
_IDENT = bytes(range(256))  # the identity permutation of points, as a translate table
# A group past n = 7: (generators, order), each generator a permutation of
# points with its mask-image table
_Group = tuple[list[tuple[bytes, list[int]]], int]


def _branch_order(n: int) -> list[int]:
    """Masks by descending popcount, then ascending value; the empty set
    lands last, and S|T of two incomparable masks precedes both."""
    return sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))


@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> tuple[bytes, ...]:
    """S_n, n <= 7, as mask-image tables: g[mask] is the relabelled mask.
    S_(k+1) is the cosets t S_k for t the identity and the transpositions
    (j k), j < k, so each element is one bytes.translate of an element of
    S_k through a 256-entry transposition table."""
    group = [bytes(range(1 << n))]
    for k in range(1, n):
        swaps = [bytes(m ^ pair if (m & pair).bit_count() == 1 else m for m in range(256))
                 for pair in (1 << j | 1 << k for j in range(k))]
        group += [g.translate(t) for t in swaps for g in group]
    return tuple(group)


def _stabiliser(group: Sequence[bytes], members: list[int],
                met: set[bytes]) -> list[bytes] | None:
    """One pass over `group`, a list of mask-image tables closed under
    inverses, for the set S = `members`: None if S's table (a 0/1 byte per
    mask) is in `met` already; else adds the table of each image g(S) to
    `met` and returns the elements that fix S, the stabiliser of S in
    `group`."""
    s = bytearray(256)
    for mask in members:
        s[mask] = 1
    key = bytes(s[:len(group[0])])
    if key in met:
        return None
    # g.translate(s) is the table of g^-1(S), and g^-1 runs over the group
    images = list(map(bytes.translate, group, repeat(s)))
    met.update(images)
    return list(compress(group, map(key.__eq__, images)))


def _generators(n: int, perms: list[bytes]) -> list[tuple[bytes, list[int]]]:
    """Each permutation of points in `perms` with its mask-image table."""
    images = [[0] for _ in perms]
    for e in range(n):
        for x, image in zip(perms, images):
            image += [m | 1 << x[e] for m in image]
    return list(zip(perms, images))


def _symmetric_generators(n: int) -> _Group:
    """S_n = <(0 1), (0 1 ... n-1)> as (generators, order)."""
    cycles = [_IDENT[1:k] + _IDENT[:1] + _IDENT[k:] for k in (min(n, 2), n)]
    return _generators(n, cycles), math.factorial(n)


def _orbit_stabiliser(n: int, group: _Group, members: list[int], met: set[int],
                      want_group: bool) -> _Group | None:
    """One breadth-first walk over the orbit of the set S = `members` under
    `group`, held as (generators, order): None if S's membership table (an
    int) is in `met` already; else adds the table of every image to `met`
    and returns the stabiliser of S as (generators, order), with no
    generators unless `want_group`.  The walk stops after _ORBIT_CAP orbit
    points, and if images are left it returns the trivial group.  A
    generator is a permutation of points, a 256-byte translate table that
    is the identity past n (u.translate(x) is x after u), with its
    mask-image table.

    By orbit-stabiliser the stabiliser has order |group| / |orbit|.  When
    `want_group`, the Schreier generators u_(x(T))^-1 x u_T of the walk's
    non-tree edges, u_T the tree's element taking S to T, generate it
    (Schreier's lemma).  Each is sifted into a Sims table on the base 0,
    1, ..., n-1 (table[k][p] fixes 0..k-1 and takes k to p; the identity
    is implicit): a residue left at level k becomes an entry, and its
    products y z with the entries, y at a level no lower than z, are
    sifted in turn (Sims 1970).  Once the level sizes multiply to the
    order, the table's products are the whole stabiliser, and the
    Schreier generators that left a residue generate it."""
    gens, order = group
    key = sum([1 << m for m in members])
    if key in met:
        return None
    index, points, trans, edges = {key: 0}, [members], [_IDENT], []
    for t, here in zip(range(_ORBIT_CAP), points):
        for x, image in gens:
            moved = list(map(image.__getitem__, here))
            j = index.setdefault(sum([1 << m for m in moved]), len(points))
            if j < len(points):
                edges.append((t, x, j))
            else:
                points.append(moved)
                trans.append(trans[t].translate(x))  # x after u_T
    met.update(index)
    order = 1 if len(points) > _ORBIT_CAP else order // len(points)
    kept, table, size = [], [{} for _ in range(n)], 1
    for t, x, j in edges if want_group else ():
        if size == order:
            break
        grown = size
        stack = [s := trans[t].translate(x).translate(bytes.maketrans(trans[j], _IDENT))]
        while stack and size < order:
            h = stack.pop()
            for k, level in enumerate(table):
                if h[k] in level:
                    h = h.translate(bytes.maketrans(level[h[k]], _IDENT))
                elif h[k] != k:
                    break
            else:
                continue
            level[h[k]] = h
            size = math.prod(len(level) + 1 for level in table)
            stack += [z.translate(h) for level in table[:k + 1] for z in level.values()]
            stack += [h.translate(y) for level in table[k:] for y in level.values()]
        if size > grown:
            kept.append(s)
    return _generators(n, kept), order


def _depth_first(n: int, budget: SearchBudget, visit) -> Meter:
    """Depth-first search over the union-closed families on [n].

    Node i decides order[i] of _branch_order(n): first it includes the
    mask, if the family stays union-closed and no element frequency
    exceeds the cap; then it excludes it.  Each node, a leaf i == 2^n
    included, counts against the budget.  The kernel calls
    visit(i, size, used, top, room, included): `included` holds the members
    in branch order, `used` is the sum and `top` the maximum of the element
    frequencies, and `room` is the number of masks in order[i:] that the
    include test admits now.  No later member can come from outside them,
    so room bounds what the family can still gain.  visit does the caller's
    incumbent and bound bookkeeping and returns None to cut the node (it
    must at a leaf), or the frequency cap for including order[i].  The cap
    may fall during the search, never rise.

    The include test is one bit test.  `allowed` is the table of the masks
    m with m | t a member for every member t and no element at the cap;
    every union of two members lies earlier in the order than both, so
    order[i] may be included iff it is in the table.  Including S keeps the
    masks m with m | S a member: the members that contain S, each with any
    part of S removed; an element that S brings to the cap drops the masks
    that hold it.  A frame holds `allowed` under the cap of its push, so
    when visit returns a lower cap the kernel drops the masks that hold an
    element at the new cap and, if room shrank, asks visit again.  room is
    then exact, and a node that cannot include its mask changes neither
    the family nor room: from node i the kernel scans on to the first node
    j that can include its mask or is the first of a popcount level.  It
    counts the nodes i+1..j in one step and visits none of them but a node
    j that is the first of a level.  The empty set, last in the order, is
    always admissible, so the scan ends inside the order.

    Isomorph rejection: at a boundary-k node, the first mask of popcount k
    (n-1 >= k >= 2), the family is F_P | S: P is the boundary-(k+1)
    ancestor (the root if k = n-1) and S the members of popcount k+1.
    Relabellings keep popcounts, so if the boundary-(k+1) nodes kept are
    pairwise non-isomorphic, two boundary-k nodes are isomorphic only if
    they share P and their S lie in one orbit of Aut(F_P); and Aut(F_P | S)
    is the stabiliser of S in Aut(F_P).  Two ways to hold the groups, and
    neither searches for one:
      n <= _LISTED_MAX_N = 7: a group is the list of its elements as
        mask-image tables, S_n at the root (_symmetric_group).  A child
        that survives visit is cut if S's table is in P's set; else one
        pass over P's list (_stabiliser) adds the table of every g(S) to
        the set and keeps the elements that fix S, the child's group if
        boundaries lie below.
      past n = 7: a group is (generators, order), S_n = <(0 1), (0 1 ...
        n-1)> of order n! at the root (_symmetric_generators).  A child is
        cut if S's membership table is in P's set; else one walk over S's
        orbit (_orbit_stabiliser) adds every image's table to the set and,
        if boundaries lie below, sifts the walk's Schreier generators into
        a Sims table until its products number |Aut(F_P)| / |orbit|, the
        order of the child's group.  A walk past _ORBIT_CAP points hands
        down the trivial group, and fewer isomorphs are cut below it.
    Unless a walk passes the cap, every group and orbit is whole, so a
    boundary keeps one family per S_n-class reaching it.  A cut drops an
    image of a family kept.  At a boundary order[i:] is every mask of
    popcount k or less, so room too is kept by relabelling: visit's return
    value depends on the node only up to a relabelling, and its incumbent
    only improves.

    The nodes wait on an explicit stack of exclude frames (i, top, P,
    allowed, cap), P the nearest boundary ancestor's (group, member count,
    set), freed with the last frame of its subtree; a path of
    2^n + 1 nodes needs no raised recursion limit.  Including order[i-1]
    pushes the frame of node i and goes on with the include child in
    place; popping the frame undoes the include (`top` is in the frame, as
    a maximum does not undo).  The search returns at its first failed
    tick, so each node counted is one it reached.  Returns the meter: node
    count, seconds, and whether the budget ran out.
    """
    if n > _BB_MAX_N:
        raise ValueError(f"branch-and-bound search capped at n = {_BB_MAX_N}, got {n}")
    order = _branch_order(n)
    elems = [tuple(e for e in range(n) if mask >> e & 1) for mask in range(1 << n)]
    planes = element_planes(n)
    full = (1 << (1 << n)) - 1
    clear = [full ^ plane for plane in planes]  # clear[e]: the masks without e
    supersets = [full]  # supersets[mask]: the table of the masks that contain mask
    for mask in range(1, 1 << n):
        supersets.append(supersets[mask & (mask - 1)] & planes[(mask & -mask).bit_length() - 1])
    suffix = [0]  # suffix[i]: the table of order[i:], built from the end
    for mask in reversed(order):
        suffix.append(suffix[-1] | 1 << mask)
    suffix.reverse()
    levels = [mask.bit_count() for mask in order]
    boundary = [2 <= k < n and k != levels[i - 1] for i, k in enumerate(levels)]
    meter = Meter(budget, every=4096)
    freq = [0] * n
    included: list[int] = []
    inc_bits = used = 0
    stack: list[tuple] = []
    # every group a list of its elements, or past n = 7 (generators, order)
    listed = n <= _LISTED_MAX_N
    # `allowed` drops the masks with an element at the cap `narrowed`; at the root no cap yet
    root = _symmetric_group(n) if listed else _symmetric_generators(n)
    i, top, parent = 0, 0, (root, 0, set())
    allowed, narrowed = full, None
    while meter.tick():
        while True:  # node i, counted; its include child continues in place
            room = (allowed & suffix[i]).bit_count()
            cap = visit(i, len(included), used, top, room, included)
            if cap is None:
                break
            if cap != narrowed:
                narrowed = cap
                for e in range(n):
                    if freq[e] >= cap:
                        allowed &= clear[e]
                if (allowed & suffix[i]).bit_count() < room:
                    continue  # the cap fell and room with it: visit node i again
            if boundary[i]:
                group, start, met = parent
                if start < len(included):  # an empty S is its own orbit, fixed by all
                    group = (_stabiliser(group, included[start:], met) if listed else
                             _orbit_stabiliser(n, group, included[start:], met, levels[i] > 2))
                    if group is None:
                        break
                if levels[i] > 2:
                    parent = (group, len(included), set())
            # the exclude-only run from node i: j stops at the first mask
            # that can be included or at the next boundary
            j = i
            while not allowed >> order[j] & 1:
                j += 1
                if boundary[j]:
                    break
            if j > i:
                if not meter.tick(j - i):
                    return meter
                if boundary[j]:
                    i = j
                    continue  # visit the boundary node j
            mask = order[j]
            stack.append((j + 1, top, parent, allowed, narrowed))
            es = elems[mask]
            for e in es:
                freq[e] += 1
                if freq[e] > top:
                    top = freq[e]
                if freq[e] == cap:
                    allowed &= clear[e]
            included.append(mask)
            inc_bits |= 1 << mask
            used += len(es)
            # keep the masks m with m | mask a member: the members that
            # contain mask, with any part of mask removed (a shift by
            # 2^e removes e, and every entry still holds the rest of mask)
            table = inc_bits & supersets[mask]
            for e in es:
                table |= table >> (1 << e)
            allowed &= table
            i = j + 1
            if not meter.tick():
                return meter
        if not stack:
            return meter
        i, top, parent, allowed, narrowed = stack.pop()
        mask = included.pop()
        inc_bits ^= 1 << mask
        used -= len(elems[mask])
        for e in elems[mask]:
            freq[e] -= 1
    return meter


# ---------------------------------------------------------------------------
# branch and bound for f

def _bb_f(n: int, a: int, budget: SearchBudget) -> SearchResult:
    # seed from the table of [min(n, 4)]: a family on a smaller ground set
    # is a family on [n] with unchanged frequencies
    table = _f_table(min(n, EXHAUSTIVE_MAX_N))
    best_size, best_masks = table[min(a, len(table) - 1)]

    def visit(i, size, used, top, room, included):
        nonlocal best_size, best_masks
        if size > best_size:
            best_size, best_masks = size, tuple(sorted(included))
        # room counts the empty set, which is always admissible and costs no
        # slots; a leaf has no room, so the bound cuts it
        if size + 1 + min(room - 1, n * a - used) <= best_size:
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
    if type(n) is not int or type(a) is not int:
        raise ValueError(f"n and a must be ints, got {n!r} and {a!r}")
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    if a < 0:
        raise ValueError(f"frequency cap must be >= 0, got {a}")
    meter = Meter()
    if a >= 1 << (n - 1):
        # the full power set is feasible and no family can be larger
        result = SearchResult(n, "a", a, 1 << n, SetFamily.power_set(n), True, 1,
                              meter.seconds)
    else:
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
    missing masks travel as a membership table, so the prune counts the
    missing subsets with one AND.  The incumbent starts at the top slice,
    the first candidate met, so a budget stop before it still returns a
    family.
    """
    full = 1 << n
    k = full - m
    half = 1 << (n - 1)
    order = sorted(range(full), key=lambda x: (x.bit_count(), x))
    elems = [[e for e in range(n) if u >> e & 1] for u in order]
    # below[j]: the table of the (|U|-1)-subsets of U = order[j]
    below = [sum(1 << (u ^ (1 << e)) for e in es) for u, es in zip(order, elems)]
    meter = Meter(budget, every=4096)
    best_missing = tuple(sorted(order[:k]))  # the top slice's missing masks
    best_value = half - min(sum(u >> e & 1 for u in best_missing) for e in range(n))
    missing: list[int] = []
    cover = [0] * n  # cover[e]: the missing masks that contain e

    def rec(start: int, mbits: int) -> None:
        nonlocal best_value, best_missing
        if len(missing) == k:
            if not meter.tick() or not _complement_closed(missing, mbits):
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
            if size >= 2 and size - (mbits & below[j]).bit_count() >= 2:
                continue
            u = order[j]
            missing.append(u)
            for e in elems[j]:
                cover[e] += 1
            rec(j + 1, mbits | 1 << u)
            for e in elems[j]:
                cover[e] -= 1
            missing.pop()

    rec(0, 0)
    del rec  # the closure refers to itself: free it and its search state now, not at a GC pass
    witness = SetFamily(n, tuple(x for x in range(full) if x not in best_missing))
    return SearchResult(n, "m", m, best_value, witness, not meter.exhausted, meter.nodes,
                        meter.seconds)


def _complement_closed(missing: list[int], mbits: int) -> bool:
    """Is the power set minus `missing` (also given as its membership table
    `mbits`) union-closed?  Not iff some missing U != 0 is covered by its
    present proper subsets: a missing S | T of present S and T is, and
    adding a cover up one subset at a time passes from a present union to a
    missing one, the union of two present sets."""
    for u in missing:
        covered = 0
        s = u
        while s:
            s = (s - 1) & u
            if not mbits >> s & 1:
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
    best_masks = _top_slice_family(n, m)
    best_value = max_frequency(SetFamily(n, best_masks)).count

    def visit(i, size, used, top, room, included):
        nonlocal best_value, best_masks
        if size == m:
            if top < best_value:
                best_value, best_masks = top, tuple(sorted(included))
            return None
        # fewer masks can still be included than sets are still needed (a leaf has no room)
        if size + room < m:
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
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"n and m must be ints, got {n!r} and {m!r}")
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    if not 1 <= m <= 1 << n:
        raise ValueError(f"family size must be in [1, 2^{n}], got {m}")
    if (1 << n) - m <= n:
        result = _g_by_complement(n, m, budget)
    else:
        result = _bb_g(n, m, budget)
    _validate_g_witness(result)
    return result


def _validate_g_witness(result: SearchResult) -> None:
    w = result.witness
    if (len(w) != result.arg or not is_union_closed(w)
            or max_frequency(w).count != result.value):
        raise AssertionError(f"search produced an invalid witness for g({result.n},{result.arg})")
