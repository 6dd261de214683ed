"""Set families on a ground set [n] = {1, ..., n}, represented by bitmasks.

A subset S of [n] is stored as an unsigned integer mask with bit e-1 set
iff element e is in S.  A family is a strictly increasing tuple of such
masks, so distinctness and a canonical order come for free.  The empty
set (mask 0) is an ordinary member: extremal values such as f(1,1) = 2
are only attainable with it.

Conventions used across the package:
  - elements are 1-indexed, bits are 0-indexed (element e <-> bit e-1);
  - "at least half" is tested as 2*count >= len(family), so no rational
    arithmetic is needed in the membership-counting hot path;
  - ties are broken toward the smallest element index and the
    lexicographically smallest mask.

Ground sizes are capped at n = 16: every mask fits in 16 bits and a full
membership table fits in a single 65536-bit integer.

The closure predicate, the closure and the frequency counts work on
whole tables, a few big-integer operations each:
  - the membership table (`SetFamily.member_bits`) of F has bit m set iff
    mask m is a member;
  - element plane e of [n] is the table of all masks that hold bit e,
    so the popcount of (table & plane e) counts element e+1 in F;
  - the OR-image of F under a mask S, the table of {T | S : T in F}, takes
    one shift-and-mask per element of S: shifting a table by 2^e moves
    every mask without bit e onto the mask with it, and plane e keeps
    exactly those and the masks that already held bit e.

One walk closes a table, one OR-image per generator: `is_union_closed`
compares a table with its closure, `union_closure` returns it, and the
n <= 4 enumeration keeps every table its closure leaves unchanged.

The module also holds that enumeration and the seeded random families
that the other layers share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

MAX_GROUND_SIZE = 16
EXHAUSTIVE_MAX_N = 4


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build a bitmask from 1-indexed elements, validating the range."""
    mask = 0
    for e in elements:
        if type(e) is not int or not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """1-indexed elements of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class SetFamily:
    """A collection of distinct subsets of [n], as sorted bitmasks.

    The membership table is built on first use of `member_bits` and kept
    in a slot; a family has no per-instance dict.
    """

    n: int
    masks: tuple[int, ...]
    _table: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int or not 1 <= self.n <= MAX_GROUND_SIZE:
            raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {self.n}")
        limit = 1 << self.n
        prev = -1
        for m in self.masks:
            if type(m) is not int or not 0 <= m < limit:
                raise ValueError(f"mask {m!r} outside [0, 2^{self.n})")
            if m <= prev:
                raise ValueError("masks must be strictly increasing (distinct and sorted)")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        """Normalize an arbitrary-order mask iterable; duplicates are an error."""
        ms = sorted(masks)
        for a, b in zip(ms, ms[1:]):
            if a == b:
                raise ValueError(f"duplicate mask {a}")
        return cls(n, tuple(ms))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from element collections, e.g. [(1,), (2, 3)]."""
        return cls.from_masks(n, (mask_from_elements(s, n) for s in sets))

    @classmethod
    def from_member_bits(cls, n: int, bits: int) -> "SetFamily":
        """The family whose membership table is `bits`; it keeps the table."""
        if type(bits) is not int:
            raise ValueError(f"a membership table is an int, got {bits!r}")
        if bits < 0:
            raise ValueError("a membership table is a non-negative integer")
        masks = []
        rest = bits
        while rest:
            low = rest & -rest
            masks.append(low.bit_length() - 1)
            rest ^= low
        family = cls(n, tuple(masks))
        object.__setattr__(family, "_table", bits)
        return family

    @classmethod
    def power_set(cls, n: int) -> "SetFamily":
        return cls(n, tuple(range(1 << n)))

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls(n, ())

    @property
    def member_bits(self) -> int:
        """Membership table as one integer: bit m set iff mask m is a member."""
        if self._table is None:
            bits = 0
            for m in self.masks:
                bits |= 1 << m
            object.__setattr__(self, "_table", bits)
        return self._table

    def __len__(self) -> int:
        return len(self.masks)

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as 1-indexed element tuples, in mask order."""
        return tuple(elements_of_mask(m) for m in self.masks)


@lru_cache(maxsize=None)
def element_planes(n: int) -> tuple[int, ...]:
    """Element planes of [n]: entry e has bit m set iff mask m holds bit e.

    Plane e repeats a block of 2^e clear bits under 2^e set ones, with
    period 2^(e+1); dividing the all-ones table by 2^(2^(e+1)) - 1 gives
    the integer with a 1 at the start of each period.
    """
    full = (1 << (1 << n)) - 1
    return tuple((((1 << (1 << e)) - 1) << (1 << e)) * (full // ((1 << (2 << e)) - 1))
                 for e in range(n))


def _or_image(bits: int, s: int, planes: tuple[int, ...]) -> int:
    """Membership table of {m | s : m in bits}, one shift-and-mask per element of s.

    A shift by 2^e carries a mask that holds bit e off plane e, where the
    mask is dropped; the copy left in place keeps it.
    """
    while s:
        low = s & -s
        bits = (bits | (bits << low)) & planes[low.bit_length() - 1]
        s ^= low
    return bits


class MaxFrequency(NamedTuple):
    element: int
    count: int


def _closure_table(bits: int, planes: tuple[int, ...]) -> int:
    """Membership table of the union closure of the table `bits`.

    `closed` holds every union of the generators met so far, and each
    round takes the lowest member outside it, adding that member and the
    OR-image of `closed` under it: a few table operations per generator,
    none per member.  That member is a generator, a member that is not a
    union of others.  Its proper subsets are lower masks, every lower
    member is in `closed` already, and `closed` is closed under unions,
    so a union of members below it would be in `closed` too.
    """
    closed = 0
    rest = bits
    while rest:
        low = rest & -rest
        closed |= _or_image(closed, low.bit_length() - 1, planes) | low
        rest = bits & ~closed
    return closed


def is_union_closed(family: SetFamily) -> bool:
    """True iff S | T is a member for every pair of members: the union
    closure of the membership table adds nothing to it."""
    bits = family.member_bits
    return _closure_table(bits, element_planes(family.n)) == bits


def union_closure(family: SetFamily) -> SetFamily:
    """Smallest union-closed superfamily, from the same table walk as
    `is_union_closed`."""
    return SetFamily.from_member_bits(
        family.n, _closure_table(family.member_bits, element_planes(family.n)))


@lru_cache(maxsize=None)
def _union_closed_tables(n: int) -> tuple[int, ...]:
    """Membership table of every union-closed subfamily of 2^[n], ascending."""
    planes = element_planes(n)
    return tuple([bits for bits in range(1 << (1 << n)) if _closure_table(bits, planes) == bits])


def enumerate_union_closed(n: int) -> Iterator[SetFamily]:
    """Yield every union-closed subfamily of 2^[n] once, in mask-bitset order.

    Guarded to n <= 4: there are 2^(2^n) candidates to sift.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")
    for bits in _union_closed_tables(n):
        yield SetFamily.from_member_bits(n, bits)


def frequencies(family: SetFamily) -> tuple[int, ...]:
    """Exact per-element membership counts: entry e-1 is |{S in F : e in S}|."""
    bits = family.member_bits
    return tuple([(bits & plane).bit_count() for plane in element_planes(family.n)])


def max_frequency(family: SetFamily) -> MaxFrequency:
    """Most frequent element (smallest index on ties) and its count.

    The empty family has no frequencies at all; by convention it reports
    element 1 with count 0.
    """
    if not family.masks:
        return MaxFrequency(1, 0)
    counts = frequencies(family)
    best = max(counts)
    return MaxFrequency(counts.index(best) + 1, best)


def complement(family: SetFamily) -> SetFamily:
    """All masks of the full power set on [n] that are not members: the
    runs between consecutive members, in order."""
    missing: list[int] = []
    start = 0
    for m in family.masks:
        missing.extend(range(start, m))
        start = m + 1
    missing.extend(range(start, 1 << family.n))
    return SetFamily(family.n, tuple(missing))


def frankl_witness(family: SetFamily) -> Optional[int]:
    """Smallest element present in at least half of the sets, or None.

    "At least half" is exact: 2*count >= |F|.  Raises on the empty
    family, for which the conjecture is not stated.  Note that {emptyset}
    is accepted and yields None: it has no elements at all.
    """
    if not family.masks:
        raise ValueError("witness undefined for the empty family")
    size = len(family.masks)
    for e, count in enumerate(frequencies(family), start=1):
        if 2 * count >= size:
            return e
    return None


def family_to_json(family: SetFamily, form: str = "masks") -> dict:
    """Canonical JSON object for a family.

    form="masks" (the emitted default): {"n": 4, "masks": [0, 1, 6]}.
    form="sets": {"n": 4, "sets": [[], [1], [2, 3]]} with the element
    arrays sorted and the list of arrays sorted lexicographically.
    """
    if form == "masks":
        return {"n": family.n, "masks": list(family.masks)}
    if form == "sets":
        return {"n": family.n, "sets": sorted(list(s) for s in family.sets())}
    raise ValueError(f"unknown form {form!r}")


def family_from_json(obj: dict | str) -> SetFamily:
    """Parse either accepted encoding ("masks" or "sets")."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("family JSON must be an object with an 'n' key")
    n = obj["n"]
    has_masks = "masks" in obj
    has_sets = "sets" in obj
    if has_masks == has_sets:
        raise ValueError("family JSON needs exactly one of 'masks' or 'sets'")
    if has_masks:
        if not isinstance(obj["masks"], list):
            raise ValueError("'masks' must be a list of integers")
        return SetFamily.from_masks(n, obj["masks"])
    if not isinstance(obj["sets"], list) or not all(isinstance(s, list) for s in obj["sets"]):
        raise ValueError("'sets' must be a list of lists of elements")
    return SetFamily.from_sets(n, obj["sets"])


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
    if type(n) is not int or type(seed) is not int:
        raise ValueError(f"n and seed must be ints, got {n!r} and {seed!r}")
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    d = Fraction(density)
    if not 0 <= d <= 1:
        raise ValueError(f"density must be in [0, 1], got {d}")
    threshold = d.numerator << 64
    den = d.denominator
    stream = _splitmix64_stream(seed)
    masks = [m for m, u in zip(range(1 << n), stream) if u * den < threshold]
    return union_closure(SetFamily(n, tuple(masks)))
