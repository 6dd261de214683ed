"""Mechanical verifiers for the structural facts the toolkit relies on.

Each verifier checks a statement on a concrete scope and returns a
VerificationReport; none of them re-derives a proof.  The claims:

  missing-subsets    a union-closed family missing a set S with |S| >= 2
                     contains at most one T < S with |T| = |S| - 1
                     (two such T's would union to S).
  missing-covering   if the k sets missing from a union-closed family
                     jointly cover l elements then k >= l.  Only the
                     maximal instance is tested: the full union of the
                     missing sets is the strongest choice of covered set,
                     and it implies every smaller one with the same k.
  thm-g              g(n, 2^n - i) = 2^(n-1) for 0 <= i <= n-1.
  thm-f-2n-minus-n   f(n, 2^(n-1) - 1) = 2^n - n: the power set minus its
                     n singletons attains the value (lower bound, checked
                     for any n), the search matches it (n <= 6).
  monotonicity       f(n,a) <= f(n+1,a) always; f(n,a) = f(n+1,a) from
                     n = a-1 on, except where a 2^n-set lattice is too
                     small to hold the plateau value at all (see
                     `verify_monotonicity`).
  fg-duality         f(n,a) >= m iff g(n,m) <= a, over the whole (a, m)
                     grid for n <= 4: the kernel's f against the kernel's
                     and the complement search's g.

Claim identifiers are stable strings intended for CI consumption.  A
violation anywhere would contradict a proved statement and therefore
signals an implementation bug; suites treat it as build-stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .budget import NO_BUDGET, SearchBudget
from .families import (EXHAUSTIVE_MAX_N, MAX_GROUND_SIZE, SetFamily, complement,
                       enumerate_union_closed, frequencies, is_union_closed,
                       random_union_closed)
from .search import compute_f, compute_g


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


def _require_union_closed(family: SetFamily) -> None:
    if not is_union_closed(family):
        raise ValueError("input family is not union-closed")


def check_missing_subsets(family: SetFamily) -> VerificationReport:
    """For every non-member S with |S| >= 2, count members one element
    below it; more than one is a violation."""
    _require_union_closed(family)
    return _missing_subsets(family, complement(family).masks)


def check_missing_covering(family: SetFamily) -> VerificationReport:
    """Compare the number of missing sets with the size of their union."""
    _require_union_closed(family)
    return _missing_covering(family, complement(family).masks)


def _missing_subsets(family: SetFamily, missing: tuple[int, ...]) -> VerificationReport:
    """check_missing_subsets on a family already known to be union-closed,
    given its missing masks."""
    bits = family.member_bits
    violations = []
    for s in missing:
        if s.bit_count() < 2:
            continue
        count = 0
        m = s
        while m:
            low = m & -m
            if (bits >> (s ^ low)) & 1:
                count += 1
            m ^= low
        if count > 1:
            violations.append({"missing_mask": s, "subsets_present": count})
    scope = {"n": family.n, "family_size": len(family)}
    return VerificationReport("missing-subsets", scope, violations)


def _missing_covering(family: SetFamily, missing: tuple[int, ...]) -> VerificationReport:
    """check_missing_covering on a family already known to be union-closed,
    given its missing masks."""
    union = 0
    for s in missing:
        union |= s
    k, l = len(missing), union.bit_count()
    violations = []
    if k < l:
        violations.append({"missing_count": k, "covered_elements": l})
    scope = {"n": family.n, "family_size": len(family), "k": k, "l": l}
    return VerificationReport("missing-covering", scope, violations)


def verify_g_theorem(n: int, budget: SearchBudget = NO_BUDGET) -> VerificationReport:
    """g(n, 2^n - i) = 2^(n-1) for every i in 0..n-1; n in 3..6.

    These sizes go to the complement search, pruned by the
    missing-subsets lemma; at n = 6 all six together take about 0.08 s
    (g(6,59) visits 4,281 candidates).  n = 7 is left out: its largest
    gap alone, g(7,122), visits 47,180 candidates (0.8-1.2 s on 2 cores).
    Budget exhaustion downgrades the report to skipped rather than
    failing it.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if not 3 <= n <= 6:
        raise ValueError(f"g-theorem verifier runs for 3 <= n <= 6, got {n}")
    expected = 1 << (n - 1)
    violations = []
    skipped = []
    values = {}
    for i in range(n):
        m = (1 << n) - i
        result = compute_g(n, m, budget)
        values[m] = result.value
        if not result.proven_optimal:
            skipped.append(m)
        elif result.value != expected:
            violations.append({"m": m, "value": result.value, "expected": expected})
    scope = {"n": n, "sizes": sorted(values), "values": values, "expected": expected}
    notes = [f"budget exhausted for m={m}" for m in skipped]
    return VerificationReport("thm-g", scope, violations, notes, skipped=bool(skipped))


def powerset_minus_singletons(n: int) -> SetFamily:
    """The power set of [n] without its n one-element sets.

    Postconditions are checked on every call: the family is union-closed
    (a singleton can only arise as a union of its own subsets, which are
    no longer both present), has 2^n - n members, and every element sits
    in exactly 2^(n-1) - 1 of them.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    singletons = frozenset(1 << e for e in range(n))
    masks = tuple(m for m in range(1 << n) if m not in singletons)
    family = SetFamily(n, masks)
    if len(family) != (1 << n) - n:
        raise AssertionError("construction size is off")
    if not is_union_closed(family):
        raise AssertionError("construction is not union-closed")
    want = (1 << (n - 1)) - 1
    if any(c != want for c in frequencies(family)):
        raise AssertionError("construction frequencies are off")
    return family


def verify_f_theorem(n: int, budget: SearchBudget = NO_BUDGET) -> VerificationReport:
    """f(n, 2^(n-1) - 1) = 2^n - n.

    The construction leg (lower bound) runs for any n <= 16.  The
    matching upper bound is the search value for n <= 6 (f(6,31) takes
    182,376 nodes) and is skipped from n = 7 on; at n = 1 the frequency
    cap is 2^0 - 1 = 0 and the search degenerates to f(1,0) = 1 = |{emptyset}|.
    """
    # checks n, then raises unless 2^n - n sets, each element in 2^(n-1) - 1 of them
    powerset_minus_singletons(n)
    target = (1 << n) - n
    cap = (1 << (n - 1)) - 1
    violations = []
    notes = []
    skipped = False
    if n <= 6:
        result = compute_f(n, cap, budget)
        if not result.proven_optimal:
            skipped = True
            notes.append("budget exhausted on the search leg")
        elif result.value != target:
            violations.append({"leg": "search", "value": result.value, "expected": target})
    else:
        skipped = True
        notes.append("upper-bound leg skipped for n >= 7 (branch and bound leaves f(7,63) "
                     "unproven after 20 s); construction leg validated")
    scope = {"n": n, "cap": cap, "target": target}
    return VerificationReport("thm-f-2n-minus-n", scope, violations, notes, skipped=skipped)


def verify_monotonicity(a: int, n_max: int,
                        budget: SearchBudget = NO_BUDGET) -> VerificationReport:
    """Check the f(n,a) chain and its plateau.

    Asserted: f(n,a) <= f(n+1,a) for all n < n_max, and f(n,a) = f(n+1,a)
    for n >= a-1, with one carve-out.  The equality at a pair (n, n+1) is
    arithmetically impossible whenever f(n,a) = 2^n < f(n+1,a): a family
    on n elements cannot have more than 2^n distinct sets, so the plateau
    cannot start before the lattice is large enough.  This bites exactly
    at (n,a) = (1,2) and (2,3), where the smaller lattice is saturated;
    such pairs are recorded as notes, not violations.
    """
    if type(a) is not int or type(n_max) is not int:
        raise ValueError(f"a and n_max must be ints, got {a!r} and {n_max!r}")
    if a < 1:
        raise ValueError(f"frequency cap must be >= 1, got {a}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2 to compare anything, got {n_max}")
    values: dict[int, int] = {}
    skipped_ns = []
    for n in range(1, n_max + 1):
        result = compute_f(n, a, budget)
        if not result.proven_optimal:
            skipped_ns.append(n)
            continue
        values[n] = result.value
    violations = []
    notes = []
    for n in range(1, n_max):
        if n not in values or n + 1 not in values:
            continue
        lo, hi = values[n], values[n + 1]
        if lo > hi:
            violations.append({"kind": "chain", "n": n, "f_n": lo, "f_n1": hi})
        if n >= a - 1 and lo != hi:
            if lo == (1 << n) and lo < hi:
                notes.append(
                    f"plateau pair (n={n}, n={n + 1}) skipped: f({n},{a}) = 2^{n} "
                    f"saturates the lattice, equality with {hi} is impossible"
                )
            else:
                violations.append({"kind": "plateau", "n": n, "f_n": lo, "f_n1": hi})
    if a in values:
        notes.append(f"plateau value {values[a]} from n = {a}")
    notes.extend(f"budget exhausted at n = {n}" for n in skipped_ns)
    scope = {"a": a, "n_max": n_max, "values": values}
    return VerificationReport("monotonicity", scope, violations, notes, skipped=bool(skipped_ns))


def check_fg_duality(n: int, a_max: int) -> VerificationReport:
    """Check f(n,a) >= m <=> g(n,m) <= a over the whole (a, m) grid.

    Both directions are definitional once minimal-member removal is
    available: a size-m subfamily of an f-witness keeps frequencies below
    a, and a g-witness of size m is itself an f candidate.  A violation
    can only mean a solver bug, so this doubles as a cross-check of the
    engines: f comes from the branch-and-bound kernel, and g from the
    same kernel (2^n - m > n) and the complement search (2^n - m <= n).
    The check takes no budget, so it runs for n <= 4 only: the full n = 6
    grids take minutes.
    """
    if type(n) is not int or type(a_max) is not int:
        raise ValueError(f"n and a_max must be ints, got {n!r} and {a_max!r}")
    if n > 4:
        raise ValueError(f"duality check takes no budget and runs for n <= 4, got {n}")
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    full = 1 << n
    f_vals = {a: compute_f(n, a).value for a in range(1, a_max + 1)}
    g_vals = {m: compute_g(n, m).value for m in range(1, full + 1)}
    violations = []
    for a in range(1, a_max + 1):
        for m in range(1, full + 1):
            if (f_vals[a] >= m) != (g_vals[m] <= a):
                violations.append({"a": a, "m": m, "f": f_vals[a], "g": g_vals[m]})
    return VerificationReport("fg-duality", {"n": n, "a_max": a_max, "m_max": full}, violations)


# ---------------------------------------------------------------------------
# claim registry for batch runs

LEMMA_RANDOM_NS = (5, 6, 7, 8)
LEMMA_RANDOM_COUNT = 1000
LEMMA_BASE_SEED = 20250801

# expected seed-set sizes range from a handful to ~20 so the corpus mixes
# sparse families with closures that grow toward the full lattice
_DENSITY_NUMERATORS = (3, 5, 8, 12, 20)


def lemma_densities(n: int, count: int) -> list[Fraction]:
    return [min(Fraction(_DENSITY_NUMERATORS[i % len(_DENSITY_NUMERATORS)], 1 << n),
                Fraction(1))
            for i in range(count)]


def random_closures(n: int, count: int, base_seed: int = LEMMA_BASE_SEED):
    """The seeded closure corpus used by the lemma suites."""
    for i, density in enumerate(lemma_densities(n, count)):
        yield random_union_closed(n, base_seed + i, density)


# each lemma claim's check on a union-closed family, given its missing masks
LEMMA_CHECKS = {"missing-subsets": _missing_subsets,
                "missing-covering": _missing_covering}


def run_lemma_claim(claims: tuple[str, ...] = tuple(LEMMA_CHECKS), ns=LEMMA_RANDOM_NS,
                    count: int = LEMMA_RANDOM_COUNT,
                    base_seed: int = LEMMA_BASE_SEED) -> list[VerificationReport]:
    """Exhaustive n <= 4 plus seeded random closures, in one pass.

    `claims` names lemma claims, both by default.  Every family of the
    corpus is built once, its closure tested and its complement built
    once, and then handed to each claim's check in turn.  Returns one
    report per claim, in the given order.  A claim that is not a lemma
    claim, or a `count` that is not an int >= 0, raises ValueError.
    """
    unknown = [claim for claim in claims if claim not in LEMMA_CHECKS]
    if unknown:
        raise ValueError(f"{unknown[0]!r} is not a lemma claim "
                         f"(they are {', '.join(LEMMA_CHECKS)})")
    if type(count) is not int:
        raise ValueError(f"random family count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"random family count must be >= 0, got {count}")
    checks = [LEMMA_CHECKS[claim] for claim in claims]
    violations: list[list] = [[] for _ in claims]
    families_checked = 0
    exhaustive_ns = range(1, EXHAUSTIVE_MAX_N + 1)
    corpus = chain(((n, family) for n in exhaustive_ns for family in enumerate_union_closed(n)),
                   ((n, family) for n in ns for family in random_closures(n, count, base_seed)))
    for n, family in corpus:
        _require_union_closed(family)
        missing = complement(family).masks
        for found, check in zip(violations, checks):
            found.extend({"n": n, "family": list(family.masks), **v}
                         for v in check(family, missing).violations)
        families_checked += 1
    scope = {"exhaustive_n": list(exhaustive_ns), "random_ns": list(ns),
             "random_count": count, "base_seed": base_seed,
             "families_checked": families_checked}
    return [VerificationReport(claim, dict(scope), found)
            for claim, found in zip(claims, violations)]


# the keywords each claim takes to narrow its default scope
_CLAIM_KEYWORDS = {"missing-subsets": ("ns", "count", "base_seed"),
                   "missing-covering": ("ns", "count", "base_seed"),
                   "thm-g": ("ns", "budget"), "thm-f-2n-minus-n": ("ns", "budget"),
                   "monotonicity": ("caps", "n_max", "budget"), "fg-duality": ("ns",)}
CLAIMS = tuple(_CLAIM_KEYWORDS)


def run_claim(claim: str, **kwargs) -> VerificationReport:
    """Run one registered claim with its default scope, narrowed by the
    keywords the claim takes; any other keyword raises ValueError."""
    if claim not in _CLAIM_KEYWORDS:
        raise ValueError(f"unknown claim {claim!r}")
    extra = sorted(set(kwargs) - set(_CLAIM_KEYWORDS[claim]))
    if extra:
        raise ValueError(f"claim {claim!r} does not take {', '.join(extra)} "
                         f"(it takes {', '.join(_CLAIM_KEYWORDS[claim])})")
    if claim in LEMMA_CHECKS:
        return run_lemma_claim((claim,), **kwargs)[0]
    budget = kwargs.get("budget", NO_BUDGET)
    if claim == "thm-g":
        reports = [verify_g_theorem(n, budget) for n in kwargs.get("ns", (3, 4, 5))]
    elif claim == "thm-f-2n-minus-n":
        reports = [verify_f_theorem(n, budget) for n in kwargs.get("ns", (1, 2, 3, 4))]
    elif claim == "monotonicity":
        n_max = kwargs.get("n_max", 5)
        reports = [verify_monotonicity(a, n_max, budget) for a in kwargs.get("caps", (1, 2, 3))]
    else:  # fg-duality
        reports = [check_fg_duality(n, 1 << n) for n in kwargs.get("ns", (3, 4))]
    return _merge_reports(claim, reports)


def _merge_reports(claim: str, reports: list[VerificationReport]) -> VerificationReport:
    violations = [v for r in reports for v in r.violations]
    notes = [n for r in reports for n in r.notes]
    scope = {"parts": [r.scope for r in reports]}
    return VerificationReport(claim, scope, violations, notes,
                              skipped=any(r.skipped for r in reports))
