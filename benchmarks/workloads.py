"""The benchmark's three workloads, each a fixed list of checked tasks.

A task is one unit of the closed loop: it makes its layer calls through
a `Recorder`, adds the work counts the results expose, and checks every
result against a known value or an invariant.  Each workload puts most
of its time on one part of the package:

  search   the f/g engines of `search.py` on the flagship instances
  lp       `lp.py` and `certificate.py`: the dense exact simplex, the
           collapsed LP and dual verification over 10^5 sparse rows
  corpus   `families.py` and `theorems.py` over family corpora

`search` and `lp` are fixed instances; only `corpus` uses the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from frankl_lab import (SetFamily, bar_f, bar_f_diag, build_relaxation,
                        certificate_to_dual, check_missing_covering,
                        check_missing_subsets, compute_f, compute_g,
                        enumerate_union_closed, frankl_witness,
                        is_union_closed, make_certificate,
                        prove_diagonal_relaxation_value, solve_exact,
                        symmetric_relaxation_value, union_closure,
                        verify_certificate, verify_dual_bound)

from spans import Recorder, expect

@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[Recorder], None]
    flagship: bool = False


def build(workload: str, seed: int, small: bool) -> list[Task]:
    """The task list of one pass; `small` is the reduced self-test size."""
    if workload == "search":
        return search_tasks(small)
    if workload == "lp":
        return lp_tasks(small)
    if workload == "corpus":
        return corpus_tasks(seed, small)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# search

F_KNOWN = {(5, 4): 8, (5, 5): 9, (5, 6): 10, (5, 7): 12, (5, 8): 16,
           (6, 5): 9, (6, 6): 10}
G_BB_KNOWN = {(5, 15): 8, (5, 20): 12, (5, 24): 14}
# g(n, 2^n - i) = 2^(n-1) for i < n (the plateau theorem); these sizes
# take the complement path
G_COMPLEMENT_KNOWN = {(5, 28): 16, (6, 60): 32}
SEARCH_FLAGSHIP = (6, 6)


def _search_task(layer: str, counter: str, fn, kind: str, n: int, k: int,
                 expected: int, flagship: bool = False) -> Task:
    def run(rec: Recorder) -> None:
        result = rec.call(layer, fn, n, k)
        rec.add(counter, result.nodes)
        expect(layer, result.proven_optimal and result.value == expected,
               f"{kind}({n},{k}) = {result.value} (proven {result.proven_optimal}), "
               f"expected {expected}")

    return Task(f"{kind}({n},{k})", run, flagship)


def search_tasks(small: bool) -> list[Task]:
    f_known = {(5, 4): 8, (5, 5): 9} if small else F_KNOWN
    g_known = {(5, 24): 14} if small else G_BB_KNOWN
    c_known = {(5, 28): 16} if small else G_COMPLEMENT_KNOWN
    tasks = [_search_task("search.bb_f", "search.bb_f.nodes", compute_f, "f", n, a, v,
                          (n, a) == SEARCH_FLAGSHIP)
             for (n, a), v in f_known.items()]
    tasks += [_search_task("search.bb_g", "search.bb_g.nodes", compute_g, "g", n, m, v)
              for (n, m), v in g_known.items()]
    tasks += [_search_task("search.complement", "search.complement.candidates",
                           compute_g, "g", n, m, v)
              for (n, m), v in c_known.items()]
    return tasks


# ---------------------------------------------------------------------------
# lp

# f(n,a) for n <= 4 (exhaustive search) and f_r(n,a) as solved exactly at
# the commit that defined this benchmark; f_r(2,1) = 8/3, f_r(3,1) = 17/5,
# f_r(3,3) = 13/2 and f_r(4,4) = 48/5 are the published values.
F_SMALL = {(1, 1): 2, (2, 1): 2, (2, 2): 4, (3, 1): 2, (3, 2): 4, (3, 3): 5,
           (3, 4): 8, (4, 1): 2, (4, 2): 4, (4, 3): 5, (4, 4): 8, (4, 5): 9,
           (4, 6): 10, (4, 7): 12, (4, 8): 16}
FR_SMALL = {(1, 1): "2", (2, 1): "8/3", (2, 2): "4", (3, 1): "17/5", (3, 2): "5",
            (3, 3): "13/2", (3, 4): "8", (4, 1): "29/7", (4, 2): "25/4",
            (4, 3): "8", (4, 4): "48/5", (4, 5): "56/5", (4, 6): "64/5",
            (4, 7): "72/5", (4, 8): "16"}
# collapsed-LP values f_r(n, 1..n); the diagonal entries 583/43, 387/16,
# 337/11 and 1100/29 are the published ones, and for n >= 7 the diagonal
# equals fbar(n,n)
FR_COLLAPSED = {
    5: ("44/9", "23/3", "262/27", "317/27", "583/43"),
    6: ("62/11", "98/11", "474/41", "570/41", "666/41", "499/27"),
    7: ("83/13", "132/13", "68/5", "261/16", "303/16", "345/16", "387/16"),
    8: ("107/15", "57/5", "47/3", "19", "241/11", "273/11", "305/11", "337/11"),
    9: ("134/17", "215/17", "296/17", "151/7", "728/29", "821/29", "914/29",
        "1007/29", "1100/29"),
}
FBAR_DIAGONAL = {7: Fraction(387, 16), 8: Fraction(337, 11), 9: Fraction(1100, 29)}


def _sandwich_task(n: int, a: int) -> Task:
    golden = Fraction(FR_SMALL[n, a])

    def run(rec: Recorder) -> None:
        problem = rec.call("lp.build_relaxation", build_relaxation, n, a)
        rec.add("lp.build_relaxation.rows", len(problem.rows))
        solution = rec.call("lp.solve_exact", solve_exact, problem)
        rec.add("lp.solve_exact.pivots", solution.pivots)
        collapsed, _ = rec.call("lp.symmetric", symmetric_relaxation_value, n, a)
        rec.add("lp.symmetric.solves", 1)
        expect("lp", solution.status == "optimal" and solution.objective == golden,
               f"solve_exact({n},{a}) = {solution.status} {solution.objective}, "
               f"expected {golden}")
        expect("lp", collapsed == solution.objective,
               f"collapsed f_r({n},{a}) = {collapsed} differs from solve_exact")
        expect("lp", F_SMALL[n, a] <= golden, f"sandwich f <= f_r broken at ({n},{a})")

    return Task(f"sandwich({n},{a})", run, flagship=True)


def _collapsed_task(n: int, a: int) -> Task:
    golden = Fraction(FR_COLLAPSED[n][a - 1])

    def run(rec: Recorder) -> None:
        value, _ = rec.call("lp.symmetric", symmetric_relaxation_value, n, a)
        rec.add("lp.symmetric.solves", 1)
        expect("lp", value == golden, f"collapsed f_r({n},{a}) = {value}, expected {golden}")

    return Task(f"collapsed({n},{a})", run)


def _certificate_dual(n: int, problem):
    return certificate_to_dual(make_certificate(n), problem)


def _dual_task(n: int) -> Task:
    def run(rec: Recorder) -> None:
        problem = rec.call("lp.build_relaxation", build_relaxation, n, n)
        rows = len(problem.rows)
        rec.add("lp.build_relaxation.rows", rows)
        dual = rec.call("lp.certificate_to_dual", _certificate_dual, n, problem)
        bound = rec.call("lp.verify_dual_bound", verify_dual_bound, problem, dual)
        rec.add("lp.verify_dual_bound.rows", rows)
        expect("lp", bound == FBAR_DIAGONAL[n],
               f"dual bound at ({n},{n}) = {bound}, expected {FBAR_DIAGONAL[n]}")

    return Task(f"dual({n},{n})", run)


def _diagonal_task(n: int) -> Task:
    def run(rec: Recorder) -> None:
        value = rec.call("lp.prove_diagonal", prove_diagonal_relaxation_value, n)
        expect("lp", value == FBAR_DIAGONAL[n],
               f"proved f_r({n},{n}) = {value}, expected {FBAR_DIAGONAL[n]}")

    return Task(f"diagonal({n})", run)


def _identities(n: int) -> tuple[bool, bool]:
    return (verify_certificate(make_certificate(n)).passed,
            bar_f_diag(n) == bar_f(n, n))


def _identities_task(n: int) -> Task:
    def run(rec: Recorder) -> None:
        passed, diagonal = rec.call("certificate.identities", _identities, n)
        expect("certificate", passed, f"certificate checks fail at n={n}")
        expect("certificate", diagonal, f"fbar diagonal identity fails at n={n}")

    return Task(f"identities({n})", run)


def lp_tasks(small: bool) -> list[Task]:
    dense_n = 3 if small else 4
    collapsed_n = 6 if small else 9
    certified = (7,) if small else (7, 8, 9)
    identities_to = 20 if small else 200
    tasks = [_sandwich_task(n, a) for n in range(1, dense_n + 1)
             for a in range(1, (1 << (n - 1)) + 1)]
    tasks += [_collapsed_task(n, a) for n in range(5, collapsed_n + 1)
              for a in range(1, n + 1)]
    tasks += [_dual_task(n) for n in certified]
    tasks += [_diagonal_task(n) for n in certified]
    tasks += [_identities_task(n) for n in range(7, identities_to + 1)]
    return tasks


# ---------------------------------------------------------------------------
# corpus

CORPUS_NS = range(6, 12)
# seed-family sizes cycle through 3..40 so that every seed gives the same
# mix of small closures (dominated by the 2^n complement scan of the
# lemma checks) and large ones (dominated by the |F|^2 pair scan)
SEED_SIZES = range(3, 41)
CORPUS_CYCLES = 6


def _lemma_checks(rec: Recorder, family: SetFamily) -> None:
    rec.add("theorems.missing_checked", (1 << family.n) - len(family))
    for layer, check in (("theorems.check_missing_subsets", check_missing_subsets),
                         ("theorems.check_missing_covering", check_missing_covering)):
        report = rec.call(layer, check, family)
        expect("theorems", report.verified,
               f"{report.claim} {report.status} on n={family.n} {list(family.masks)}")


def _enumerate(n: int) -> list[SetFamily]:
    return list(enumerate_union_closed(n))


def _exhaustive_task(n: int) -> Task:
    def run(rec: Recorder) -> None:
        for family in rec.call("search.enumerate_union_closed", _enumerate, n):
            _lemma_checks(rec, family)

    return Task(f"exhaustive({n})", run)


def _family_task(n: int, masks: tuple[int, ...]) -> Task:
    def run(rec: Recorder) -> None:
        seed_family = rec.call("families.from_masks", SetFamily.from_masks, n, masks)
        closure = rec.call("families.union_closure", union_closure, seed_family)
        rec.add("families.union_closure.sets_out", len(closure))
        expect("families", set(masks) <= set(closure.masks),
               f"closure of {masks} on [{n}] drops a seed mask")
        closed = rec.call("families.is_union_closed", is_union_closed, closure)
        rec.add("families.is_union_closed.pairs", comb(len(closure), 2))
        expect("families", closed, f"closure of {masks} on [{n}] is not union-closed")
        # Frankl's conjecture holds for ground sets of up to 12 elements
        witness = rec.call("families.frankl_witness", frankl_witness, closure)
        expect("families", witness is not None, f"no Frankl element for {masks} on [{n}]")
        _lemma_checks(rec, closure)

    # the largest ground set is the corpus's hardest part
    return Task(f"family(n={n})", run, flagship=n == CORPUS_NS[-1])


def corpus_seed_families(seed: int, cycles: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, seed masks) pairs drawn from the workload seed, never empty."""
    rng = random.Random(seed)
    return [(n, tuple(rng.sample(range(1 << n), size)))
            for n in CORPUS_NS
            for _ in range(cycles)
            for size in SEED_SIZES]


def corpus_tasks(seed: int, small: bool) -> list[Task]:
    tasks = [_exhaustive_task(n) for n in range(1, 5)]
    tasks += [_family_task(n, masks)
              for n, masks in corpus_seed_families(seed, 1 if small else CORPUS_CYCLES)]
    return tasks
