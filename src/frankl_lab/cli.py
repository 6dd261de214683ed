"""Batch command-line interface.

Commands: f, g, lp, bound, certify, verify, table, witness, check.
Output goes to stdout (text by default, --format json; table also takes
--format csv; witness always prints family JSON), diagnostics to stderr.
Exit codes: 0 success, 1 invalid arguments, 2 budget exhausted with
partial output, 3 verification violation (a theorem contradiction, i.e.
a bug).

Each command returns an `Outcome`: its JSON payload, its text lines (the
CSV rows for `table --format csv`) and its exit code.  `main` alone picks
the format, drops the clock fields under --stable, prints and returns the
code.  Two writes to stderr are the only other output: `lp --export`
reports the rows it wrote before it solves, and `table --format csv`
prints its notes there, after the rows.

Only the JSON of f, g, lp and check has wall-clock fields ("seconds"), the
one nondeterministic part of any payload; only those four take --stable,
which drops them so that identical invocations print byte-identical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import NamedTuple

from . import checks as checks_mod
from .budget import SearchBudget
from .certificate import (A9_NOTE, bar_f, bar_f_diag, bound_table, make_certificate,
                          verify_certificate)
from .families import family_to_json
from .lp import build_relaxation, certificate_to_dual, problem_lines, solve_exact, verify_dual_bound
from .search import compute_f, compute_g
from .theorems import CLAIMS, LEMMA_CHECKS, run_claim, run_lemma_claim

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class Outcome(NamedTuple):
    """A command's result; `err` holds stderr lines printed after stdout."""

    payload: dict
    lines: list[str]
    code: int
    err: tuple[str, ...] = ()


def _scrub_timing(obj):
    if isinstance(obj, dict):
        return {k: _scrub_timing(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_scrub_timing(v) for v in obj]
    return obj


def _budget_from(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _cmd_f(args) -> Outcome:
    result = compute_f(args.n, args.a, _budget_from(args))
    flag = "proven optimal" if result.proven_optimal else "lower bound (budget hit)"
    line = (f"f({args.n},{args.a}) = {result.value} [{flag}], "
            f"witness of {len(result.witness)} sets, {result.nodes} nodes")
    return Outcome(result.to_json(), [line], EXIT_OK if result.proven_optimal else EXIT_BUDGET)


def _cmd_g(args) -> Outcome:
    result = compute_g(args.n, args.m, _budget_from(args))
    flag = "proven optimal" if result.proven_optimal else "upper bound (budget hit)"
    line = f"g({args.n},{args.m}) = {result.value} [{flag}], {result.nodes} nodes"
    return Outcome(result.to_json(), [line], EXIT_OK if result.proven_optimal else EXIT_BUDGET)


def _export(problem, path: str) -> None:
    """Write the text export of problem to path line by line, so that one
    row is held at a time, and say how many rows went out on stderr."""
    try:
        with open(path, "w") as fh:
            fh.writelines(problem_lines(problem))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    print(f"wrote {len(problem.rows)} rows to {path}", file=sys.stderr)


def _cmd_lp(args) -> Outcome:
    problem = build_relaxation(args.n, args.a)
    if args.export:
        _export(problem, args.export)
    solution = solve_exact(problem, _budget_from(args))
    value, floor = solution.objective, math.floor(solution.objective)
    if solution.status == "optimal":
        line = (f"f_r({args.n},{args.a}) = {value} (~{float(value):.4f}), floor {floor}, "
                f"{solution.pivots} pivots")
    else:
        line = (f"status {solution.status}: best feasible value {value} "
                f"after {solution.pivots} pivots")
    return Outcome({**solution.to_json(), "floor": floor}, [line],
                   EXIT_OK if solution.status == "optimal" else EXIT_BUDGET)


def _cmd_bound(args) -> Outcome:
    if args.n is None:
        value = bar_f_diag(args.a)
        label = {"a": args.a}
    else:
        value = bar_f(args.n, args.a)
        label = {"n": args.n, "a": args.a}
    notes = [A9_NOTE] if args.n is None and args.a == 9 else []
    floor = math.floor(value)
    lines = [f"{floor} (exact {value})"] + [f"note: {note}" for note in notes]
    return Outcome({**label, "floor": floor, "exact": str(value), "notes": notes}, lines, EXIT_OK)


def _cmd_certify(args) -> Outcome:
    cert = make_certificate(args.n)
    report = verify_certificate(cert)
    payload = {"certificate": cert.to_json(), "verification": report.to_json()}
    lines = [f"certificate n={args.n}: alpha={cert.alpha} beta={cert.beta} gamma={cert.gamma}"]
    lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.name} (slack {c.slack})"
              for c in report.checks]
    lines += [f"  note: {note}" for note in report.notes]
    # gamma < 0 below n = 7 is expected and flagged, not a contradiction
    hard_failure = any(not c.passed and not (args.n < 7 and c.name == "gamma >= 0")
                       for c in report.checks)
    code = EXIT_VIOLATION if hard_failure else EXIT_OK
    if args.a is not None:
        problem = build_relaxation(args.n, args.a)
        bound = verify_dual_bound(problem, certificate_to_dual(cert, problem))
        matches = bound == bar_f(args.n, args.a)
        payload["dual_bound"] = {"value": str(bound), "floor": math.floor(bound),
                                 "matches_bar_f": matches}
        lines.append(f"  dual bound on f({args.n},{args.a}): {bound} "
                     f"(floor {math.floor(bound)}, matches closed form: {matches})")
        if not matches:
            code = EXIT_VIOLATION
    return Outcome(payload, lines, code)


def _cmd_verify(args) -> Outcome:
    kwargs = {}
    if args.n is not None:
        kwargs["ns"] = (args.n,)
    if args.count is not None:
        kwargs["count"] = args.count
    if args.seed is not None:
        kwargs["base_seed"] = args.seed
    if args.max_nodes is not None or args.max_seconds is not None:
        kwargs["budget"] = _budget_from(args)
    if args.claim == "all" and kwargs:
        raise ValueError("--claim all runs every claim at its default scope and takes no "
                         "--n, --count, --seed, --max-nodes or --max-seconds")
    if args.claim == "all":
        # both lemma claims share one pass over the corpus
        reports = run_lemma_claim()
        reports += [run_claim(claim) for claim in CLAIMS if claim not in LEMMA_CHECKS]
    else:
        reports = [run_claim(args.claim, **kwargs)]
    lines = []
    for r in reports:
        lines.append(f"{r.claim}: {r.status}")
        lines += [f"  violation: {v}" for v in r.violations[:10]]
        lines += [f"  note: {note}" for note in r.notes]
    statuses = {r.status for r in reports}
    code = (EXIT_VIOLATION if "violated" in statuses
            else EXIT_BUDGET if "skipped" in statuses else EXIT_OK)
    return Outcome({"reports": [r.to_json() for r in reports]}, lines, code)


def _cmd_table(args) -> Outcome:
    lo, hi = {"bound": (7, 16), "f-aa": (1, 5), "fr": (1, 4)}[args.what]
    lo = lo if args.start is None else args.start
    hi = hi if args.stop is None else args.stop
    if lo > hi:
        raise ValueError(f"empty range: --from {lo} is above --to {hi}")
    rows = []
    notes = []
    stopped = False  # some row stopped on its budget
    if args.what == "bound":
        if args.max_nodes is not None or args.max_seconds is not None:
            raise ValueError("--what bound evaluates a closed form and takes no budget")
        table = bound_table(lo, hi)
        rows, notes = table.rows, list(table.notes)
    elif args.what == "f-aa":
        budget = _budget_from(args)
        for a in range(lo, hi + 1):
            r = compute_f(a, a, budget)
            rows.append((a, r.value))
            if not r.proven_optimal:
                stopped = True
                notes.append(f"a={a}: budget exhausted, value is a lower bound")
    else:  # fr
        for a in range(lo, hi + 1):
            sol = solve_exact(build_relaxation(a, a), _budget_from(args))
            rows.append((a, math.floor(sol.objective)))
            if sol.status == "optimal":
                notes.append(f"a={a}: exact value {sol.objective}")
            else:
                stopped = True
                notes.append(f"a={a}: feasible lower bound {sol.objective}")
                notes.append(f"a={a}: status {sol.status}")
    payload = {"what": args.what, "rows": [{"a": a, "value": v} for a, v in rows],
               "notes": notes}
    code = EXIT_BUDGET if stopped else EXIT_OK
    note_lines = [f"note: {note}" for note in notes]
    if args.format == "csv":
        return Outcome(payload, ["a,value"] + [f"{a},{v}" for a, v in rows], code,
                       tuple(note_lines))
    return Outcome(payload, [f"{a:3d}  {v}" for a, v in rows] + note_lines, code)


def _cmd_witness(args) -> Outcome:
    result = compute_f(args.n, args.a, _budget_from(args))
    payload = family_to_json(result.witness)
    payload["f_value"] = result.value
    payload["proven_optimal"] = result.proven_optimal
    # no --format: `main` always prints this family JSON, which has no timing field
    return Outcome(payload, [], EXIT_OK if result.proven_optimal else EXIT_BUDGET)


def _cmd_check(args) -> Outcome:
    results = checks_mod.run_all()
    payload = {"results": [dataclasses.asdict(r) for r in results]}
    return Outcome(payload, [r.line for r in results],
                   EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION)


def _add_common(parser, budget=True, seed=False, stable=False, formats=("text", "json")):
    if formats:
        parser.add_argument("--format", choices=formats, default="text")
    if stable:
        parser.add_argument("--stable", action="store_true",
                            help="omit wall-clock fields so identical runs emit identical bytes")
    if budget:
        parser.add_argument("--max-nodes", type=int, default=None)
        parser.add_argument("--max-seconds", type=float, default=None)
    if seed:
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument("--count", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frankl-lab",
                     description="exact searches, LP relaxations, and dual "
                                 "certificates for union-closed set families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f", help="compute f(n,a) with a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_common(p, stable=True)
    p.set_defaults(fn=_cmd_f)

    p = sub.add_parser("g", help="compute g(n,m) with a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p, stable=True)
    p.set_defaults(fn=_cmd_g)

    p = sub.add_parser("lp", help="build and solve the exact LP relaxation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--export", help="also write the sparse text form to this path")
    _add_common(p, stable=True)
    p.set_defaults(fn=_cmd_lp)

    p = sub.add_parser("bound", help="evaluate the certified upper bound")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="evaluate fbar(n,a) instead of the diagonal closed form")
    _add_common(p, budget=False)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("certify", help="build and verify the dual certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None,
                   help="also map the certificate onto the LP and verify the bound")
    _add_common(p, budget=False)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify", help="run theorem/lemma verifiers")
    p.add_argument("--claim", required=True, choices=("all",) + CLAIMS)
    p.add_argument("--n", type=int, default=None, help="restrict the claim scope to one n")
    _add_common(p, seed=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="reproduce a value table")
    p.add_argument("--what", required=True, choices=("f-aa", "bound", "fr"))
    p.add_argument("--from", dest="start", type=int, default=None)
    p.add_argument("--to", dest="stop", type=int, default=None)
    _add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("witness", help="emit an extremal family as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_common(p, formats=())
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("check", help="run the full desk-scale acceptance battery")
    _add_common(p, budget=False, stable=True)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        outcome = args.fn(args)
    except ValueError as exc:
        print(f"frankl-lab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "format", "json") == "json":  # witness has no --format
        payload = outcome.payload
        if getattr(args, "stable", False):
            payload = _scrub_timing(payload)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in outcome.lines:
            print(line)
    for line in outcome.err:
        print(line, file=sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
