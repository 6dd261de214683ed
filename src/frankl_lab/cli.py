"""Batch command-line interface.

Commands: f, g, lp, bound, certify, verify, table, witness, check.
Output goes to stdout (text by default, --format json/csv), diagnostics
to stderr.  Exit codes: 0 success, 1 invalid arguments, 2 budget
exhausted with partial output, 3 verification violation (a theorem
contradiction, i.e. a bug).

Identical invocations print byte-identical JSON when --stable is given:
the flag drops the wall-clock sidecar fields ("seconds"), which are the
only nondeterministic part of any payload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import checks as checks_mod
from .certificate import (bar_f, bar_f_diag, bound_table, make_certificate,
                          verify_certificate)
from .families import family_to_json
from .lp import build_relaxation, certificate_to_dual, problem_to_text, solve_exact, verify_dual_bound
from .search import SearchBudget, compute_f, compute_g
from .theorems import CLAIMS, run_claim

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


def _scrub_timing(obj):
    if isinstance(obj, dict):
        return {k: _scrub_timing(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_scrub_timing(v) for v in obj]
    return obj


def _emit_json(payload: dict, args) -> None:
    if args.stable:
        payload = _scrub_timing(payload)
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _budget_from(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _cmd_f(args) -> int:
    result = compute_f(args.n, args.a, _budget_from(args))
    if args.format == "json":
        _emit_json(result.to_json(), args)
    else:
        flag = "proven optimal" if result.proven_optimal else "lower bound (budget hit)"
        print(f"f({args.n},{args.a}) = {result.value} [{flag}], "
              f"witness of {len(result.witness)} sets, {result.nodes} nodes")
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET


def _cmd_g(args) -> int:
    result = compute_g(args.n, args.m, _budget_from(args))
    if args.format == "json":
        _emit_json(result.to_json(), args)
    else:
        flag = "proven optimal" if result.proven_optimal else "upper bound (budget hit)"
        print(f"g({args.n},{args.m}) = {result.value} [{flag}], {result.nodes} nodes")
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET


def _cmd_lp(args) -> int:
    problem = build_relaxation(args.n, args.a)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(problem_to_text(problem))
        print(f"wrote {len(problem.rows)} rows to {args.export}", file=sys.stderr)
    solution = solve_exact(problem, _budget_from(args))
    if args.format == "json":
        payload = solution.to_json()
        if solution.objective is not None:
            payload["floor"] = math.floor(solution.objective)
        _emit_json(payload, args)
    else:
        if solution.status == "optimal":
            print(f"f_r({args.n},{args.a}) = {solution.objective} "
                  f"(~{float(solution.objective):.4f}), floor {math.floor(solution.objective)}, "
                  f"{solution.pivots} pivots")
        else:
            print(f"status {solution.status}: best feasible value {solution.objective} "
                  f"after {solution.pivots} pivots")
    return EXIT_OK if solution.status == "optimal" else EXIT_BUDGET


def _cmd_bound(args) -> int:
    notes = []
    if args.n is None:
        value = bar_f_diag(args.a)
        if args.a == 9:
            notes = [bound_table(9, 9).notes[0]]
        label = {"a": args.a}
    else:
        value = bar_f(args.n, args.a)
        label = {"n": args.n, "a": args.a}
    floor = math.floor(value)
    if args.format == "json":
        _emit_json({**label, "floor": floor, "exact": str(value), "notes": notes}, args)
    else:
        print(f"{floor} (exact {value})")
        for note in notes:
            print(f"note: {note}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cert = make_certificate(args.n)
    report = verify_certificate(cert)
    payload = {"certificate": cert.to_json(), "verification": report.to_json()}
    dual_exit = EXIT_OK
    if args.a is not None:
        problem = build_relaxation(args.n, args.a)
        bound = verify_dual_bound(problem, certificate_to_dual(cert, problem))
        expected = bar_f(args.n, args.a)
        payload["dual_bound"] = {
            "value": str(bound),
            "floor": math.floor(bound),
            "matches_bar_f": bound == expected,
        }
        if bound != expected:
            dual_exit = EXIT_VIOLATION
    if args.format == "json":
        _emit_json(payload, args)
    else:
        print(f"certificate n={args.n}: alpha={cert.alpha} beta={cert.beta} gamma={cert.gamma}")
        for check in report.checks:
            mark = "ok" if check.passed else "FAIL"
            print(f"  [{mark}] {check.name} (slack {check.slack})")
        for note in report.notes:
            print(f"  note: {note}")
        if "dual_bound" in payload:
            d = payload["dual_bound"]
            print(f"  dual bound on f({args.n},{args.a}): {d['value']} "
                  f"(floor {d['floor']}, matches closed form: {d['matches_bar_f']})")
    # gamma < 0 below n = 7 is expected and flagged, not a contradiction
    hard_failures = [c for c in report.checks
                     if not c.passed and not (args.n < 7 and c.name == "gamma >= 0")]
    if hard_failures:
        return EXIT_VIOLATION
    return dual_exit


def _cmd_verify(args) -> int:
    claims = list(CLAIMS) if args.claim == "all" else [args.claim]
    kwargs = {}
    if args.n is not None and args.claim in ("thm-g", "thm-f-2n-minus-n", "missing-subsets",
                                             "missing-covering", "fg-duality"):
        kwargs["ns"] = (args.n,)
    if args.count is not None:
        kwargs["count"] = args.count
    if args.seed is not None:
        kwargs["base_seed"] = args.seed
    if args.max_nodes or args.max_seconds:
        kwargs["budget"] = _budget_from(args)
    reports = []
    for claim in claims:
        claim_kwargs = kwargs if args.claim != "all" else {}
        reports.append(run_claim(claim, **claim_kwargs))
    if args.format == "json":
        _emit_json({"reports": [r.to_json() for r in reports]}, args)
    else:
        for r in reports:
            print(f"{r.claim}: {r.status}")
            for v in r.violations[:10]:
                print(f"  violation: {v}")
            for note in r.notes:
                print(f"  note: {note}")
    if any(r.status == "violated" for r in reports):
        return EXIT_VIOLATION
    if any(r.status == "skipped" for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_table(args) -> int:
    lo, hi = args.start, args.stop
    if args.what == "bound":
        lo, hi = lo or 7, hi or 16
        table = bound_table(lo, hi)
        rows = table.rows
        notes = list(table.notes)
    elif args.what == "f-aa":
        lo, hi = lo or 1, hi or 5
        budget = _budget_from(args)
        rows = []
        notes = []
        for a in range(lo, hi + 1):
            r = compute_f(a, a, budget)
            rows.append((a, r.value))
            if not r.proven_optimal:
                notes.append(f"a={a}: budget exhausted, value is a lower bound")
    else:  # fr
        lo, hi = lo or 1, hi or 4
        rows = []
        notes = []
        for a in range(lo, hi + 1):
            sol = solve_exact(build_relaxation(a, a), _budget_from(args))
            rows.append((a, math.floor(sol.objective)))
            if sol.status == "optimal":
                notes.append(f"a={a}: exact value {sol.objective}")
            else:
                notes.append(f"a={a}: feasible lower bound {sol.objective}")
                notes.append(f"a={a}: status {sol.status}")
    if args.format == "csv":
        print("a,value")
        for a, v in rows:
            print(f"{a},{v}")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    elif args.format == "json":
        _emit_json({"what": args.what,
                    "rows": [{"a": a, "value": v} for a, v in rows],
                    "notes": notes}, args)
    else:
        for a, v in rows:
            print(f"{a:3d}  {v}")
        for note in notes:
            print(f"note: {note}")
    if any("budget" in n for n in notes):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_witness(args) -> int:
    result = compute_f(args.n, args.a, _budget_from(args))
    payload = family_to_json(result.witness)
    payload["f_value"] = result.value
    payload["proven_optimal"] = result.proven_optimal
    _emit_json(payload, args)  # the family JSON is the output in every format
    return EXIT_OK if result.proven_optimal else EXIT_BUDGET


def _cmd_check(args) -> int:
    results = checks_mod.run_all()
    if args.format == "json":
        _emit_json({"results": [{
            "criterion": r.criterion, "name": r.name, "passed": r.passed,
            "seconds": r.seconds, "limit": r.limit, "detail": r.detail,
        } for r in results]}, args)
    else:
        for r in results:
            print(r.line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def _add_common(parser, budget=True, seed=False):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
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
    _add_common(p)
    p.set_defaults(fn=_cmd_f)

    p = sub.add_parser("g", help="compute g(n,m) with a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_g)

    p = sub.add_parser("lp", help="build and solve the exact LP relaxation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--export", help="also write the sparse text form to this path")
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("witness", help="emit an extremal family as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("check", help="run the full desk-scale acceptance battery")
    _add_common(p, budget=False)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"frankl-lab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
