"""Command-line interface.

Subcommands: braid, dga, ht0, aug (count|poly|compare), verify, table,
check.  Output is deterministic for fixed arguments and seed; scalars are
printed as L, m, U, V.  Exit codes: 0 for any completed computation
(including failing verdicts), 2 for usage errors, 3 when the evaluation
budget is exceeded, except in `table`, which records a count over the
budget (`?`, a `budget:` line and a failing row) and exits 0.  A usage
error is argparse's own, or any ValueError or EliminationError that a
command or the library raises; `main` reports each through the parser of
the command that ran, so the usage line names it (`usage: xverse aug
count ...`).
A flag that would be ignored is a usage error, except `verify`'s
`--samples` and required `--seed`, which the unsampled checks (mirror,
op_swap) accept and ignore.  Counts run serially in one process;
`--budget` (or XVERSE_BUDGET) bounds the incremental evaluations of each
count at the cut `augmentation_number` picks, and the library checks
both; `aug poly` takes no budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .augment import (PRIMES, BudgetError, EliminationError,
                      augmentation_number, augmentation_polynomial_index2)
from .braid import BraidWord, braid_stats, parse_braid
from .dga import FLAVORS, build_dga, verify_d_squared, verify_phi_factorization
from .ht0 import ht0_relations, reduced_relations
from .verify import (CHECKS, TABLE_PRIME, CheckSpec, reproduce_table,
                     run_check)

JSON_SCHEMA_VERSION = 1


def _parse_braid_arg(args) -> BraidWord:
    return parse_braid(args.braid, strands=args.strands)


def _parse_grid(text: str):
    """Grid syntax: semicolon-separated points, each 'l,m' or 'l,m,u,v';
    `verify` checks them against the check's flavor."""
    return tuple(tuple(int(x) for x in chunk.split(","))
                 for chunk in text.split(";"))


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        payload = {"schema": JSON_SCHEMA_VERSION, **payload}
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_braid(args) -> int:
    b = _parse_braid_arg(args)
    s = braid_stats(b)
    payload = {"writhe": s.writhe, "strands": s.strands,
               "sl": s.self_linking, "knot": s.is_knot}
    _emit(payload, args.json, [json.dumps(payload)])
    return 0


def _cmd_dga(args) -> int:
    b = _parse_braid_arg(args)
    dga = build_dga(b, args.flavor)
    lines = [f"flavor: {args.flavor}", f"sl: {dga.sl}",
             "generators: " + " ".join(str(g) for g in dga.generators)]
    for g in dga.generators:
        lines.append(f"d({g}) = {dga.diff[g]}")
    payload = {
        "flavor": args.flavor,
        "sl": dga.sl,
        "generators": [str(g) for g in dga.generators],
        "differentials": {str(g): str(dga.diff[g]) for g in dga.generators},
        "phi_l": [[str(e) for e in row] for row in dga.phi_l.rows],
        "phi_r": [[str(e) for e in row] for row in dga.phi_r.rows],
    }
    _emit(payload, args.json, lines)
    return 0


def _cmd_ht0(args) -> int:
    b = _parse_braid_arg(args)
    pres = ht0_relations(b, args.flavor, split=args.split)
    rels = reduced_relations(pres) if args.reduced else pres.relations
    lines = [f"flavor: {args.flavor}", f"sl: {pres.sl}",
             "variables: " + " ".join(str(v) for v in pres.variables)]
    lines += [f"rel[{i}] = {r}" for i, r in enumerate(rels)]
    payload = {"flavor": args.flavor, "sl": pres.sl,
               "variables": [str(v) for v in pres.variables],
               "relations": [str(r) for r in rels],
               "reduced": bool(args.reduced)}
    _emit(payload, args.json, lines)
    return 0


def _cmd_aug_count(args) -> int:
    b = _parse_braid_arg(args)
    res = augmentation_number(b, args.flavor, args.prime, args.lam, args.mu,
                              u0=args.u0, v0=args.v0, split=args.split,
                              budget=args.budget)
    payload = {"count": res.count, "flavor": args.flavor,
               "prime": args.prime, "lam": args.lam, "mu": args.mu,
               "u0": args.u0, "v0": args.v0}
    _emit(payload, args.json, [f"count = {res.count}"])
    return 0


def _cmd_aug_poly(args) -> int:
    b = _parse_braid_arg(args)
    res = augmentation_polynomial_index2(b)
    payload = {"poly": str(res.poly),
               "may_have_repeated_factors": res.may_have_repeated_factors}
    _emit(payload, args.json,
          [str(res.poly), "note: repeated factors are not removed"])
    return 0


def _cmd_aug_compare(args) -> int:
    ba, bb = parse_braid(args.braid_a), parse_braid(args.braid_b)
    p = args.prime
    if args.grid and (args.lam, args.mu) != (None, None):
        raise ValueError("--grid sweeps every (lam, mu); it takes no --lam or --mu")
    points = ([(l, m) for l in range(1, p) for m in range(1, p)]
              if args.grid else [(1 if args.lam is None else args.lam,
                                  1 if args.mu is None else args.mu)])
    cases = []
    distinct = False
    for l0, m0 in points:
        ca = augmentation_number(ba, args.flavor, p, l0, m0,
                                 budget=args.budget).count
        cb = augmentation_number(bb, args.flavor, p, l0, m0,
                                 budget=args.budget).count
        cases.append({"lam": l0, "mu": m0, "count_a": ca, "count_b": cb})
        if ca != cb:
            distinct = True
    verdict = ("distinct transverse knots" if distinct
               else "indistinguishable on tested grid")
    lines = [f"({c['lam']},{c['mu']}): {c['count_a']} vs {c['count_b']}"
             for c in cases] + [f"verdict: {verdict}"]
    _emit({"verdict": verdict, "cases": cases}, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    b = _parse_braid_arg(args)
    grid = None if args.grid is None else _parse_grid(args.grid)
    spec = CheckSpec(braid=b, check=args.check, prime=args.prime,
                     grid=grid, samples=args.samples, seed=args.seed)
    report = run_check(spec, budget=args.budget)
    lines = [f"{desc}: {l} vs {r}" for desc, l, r in report.cases]
    lines.append("pass" if report.passed else "fail")
    payload = {"check": args.check, "passed": report.passed,
               "cases": [{"case": d, "left": l, "right": r}
                         for d, l, r in report.cases]}
    _emit(payload, args.json, lines)
    return 0


def _cmd_table(args) -> int:
    rows = None if args.rows is None else args.rows.split(",")
    report = reproduce_table(rows=rows, budget=args.budget)
    lines = []
    for r in report.rows:
        got = " ".join("?" if c is None else str(c) for c in r.computed)
        want = " ".join(str(e) for e in r.expected)
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:11s} @{r.point} expected [{want}] got [{got}] {status}")
        lines += [f"  budget: {err}" for err in r.errors]
    lines.append("pass" if report.passed else "fail")
    payload = {"prime": TABLE_PRIME, "passed": report.passed,
               "rows": [{"name": r.name, "point": list(r.point),
                         "expected": r.expected, "computed": r.computed,
                         "errors": r.errors, "passed": r.passed}
                        for r in report.rows]}
    _emit(payload, args.json, lines)
    return 0


def _cmd_check(args) -> int:
    b = _parse_braid_arg(args)
    if args.what == "d2":
        dga = build_dga(b, args.flavor or "minus")
        failures = verify_d_squared(dga)
        payload = {"check": "d2", "passed": not failures,
                   "failures": [str(g) for g, _ in failures]}
        lines = [f"d2 residual at {g}" for g, _ in failures]
    else:
        if args.flavor is not None:
            raise ValueError("check lemma29 takes no --flavor")
        failures = verify_phi_factorization(b)
        payload = {"check": "lemma29", "passed": not failures,
                   "failures": failures}
        lines = [f"factorization identity fails for: {f}" for f in failures]
    lines.append("pass" if payload["passed"] else "fail")
    _emit(payload, args.json, lines)
    return 0


def _add_common(sp):
    sp.add_argument("--braid", required=True,
                    help="space-separated signed generator indices")
    sp.add_argument("--strands", type=int, default=None,
                    help="strand count override (needed for the empty word)")
    sp.add_argument("--json", action="store_true", help="JSON output")


def _command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """A subcommand's parser, recording its handler and itself, so that
    `main` reports a usage error with the usage line of the command that
    ran."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run, usage=p)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    argparse formats usage and help text only when it prints them."""
    parser = argparse.ArgumentParser(prog="xverse")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = _command(sub, "braid", _cmd_braid, "writhe, self-linking, knot/link")
    _add_common(p)

    p = _command(sub, "dga", _cmd_dga, "generators and differentials")
    _add_common(p)
    p.add_argument("--flavor", default="minus", choices=FLAVORS)

    p = _command(sub, "ht0", _cmd_ht0, "degree-0 relations")
    _add_common(p)
    p.add_argument("--flavor", default="minus", choices=FLAVORS)
    p.add_argument("--split", type=int, default=None,
                   help="cut position in the letter sequence")
    p.add_argument("--reduced", action="store_true",
                   help="simplify: adjoin the dB consequences, run the bounded "
                        "substitution pass and interreduce")

    aug = sub.add_parser("aug", help="augmentation counts and polynomials")
    augsub = aug.add_subparsers(dest="augcmd", required=True)

    p = _command(augsub, "count", _cmd_aug_count, "count augmentations over Z/p")
    _add_common(p)
    p.add_argument("--flavor", default="hat", choices=FLAVORS)
    p.add_argument("--prime", type=int, required=True, choices=PRIMES)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--u0", type=int, default=None)
    p.add_argument("--v0", type=int, default=None)
    p.add_argument("--split", type=int, default=None,
                   help="cut position in the letter sequence; by default "
                        "the program picks it, and 0 counts the whole word")
    p.add_argument("--budget", type=int, default=None)

    p = _command(augsub, "poly", _cmd_aug_poly, "two-strand augmentation polynomial")
    _add_common(p)

    p = _command(augsub, "compare", _cmd_aug_compare, "compare counts of two braids")
    p.add_argument("--braid-a", required=True)
    p.add_argument("--braid-b", required=True)
    p.add_argument("--flavor", default="hat", choices=FLAVORS)
    p.add_argument("--prime", type=int, required=True, choices=PRIMES)
    p.add_argument("--lam", type=int, default=None, help="default 1")
    p.add_argument("--mu", type=int, default=None, help="default 1")
    p.add_argument("--grid", action="store_true",
                   help="sweep all nonzero (lam, mu) pairs")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = _command(sub, "verify", _cmd_verify, "invariance checks on counts")
    _add_common(p)
    p.add_argument("--check", required=True, choices=CHECKS)
    p.add_argument("--prime", type=int, default=3, choices=PRIMES)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", default=None,
                   help="semicolon-separated points 'l,m', or 'l,m,u,v' "
                        "for the infinity checks")
    p.add_argument("--budget", type=int, default=None)

    p = _command(sub, "table", _cmd_table, "reproduce the reference count table")
    p.add_argument("--rows", default=None,
                   help="comma-separated row names, e.g. m72,9_48")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = _command(sub, "check", _cmd_check, "symbolic identity checks")
    p.add_argument("what", choices=("d2", "lemma29"))
    _add_common(p)
    p.add_argument("--flavor", default=None, choices=FLAVORS,
                   help="flavor of the d2 check (default minus)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as e:
        print(e, file=sys.stderr)
        return 3
    except (ValueError, EliminationError) as e:
        # bad braids, flavors, points, rows and cuts; BraidError and
        # DgaError are ValueErrors
        args.usage.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
