"""Command-line interface.

Subcommands: braid, dga, ht0, aug (count|poly|compare), verify, table,
check.  Output is deterministic for fixed arguments and seed; scalars are
printed as L, m, U, V.  Exit codes: 0 for any completed computation
(including failing verdicts), 2 for usage errors, 3 when the evaluation
budget is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .augment import (PRIMES, BudgetError, EliminationError,
                      augmentation_number, augmentation_polynomial_index2)
from .braid import BraidError, BraidWord, braid_stats, parse_braid
from .dga import (DgaError, build_dga, verify_d_squared,
                  verify_phi_factorization)
from .ht0 import ht0_relations, reduced_relations
from .verify import CHECKS, CheckSpec, reproduce_table, run_check

JSON_SCHEMA_VERSION = 1


def _parse_braid_arg(parser, args) -> BraidWord:
    try:
        return parse_braid(args.braid, strands=args.strands)
    except BraidError as e:
        parser.error(str(e))


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _parse_grid(text: str, prime: int):
    """Grid syntax: semicolon-separated points, each 'l,m' or 'l,m,u,v'."""
    points = []
    for chunk in text.split(";"):
        parts = [int(x) for x in chunk.split(",")]
        if len(parts) not in (2, 4):
            raise ValueError(f"grid point needs 2 or 4 entries: {chunk!r}")
        points.append(tuple(parts))
    return tuple(points)


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        payload = {"schema": JSON_SCHEMA_VERSION, **payload}
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_braid(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    s = braid_stats(b)
    print(json.dumps({"writhe": s.writhe, "strands": s.strands,
                      "sl": s.self_linking, "knot": s.is_knot}))
    return 0


def _cmd_dga(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    try:
        dga = build_dga(b, args.flavor)
    except DgaError as e:
        parser.error(str(e))
    lines = [f"flavor: {args.flavor}", f"sl: {dga.sl}",
             "generators: " + " ".join(str(g) for g in dga.generators)]
    for g in dga.generators:
        lines.append(f"d({g}) = {dga.diff[g]}")
    payload = {
        "flavor": args.flavor,
        "sl": dga.sl,
        "generators": [str(g) for g in dga.generators],
        "differentials": {str(g): str(dga.diff[g]) for g in dga.generators},
        "phi_l": [[str(dga.phi_l.at(i, j)) for j in range(1, b.strands + 1)]
                  for i in range(1, b.strands + 1)],
        "phi_r": [[str(dga.phi_r.at(i, j)) for j in range(1, b.strands + 1)]
                  for i in range(1, b.strands + 1)],
    }
    _emit(payload, args.json, lines)
    return 0


def _cmd_ht0(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    try:
        pres = ht0_relations(b, args.flavor, split=args.split)
    except DgaError as e:
        parser.error(str(e))
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


def _cmd_aug_count(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    try:
        res = augmentation_number(
            b, args.flavor, args.prime, args.lam, args.mu,
            u0=args.u0, v0=args.v0, split=args.split,
            no_elim=args.no_elim, budget=args.budget, threads=args.threads)
    except (ValueError, BraidError) as e:
        parser.error(str(e))
    payload = {"count": res.count, "flavor": args.flavor,
               "prime": args.prime, "lam": args.lam, "mu": args.mu,
               "u0": args.u0, "v0": args.v0}
    _emit(payload, args.json, [f"count = {res.count}"])
    return 0


def _cmd_aug_poly(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    try:
        res = augmentation_polynomial_index2(b, budget=args.budget)
    except EliminationError as e:
        parser.error(str(e))
    payload = {"poly": str(res.poly),
               "may_have_repeated_factors": res.may_have_repeated_factors}
    _emit(payload, args.json,
          [str(res.poly), "note: repeated factors are not removed"])
    return 0


def _cmd_aug_compare(parser, args) -> int:
    try:
        ba = parse_braid(args.braid_a)
        bb = parse_braid(args.braid_b)
    except BraidError as e:
        parser.error(str(e))
    p = args.prime
    points = ([(l, m) for l in range(1, p) for m in range(1, p)]
              if args.grid else [(args.lam, args.mu)])
    cases = []
    distinct = False
    try:
        for l0, m0 in points:
            ca = augmentation_number(ba, args.flavor, p, l0, m0,
                                     budget=args.budget,
                                     threads=args.threads).count
            cb = augmentation_number(bb, args.flavor, p, l0, m0,
                                     budget=args.budget,
                                     threads=args.threads).count
            cases.append({"lam": l0, "mu": m0, "count_a": ca, "count_b": cb})
            if ca != cb:
                distinct = True
    except ValueError as e:
        parser.error(str(e))
    verdict = ("distinct transverse knots" if distinct
               else "indistinguishable on tested grid")
    lines = [f"({c['lam']},{c['mu']}): {c['count_a']} vs {c['count_b']}"
             for c in cases] + [f"verdict: {verdict}"]
    _emit({"verdict": verdict, "cases": cases}, args.json, lines)
    return 0


def _cmd_verify(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    if args.grid is not None:
        try:
            grid = _parse_grid(args.grid, args.prime)
        except ValueError as e:
            parser.error(str(e))
    else:
        grid = ((2, 1),) if args.prime > 2 else ((1, 1),)
    spec = CheckSpec(braid=b, check=args.check, prime=args.prime,
                     grid=grid, samples=args.samples, seed=args.seed)
    try:
        report = run_check(spec, budget=args.budget, threads=args.threads)
    except ValueError as e:
        parser.error(str(e))
    lines = [f"{desc}: {l} vs {r}" for desc, l, r in report.cases]
    lines.append("pass" if report.passed else "fail")
    payload = {"check": args.check, "passed": report.passed,
               "cases": [{"case": d, "left": l, "right": r}
                         for d, l, r in report.cases]}
    _emit(payload, args.json, lines)
    return 0


def _cmd_table(parser, args) -> int:
    rows = args.rows.split(",") if args.rows else None
    try:
        report = reproduce_table(prime=args.prime, rows=rows,
                                 budget=args.budget, threads=args.threads)
    except ValueError as e:
        parser.error(str(e))
    lines = []
    for r in report.rows:
        got = " ".join("?" if c is None else str(c) for c in r.computed)
        want = " ".join(str(e) for e in r.expected)
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:11s} @{r.point} expected [{want}] got [{got}] {status}")
        lines += [f"  budget: {err}" for err in r.errors]
    lines.append("pass" if report.passed else "fail")
    payload = {"prime": report.prime, "passed": report.passed,
               "rows": [{"name": r.name, "point": list(r.point),
                         "expected": r.expected, "computed": r.computed,
                         "errors": r.errors, "passed": r.passed}
                        for r in report.rows]}
    _emit(payload, args.json, lines)
    return 0


def _cmd_check(parser, args) -> int:
    b = _parse_braid_arg(parser, args)
    if args.what == "d2":
        try:
            dga = build_dga(b, args.flavor)
        except DgaError as e:
            parser.error(str(e))
        failures = verify_d_squared(dga)
        payload = {"check": "d2", "passed": not failures,
                   "failures": [str(g) for g, _ in failures]}
        lines = [f"d2 residual at {g}" for g, _ in failures]
    else:
        failures = verify_phi_factorization(b)
        payload = {"check": "lemma29", "passed": not failures,
                   "failures": failures}
        lines = [f"factorization identity fails for: {f}" for f in failures]
    lines.append("pass" if payload["passed"] else "fail")
    _emit(payload, args.json, lines)
    return 0


def _add_common(sp, braid=True, strands=True):
    if braid:
        sp.add_argument("--braid", required=True,
                        help="space-separated signed generator indices")
    if strands:
        sp.add_argument("--strands", type=int, default=None,
                        help="strand count override (needed for the empty word)")
    sp.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xverse")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("braid", help="writhe, self-linking, knot/link")
    _add_common(p)

    p = sub.add_parser("dga", help="generators and differentials")
    _add_common(p)
    p.add_argument("--flavor", default="minus",
                   choices=("minus", "hat", "doublehat", "infinity"))

    p = sub.add_parser("ht0", help="degree-0 relations")
    _add_common(p)
    p.add_argument("--flavor", default="minus",
                   choices=("minus", "hat", "doublehat", "infinity"))
    p.add_argument("--split", type=int, default=None,
                   help="cut position in the letter sequence")
    p.add_argument("--reduced", action="store_true",
                   help="run the bounded substitution pass first")

    aug = sub.add_parser("aug", help="augmentation counts and polynomials")
    augsub = aug.add_subparsers(dest="augcmd", required=True)

    p = augsub.add_parser("count", help="count augmentations over Z/p")
    _add_common(p)
    p.add_argument("--flavor", default="hat",
                   choices=("minus", "hat", "doublehat", "infinity"))
    p.add_argument("--prime", type=int, required=True, choices=PRIMES)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--u0", type=int, default=None)
    p.add_argument("--v0", type=int, default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--no-elim", action="store_true",
                   help="disable the linear pre-elimination pass")
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=_int_at_least(0), default=None)

    p = augsub.add_parser("poly", help="two-strand augmentation polynomial")
    _add_common(p)
    p.add_argument("--budget", type=_int_at_least(0), default=None)

    p = augsub.add_parser("compare", help="compare counts of two braids")
    p.add_argument("--braid-a", required=True)
    p.add_argument("--braid-b", required=True)
    p.add_argument("--flavor", default="hat",
                   choices=("minus", "hat", "doublehat", "infinity"))
    p.add_argument("--prime", type=int, required=True, choices=PRIMES)
    p.add_argument("--lam", type=int, default=1)
    p.add_argument("--mu", type=int, default=1)
    p.add_argument("--grid", action="store_true",
                   help="sweep all nonzero (lam, mu) pairs")
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="invariance checks on counts")
    _add_common(p)
    p.add_argument("--check", required=True, choices=CHECKS)
    p.add_argument("--prime", type=int, default=3, choices=PRIMES)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", default=None,
                   help="semicolon-separated points 'l,m' or 'l,m,u,v'")
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=_int_at_least(0), default=None)

    p = sub.add_parser("table", help="reproduce the reference count table")
    p.add_argument("--prime", type=int, default=3, choices=PRIMES)
    p.add_argument("--rows", default=None,
                   help="comma-separated row names, e.g. m72,9_48")
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="symbolic identity checks")
    p.add_argument("what", choices=("d2", "lemma29"))
    _add_common(p)
    p.add_argument("--flavor", default="minus",
                   choices=("minus", "hat", "doublehat", "infinity"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except BudgetError as e:
        print(e, file=sys.stderr)
        return 3


def _dispatch(parser, args) -> int:
    if args.cmd == "braid":
        return _cmd_braid(parser, args)
    if args.cmd == "dga":
        return _cmd_dga(parser, args)
    if args.cmd == "ht0":
        return _cmd_ht0(parser, args)
    if args.cmd == "aug":
        if args.augcmd == "count":
            return _cmd_aug_count(parser, args)
        if args.augcmd == "poly":
            return _cmd_aug_poly(parser, args)
        return _cmd_aug_compare(parser, args)
    if args.cmd == "verify":
        return _cmd_verify(parser, args)
    if args.cmd == "table":
        return _cmd_table(parser, args)
    return _cmd_check(parser, args)


if __name__ == "__main__":
    sys.exit(main())
