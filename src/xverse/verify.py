"""Executable invariance checks and the augmentation-number table.

Each check turns an invariance statement into an equality of augmentation
counts: conjugation and positive stabilization preserve hat-flavor counts,
negative stabilization preserves infinity-flavor counts, the double-hat
theory of a negatively stabilized braid has no augmentations, letter
reversal (the transverse mirror) never changes counts, swapping the roles
of the two deformation scalars matches inverting lambda and mu, the
infinity count is invariant under the alpha-rescaling of all four
scalars, and the count depends on the diagonal scaling matrix only
through its determinant.

A check is one row of `_TABLE`: its flavor and its move, which maps the
left count query at a grid point to the right one.  `_check_jobs` runs
the move once per sample (once in all for mirror and op_swap, which draw
nothing) and applies it at every grid point.  The default grid is
((2, 1),), and ((1, 1),) at p = 2.

`run_check` checks every grid point against the check's flavor, then
counts each distinct query of the check once, serially in order of first
appearance, and reuses the count for every pair that asks it; the memo
lives for one call only.  The budget bounds each count on its own, so
the first count over it stops the check.  Every count, here and in the
table, is cut where `augment.augmentation_number` cuts it by default.
Behind the counts, `augment` caches packed Phi per (word, prime) and the
scalar-free relations per (word, flavor, prime, cut, Lam override).
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .augment import (BudgetError, _budget_from_env, _scalar_point,
                      augmentation_number)
# re-exported only for the pinned acceptance tests, which import it from here
from .augment import _auto_split  # noqa: F401
from .braid import BraidWord, braid_stats, braid_transform, markov_move
from .ncpoly import FLAVORS, pow_mod


class CheckSpec(NamedTuple):
    braid: BraidWord
    check: str
    prime: int = 3
    grid: tuple | None = None
    samples: int = 5
    seed: int = 0


class CheckReport(NamedTuple):
    passed: bool
    cases: list[tuple[str, int, int]]


def _conjugate_then(move: str | None):
    """A random conjugation (none on one strand), then `move` if given."""
    def sample(b, p, rng, s):
        desc = "id"
        if b.strands > 1:
            k, sign = rng.randrange(1, b.strands), rng.choice((1, -1))
            b = markov_move(b, "conjugate", k=k, sign=sign)
            desc = f"conj(k={k},s={sign:+d})"
        if move:
            b, desc = markov_move(b, move), f"{desc}+{move}"
        return desc, lambda q: (b, *q[1:])
    return sample


def _reverse(b, p, rng, s):
    rev = braid_transform(b, "reverse")
    return "reverse", lambda q: (rev, *q[1:])


def _swap(b, p, rng, s):
    return "swap", lambda q: (*q[:3], pow_mod(q[3], -1, p),
                              pow_mod(q[4], -1, p), q[6], q[5], None)


def _rescale(b, p, rng, s):
    """(L, m, U, V) -> (alpha^-sl L, m / alpha, alpha U, V / alpha)."""
    alpha = rng.randrange(1, p)
    ai = pow_mod(alpha, -1, p)
    scale = (pow_mod(alpha, -braid_stats(b).self_linking, p), ai, alpha, ai)
    return f"alpha={alpha}", lambda q: (
        *q[:3], *(x * f % p for x, f in zip(q[3:7], scale)), None)


def _override(b, p, rng, s):
    """A random diagonal Lam, n entries (sign, L exponent, m exponent)
    whose product is L m^-writhe, the determinant of the default Lam."""
    entries = [(rng.choice((1, -1)), rng.randrange(-2, 3),
                rng.randrange(-2, 3)) for _ in range(b.strands - 1)]
    entries.append((math.prod(c for c, _, _ in entries),
                    1 - sum(le for _, le, _ in entries),
                    -braid_stats(b).writhe - sum(me for _, _, me in entries)))
    return f"override#{s}", lambda q: (*q[:7], tuple(entries))


# check: (flavor, move, sampled, right side is the count 0).  A move takes
# (braid, prime, rng, sample index) to the sample's desc and a map from the
# left count query (b, flavor, p, l0, m0, u0, v0, lam_override) to the
# right one.  A check that is not sampled draws nothing and makes one pass
# over the grid; the double-hat check counts the moved braid and expects 0.
_TABLE = {
    "conjugation": ("hat", _conjugate_then(None), True, False),
    "stab_pos": ("hat", _conjugate_then("stab_pos"), True, False),
    "stab_neg_infinity": ("infinity", _conjugate_then("stab_neg"), True, False),
    "mirror": ("hat", _reverse, False, False),
    "op_swap": ("infinity", _swap, False, False),
    "rescale": ("infinity", _rescale, True, False),
    "doublehat_stab": ("doublehat", _conjugate_then("stab_neg"), True, True),
    "lam_override": ("hat", _override, True, False),
}
CHECKS = tuple(_TABLE)


def _grid_points(spec: CheckSpec) -> list[tuple]:
    """The grid (by default ((2, 1),), or ((1, 1),) at p = 2, where 2 is
    0; an empty grid is an error) as the check's flavor takes it, every
    point checked by `augment._scalar_point` before any count runs:
    (lam0, mu0) for a check whose flavor fixes (U, V), and (lam0, mu0, u0,
    v0), with u0 and v0 1 unless given, for one whose flavor does not."""
    flavor = _TABLE[spec.check][0]
    fixed = FLAVORS[flavor].fixed
    grid = spec.grid
    if grid is None:
        grid = ((2, 1),) if spec.prime > 2 else ((1, 1),)
    if not grid:
        raise ValueError("the grid needs at least one point")
    points = []
    for point in grid:
        if len(point) not in (2, 4):
            raise ValueError(f"grid point needs 2 or 4 entries, got {point}")
        if len(point) == 4 and fixed:
            raise ValueError(f"the {spec.check} check fixes (U, V): a grid "
                             f"point is (lam0, mu0), got {point}")
        scalars = _scalar_point(flavor, spec.prime, *point)
        points.append(tuple(point) if fixed else scalars)
    return points


def _check_jobs(spec: CheckSpec) -> list[tuple]:
    """The check's (desc, left, right) pairs, in sample and grid order.
    Each side is a count query (b, flavor, p, l0, m0, u0, v0,
    lam_override), hashable, with a Lam override as a tuple of
    (sign, L exponent, m exponent) tuples; right is None when the left
    count must be 0."""
    if spec.check not in _TABLE:
        raise ValueError(f"unknown check {spec.check!r}; choose from {CHECKS}")
    if spec.samples < 1:
        raise ValueError("samples must be >= 1")
    flavor, move, sampled, zero = _TABLE[spec.check]
    points = _grid_points(spec)
    b, p, rng = spec.braid, spec.prime, random.Random(spec.seed)
    jobs: list[tuple] = []
    for s in range(spec.samples if sampled else 1):
        desc, moved = move(b, p, rng, s)
        for point in points:
            # a hat or double-hat point leaves u0 and v0 None
            left = (b, flavor, p, *point, None, None, None)[:8]
            at = f"{desc} @({','.join(map(str, point))})"
            jobs.append((at, moved(left), None) if zero
                        else (at, left, moved(left)))
    return jobs


def run_check(spec: CheckSpec, budget: int | None = None) -> CheckReport:
    """Run one check.  Pairs often repeat a count (the unchanged braid is
    counted against every sample), so each distinct query is counted once,
    in order of first appearance: the first count over `budget` is the
    one a pair-by-pair run would reach first."""
    jobs = _check_jobs(spec)
    budget = _budget_from_env(budget)
    found: dict[tuple, int] = {}
    for _, left, right in jobs:
        for query in filter(None, (left, right)):
            if query not in found:
                b, flavor, p, l0, m0, u0, v0, override = query
                found[query] = augmentation_number(
                    b, flavor, p, l0, m0, u0=u0, v0=v0,
                    lam_override=override, budget=budget).count
    cases = [(desc, found[left], 0 if right is None else found[right])
             for desc, left, right in jobs]
    cases.sort(key=lambda c: c[0])
    return CheckReport(passed=all(l == r for _, l, r in cases), cases=cases)


# ---------------------------------------------------------------------------
# The reference table of hat-flavor counts over Z/3.  Each row gives braid
# words for representatives of the same topological knot that the counts
# tell apart (or fail to), with the scalar point and expected values.
# ---------------------------------------------------------------------------

TABLE_PRIME = 3

TABLE_ROWS: list[tuple[str, tuple[int, int], list[tuple[str, int]]]] = [
    ("m(7_2)", (2, 1), [("3 3 -2 3 2 1 1 2 -1", 0),
                        ("3 3 -2 3 2 -1 2 1 1", 5)]),
    ("m(7_6)", (2, 1), [("1 -2 1 -2 -3 2 3 3 3", 5),
                        ("1 -2 1 -2 3 3 3 2 -3", 0)]),
    ("9_44", (2, 1), [("-3 1 2 -3 -2 3 1 -2 -3", 5),
                      ("-2 -3 2 1 2 -3 -2 1 -2", 0),
                      ("reverse:-2 -3 2 1 2 -3 -2 1 -2", 0)]),
    ("9_48", (2, 1), [("-2 3 3 2 -1 2 -3 2 1 1 -2", 4),
                      ("2 3 3 2 -1 -2 -2 -3 2 1 1", 0)]),
    ("m(10_132)", (1, 1), [("3 -2 -2 3 3 2 -3 -1 2 1 1", 0),
                           ("3 -2 -2 3 3 2 -3 1 1 2 -1", 1)]),
    ("10_136", (2, 1), [("-1 2 -1 2 3 3 -2 1 -2 -3 2", 5),
                        ("-2 3 -2 -1 -2 3 -2 1 1 1 3", 0)]),
    ("m(10_140)", (2, 1), [("1 1 -2 1 2 -1 -1 -3 2 3 3", 1),
                           ("1 1 -2 1 2 -1 -1 3 3 2 -3", 2)]),
    ("m(10_145)", (1, 1), [("-2 3 3 2 -1 2 1 3 2 2 1 -4", 0),
                           ("3 2 1 -3 -4 -2 -3 1 2 2 1 3 4 4", 1)]),
    ("m(10_161)", (1, 1), [("-1 2 1 1 1 2 2 1 1 2 -3", 0),
                           ("2 -1 2 2 1 3 3 2 2 2 -1 2 -3", 1)]),
    ("12n_591", (1, 1), [("3 2 3 2 -1 3 2 1 3 2 1 2 1 -4", 0),
                         ("-2 -3 -1 -2 4 3 4 3 2 1 2 1 2 1 4 3 4 3", 1)]),
]


class TableRowResult(NamedTuple):
    name: str
    point: tuple[int, int]
    expected: list[int]
    computed: list[int | None]
    errors: list[str]
    passed: bool


class TableReport(NamedTuple):
    rows: list[TableRowResult]
    passed: bool


def _row_key(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def _table_braid(text: str) -> BraidWord:
    from .braid import parse_braid
    if text.startswith("reverse:"):
        return braid_transform(parse_braid(text[len("reverse:"):]), "reverse")
    return parse_braid(text)


def reproduce_table(rows: list[str] | None = None,
                    budget: int | None = None) -> TableReport:
    """Recompute the reference counts over Z/`TABLE_PRIME`, of every row
    or of the named `rows` (an empty selection is an error)."""
    if rows is not None and not rows:
        raise ValueError("the table selection needs at least one row")
    known = {_row_key(name) for name, _, _ in TABLE_ROWS}
    for r in rows or ():
        if _row_key(r) not in known:
            raise ValueError(f"unknown table row {r!r}")
    budget = _budget_from_env(budget)
    wanted = None if rows is None else {_row_key(r) for r in rows}
    out = []
    for name, point, entries in TABLE_ROWS:
        if wanted is not None and _row_key(name) not in wanted:
            continue
        computed: list[int | None] = []
        errors: list[str] = []
        for text, _ in entries:
            b = _table_braid(text)
            try:
                computed.append(augmentation_number(
                    b, "hat", TABLE_PRIME, *point, budget=budget).count)
            except BudgetError as e:
                computed.append(None)
                errors.append(f"{text}: {e}")
        expected = [want for _, want in entries]
        out.append(TableRowResult(
            name=name, point=point, expected=expected, computed=computed,
            errors=errors, passed=computed == expected))
    return TableReport(rows=out, passed=all(r.passed for r in out))
