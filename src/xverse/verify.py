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
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .augment import BudgetError, augmentation_number
from .braid import BraidWord, braid_stats, braid_transform, markov_move
from .ncpoly import pow_mod

CHECKS = ("conjugation", "stab_pos", "stab_neg_infinity", "mirror",
          "op_swap", "rescale", "doublehat_stab", "lam_override")


@dataclass
class CheckSpec:
    braid: BraidWord
    check: str
    prime: int = 3
    grid: tuple = ((2, 1),)
    samples: int = 5
    seed: int = 0


@dataclass
class CheckReport:
    passed: bool
    cases: list[tuple[str, int, int]] = field(default_factory=list)


def _auto_split(b: BraidWord) -> int | None:
    """Split long words; the factor matrices stay small and the relations
    stay sparse enough for pre-elimination to bite."""
    if len(b.letters) >= 9 or b.strands >= 5:
        return len(b.letters) // 2
    return None


def _count(b: BraidWord, flavor: str, prime: int, lam0: int, mu0: int,
           u0=None, v0=None, lam_override=None, budget=None) -> int:
    return augmentation_number(b, flavor, prime, lam0, mu0, u0=u0, v0=v0,
                               split=_auto_split(b), lam_override=lam_override,
                               budget=budget).count


def _point4(point, prime):
    """Fill a grid point up to (lam0, mu0, u0, v0) for the infinity flavor."""
    if len(point) == 2:
        return (point[0], point[1], 1, 1)
    if len(point) == 4:
        return tuple(point)
    raise ValueError(f"grid point needs 2 or 4 entries, got {point}")


def _random_conjugation(b: BraidWord, rng: random.Random) -> tuple[BraidWord, str]:
    if b.strands < 2:
        return b, "id"
    k = rng.randrange(1, b.strands)
    sign = rng.choice((1, -1))
    return markov_move(b, "conjugate", k=k, sign=sign), f"conj(k={k},s={sign:+d})"


def run_check(spec: CheckSpec, budget: int | None = None,
              threads: int = 1) -> CheckReport:
    if spec.check not in CHECKS:
        raise ValueError(f"unknown check {spec.check!r}; choose from {CHECKS}")
    if spec.samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(spec.seed)
    b = spec.braid
    p = spec.prime
    jobs: list[tuple[str, ...]] = []  # (desc, fn args) resolved below

    def pair(desc, left_args, right_args):
        jobs.append((desc, left_args, right_args))

    if spec.check in ("conjugation", "stab_pos"):
        for s in range(spec.samples):
            moved, desc = _random_conjugation(b, rng)
            if spec.check == "stab_pos":
                moved = markov_move(moved, "stab_pos")
                desc += "+stab_pos"
            for l0, m0 in ((g[0], g[1]) for g in spec.grid):
                pair(f"{desc} @({l0},{m0})",
                     (b, "hat", p, l0, m0, None, None, None),
                     (moved, "hat", p, l0, m0, None, None, None))
    elif spec.check == "stab_neg_infinity":
        for s in range(spec.samples):
            moved, desc = _random_conjugation(b, rng)
            moved = markov_move(moved, "stab_neg")
            desc += "+stab_neg"
            for g in spec.grid:
                l0, m0, u0, v0 = _point4(g, p)
                pair(f"{desc} @({l0},{m0},{u0},{v0})",
                     (b, "infinity", p, l0, m0, u0, v0, None),
                     (moved, "infinity", p, l0, m0, u0, v0, None))
    elif spec.check == "mirror":
        rev = braid_transform(b, "reverse")
        for l0, m0 in ((g[0], g[1]) for g in spec.grid):
            pair(f"reverse @({l0},{m0})",
                 (b, "hat", p, l0, m0, None, None, None),
                 (rev, "hat", p, l0, m0, None, None, None))
    elif spec.check == "op_swap":
        for g in spec.grid:
            l0, m0, u0, v0 = _point4(g, p)
            li, mi = pow_mod(l0, -1, p), pow_mod(m0, -1, p)
            pair(f"swap @({l0},{m0},{u0},{v0})",
                 (b, "infinity", p, l0, m0, u0, v0, None),
                 (b, "infinity", p, li, mi, v0, u0, None))
    elif spec.check == "rescale":
        sl = braid_stats(b).self_linking
        for s in range(spec.samples):
            alpha = rng.randrange(1, p)
            for g in spec.grid:
                l0, m0, u0, v0 = _point4(g, p)
                ai = pow_mod(alpha, -1, p)
                l1 = l0 * pow_mod(alpha, -sl, p) % p
                pair(f"alpha={alpha} @({l0},{m0},{u0},{v0})",
                     (b, "infinity", p, l0, m0, u0, v0, None),
                     (b, "infinity", p, l1, m0 * ai % p,
                      u0 * alpha % p, v0 * ai % p, None))
    elif spec.check == "doublehat_stab":
        for s in range(spec.samples):
            moved, desc = _random_conjugation(b, rng)
            moved = markov_move(moved, "stab_neg")
            for l0, m0 in ((g[0], g[1]) for g in spec.grid):
                pair(f"{desc}+stab_neg @({l0},{m0})",
                     (moved, "doublehat", p, l0, m0, None, None, None),
                     None)
    elif spec.check == "lam_override":
        w = braid_stats(b).writhe
        n = b.strands
        for s in range(spec.samples):
            entries = []
            lsum = msum = 0
            csign = 1
            for _ in range(n - 1):
                c = rng.choice((1, -1))
                le = rng.randrange(-2, 3)
                me = rng.randrange(-2, 3)
                entries.append((c, le, me))
                csign *= c
                lsum += le
                msum += me
            entries.append((csign, 1 - lsum, -w - msum))
            for l0, m0 in ((g[0], g[1]) for g in spec.grid):
                pair(f"override#{s} @({l0},{m0})",
                     (b, "hat", p, l0, m0, None, None, None),
                     (b, "hat", p, l0, m0, None, None, entries))

    def run_one(job):
        desc, left, right = job
        lc = _count(left[0], left[1], left[2], left[3], left[4],
                    u0=left[5], v0=left[6], lam_override=left[7], budget=budget)
        if right is None:
            return desc, lc, 0
        rc = _count(right[0], right[1], right[2], right[3], right[4],
                    u0=right[5], v0=right[6], lam_override=right[7], budget=budget)
        return desc, lc, rc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cases = list(pool.map(run_one, jobs))
    else:
        cases = [run_one(j) for j in jobs]
    cases.sort(key=lambda c: c[0])
    return CheckReport(passed=all(l == r for _, l, r in cases), cases=cases)


# ---------------------------------------------------------------------------
# The reference table of hat-flavor counts over Z/3.  Each row gives braid
# words for representatives of the same topological knot that the counts
# tell apart (or fail to), with the scalar point and expected values.
# ---------------------------------------------------------------------------

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


@dataclass
class TableRowResult:
    name: str
    point: tuple[int, int]
    expected: list[int]
    computed: list[int | None]
    errors: list[str]
    passed: bool


@dataclass
class TableReport:
    prime: int
    rows: list[TableRowResult]
    passed: bool


def _row_key(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def _table_braid(text: str) -> BraidWord:
    from .braid import parse_braid
    if text.startswith("reverse:"):
        return braid_transform(parse_braid(text[len("reverse:"):]), "reverse")
    return parse_braid(text)


def reproduce_table(prime: int = 3, rows: list[str] | None = None,
                    budget: int | None = None, threads: int = 1) -> TableReport:
    """Recompute the reference counts.  Only Z/3 has pinned expectations."""
    if prime != 3:
        raise ValueError("the reference table is pinned at prime 3")
    known = {_row_key(name) for name, _, _ in TABLE_ROWS}
    for r in rows or ():
        if _row_key(r) not in known:
            raise ValueError(f"unknown table row {r!r}")
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
                    b, "hat", prime, point[0], point[1],
                    split=_auto_split(b), budget=budget,
                    threads=threads).count)
            except BudgetError as e:
                computed.append(None)
                errors.append(f"{text}: {e}")
        expected = [want for _, want in entries]
        out.append(TableRowResult(
            name=name, point=point, expected=expected, computed=computed,
            errors=errors, passed=computed == expected))
    return TableReport(prime=prime, rows=out,
                       passed=all(r.passed for r in out))
