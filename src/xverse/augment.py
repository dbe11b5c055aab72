"""Augmentation counting over prime fields and the two-strand
augmentation polynomial.

Counting: an augmentation of a degree-0 presentation is an assignment of
field values to the a-variables killing every abelianized relation, with
the scalars sent to fixed (lam0, mu0, u0, v0).  Relations are packed as
dicts from bit-packed monomials to coefficients mod p; exponents fold by
Fermat (x^e = x^((e-1) mod (p-1) + 1) for e >= 1).  They come from one
construction, `ht0.cd_relations`, run over two entry types: symbolic
`NCPoly` entries abelianized afterwards (`count_augmentations`), or packed
entries throughout (`packed_relations`), where only the Phi matrices are
built by a packed extractor of their own.  The count runs a linear
pre-elimination pass followed by depth-first enumeration with
forced-value propagation and early abort.

Polynomial: for a 2-braid knot the infinity-flavor presentation reduces
to polynomials in the single variable x = a12 over the Laurent scalars;
after setting V=1 the one-variable elimination is a Sylvester resultant.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import sympy

from .braid import BraidWord, braid_stats
from .ht0 import (Ht0Presentation, a_variables, cd_relations, ht0_relations,
                  reduced_relations)
from .ncpoly import GenMatrix, Generator, NCPoly, gen, pow_mod
from .phi import sigma_images

PRIMES = (2, 3, 5, 7)
DEFAULT_BUDGET = 10 ** 8

_BITS = 3
_EMASK = 7


def _budget_from_env(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("XVERSE_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class BudgetError(RuntimeError):
    def __init__(self, budget: int, tested: int):
        super().__init__(f"budget exceeded: {tested} > {budget} incremental evaluations")
        self.budget = budget
        self.tested = tested


class EliminationError(RuntimeError):
    pass


@dataclass
class AugQuery:
    presentation: Ht0Presentation
    prime: int
    lam0: int
    mu0: int
    u0: int
    v0: int
    no_elim: bool = False
    budget: int | None = None
    threads: int = 1


@dataclass
class AugResult:
    count: int
    assignments_tested: int
    elapsed: float


def _fold(e: int, p: int) -> int:
    if e <= 1:
        return e
    return (e - 1) % (p - 1) + 1


def _abelianize(rel: NCPoly, var_index: dict[Generator, int], prime: int,
                scalars: tuple[int, int, int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (word, base), coeff in rel.terms.items():
        val = coeff % prime
        for s, exp in zip(scalars, base):
            if val == 0:
                break
            val = val * pow_mod(s, exp, prime) % prime
        if val == 0:
            continue
        counts: dict[Generator, int] = {}
        for g in word:
            counts[g] = counts.get(g, 0) + 1
        key = 0
        for g, e in counts.items():
            key |= _fold(e, prime) << (_BITS * var_index[g])
        c = (out.get(key, 0) + val) % prime
        if c:
            out[key] = c
        elif key in out:
            del out[key]
    return out


def _mono_mul(k1: int, k2: int, nvars: int, p: int) -> int:
    key = 0
    for i in range(nvars):
        sh = _BITS * i
        e = ((k1 >> sh) & _EMASK) + ((k2 >> sh) & _EMASK)
        key |= _fold(e, p) << sh
    return key


def _poly_mul(a: dict[int, int], b: dict[int, int], nvars: int, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = _mono_mul(k1, k2, nvars, p)
            c = (out.get(k, 0) + c1 * c2) % p
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def _poly_pow(a: dict[int, int], e: int, nvars: int, p: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(e):
        out = _poly_mul(out, a, nvars, p)
    return out


def _subst_expr(rel: dict[int, int], v: int, expr: dict[int, int],
                nvars: int, p: int) -> dict[int, int]:
    """Replace variable v by the polynomial expr."""
    sh = _BITS * v
    clear = ~(_EMASK << sh)
    out: dict[int, int] = {}
    powers: dict[int, dict[int, int]] = {}
    for k, c in rel.items():
        e = (k >> sh) & _EMASK
        if e == 0:
            c2 = (out.get(k, 0) + c) % p
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
            continue
        if e not in powers:
            powers[e] = _poly_pow(expr, e, nvars, p)
        k0 = k & clear
        for km, cm in powers[e].items():
            kk = _mono_mul(k0, km, nvars, p)
            c2 = (out.get(kk, 0) + c * cm) % p
            if c2:
                out[kk] = c2
            elif kk in out:
                del out[kk]
    return out


def _single_linear_var(key: int, nvars: int) -> int | None:
    """If key is x^1 for a single variable x, return its index."""
    if key == 0:
        return None
    v = None
    for i in range(nvars):
        e = (key >> (_BITS * i)) & _EMASK
        if e == 0:
            continue
        if e > 1 or v is not None:
            return None
        v = i
    return v


class _Counter:
    """Shared DFS state: relations are lists of packed dicts."""

    def __init__(self, p: int, nvars: int, order: list[int], budget: int):
        self.p = p
        self.nvars = nvars
        self.order = order
        self.budget = budget
        self.tested = 0
        self.pows = {a: [pow(a, e, p) if e else 1 for e in range(7)]
                     for a in range(p)}

    def _subst_value(self, rel: dict[int, int], v: int, a: int) -> dict[int, int]:
        p = self.p
        sh = _BITS * v
        clear = ~(_EMASK << sh)
        pa = self.pows[a]
        out: dict[int, int] = {}
        self.tested += len(rel)
        if self.tested > self.budget:
            raise BudgetError(self.budget, self.tested)
        for k, c in rel.items():
            e = (k >> sh) & _EMASK
            if e:
                c = c * pa[e] % p
                if not c:
                    continue
                k &= clear
            c2 = (out.get(k, 0) + c) % p
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
        return out

    def _single_var_solutions(self, rel: dict[int, int], v: int) -> list[int]:
        p = self.p
        sh = _BITS * v
        sols = []
        for a in range(p):
            pa = self.pows[a]
            acc = 0
            for k, c in rel.items():
                acc = (acc + c * pa[(k >> sh) & _EMASK]) % p
            if acc == 0:
                sols.append(a)
        return sols

    def count(self, rels: list[dict[int, int]], remaining: frozenset[int]) -> int:
        p = self.p
        rem = set(remaining)
        # propagation loop
        while True:
            forced: tuple[int, int] | None = None
            for rel in rels:
                if not rel:
                    continue
                if len(rel) == 1 and 0 in rel:
                    return 0  # nonzero constant
                # single-variable relation?
                support = 0
                for k in rel:
                    support |= k
                vs = [i for i in rem if (support >> (_BITS * i)) & _EMASK]
                if not vs:
                    if any(k != 0 for k in rel):
                        # involves an already-removed var: impossible
                        raise AssertionError("stale variable in relation")
                    return 0
                if len(vs) == 1:
                    sols = self._single_var_solutions(rel, vs[0])
                    if not sols:
                        return 0
                    if len(sols) == 1:
                        forced = (vs[0], sols[0])
                        break
            if forced is None:
                break
            v, a = forced
            rem.discard(v)
            new_rels = []
            for rel in rels:
                nr = self._subst_value(rel, v, a)
                if nr:
                    if len(nr) == 1 and 0 in nr:
                        return 0
                    new_rels.append(nr)
            rels = new_rels
        if not rels:
            return p ** len(rem)
        # choose branch variable: first in static order that appears
        support = 0
        for rel in rels:
            for k in rel:
                support |= k
        branch = None
        for v in self.order:
            if v in rem and (support >> (_BITS * v)) & _EMASK:
                branch = v
                break
        if branch is None:
            # relations reference no remaining variable but are nonconstant
            return 0
        free = [v for v in rem if v != branch
                and not (support >> (_BITS * v)) & _EMASK]
        sub_rem = frozenset(v for v in rem if v != branch and v not in free)
        total = 0
        for a in range(p):
            new_rels = []
            dead = False
            for rel in rels:
                nr = self._subst_value(rel, branch, a)
                if nr:
                    if len(nr) == 1 and 0 in nr:
                        dead = True
                        break
                    new_rels.append(nr)
            if not dead:
                total += self.count(new_rels, sub_rem)
        return total * p ** len(free)


def _variable_order(rels: list[dict[int, int]], nvars: int) -> list[int]:
    """Static branching order: repeatedly take the variables of the
    relation with the smallest remaining support, most frequent first."""
    freq = [0] * nvars
    supports = []
    for rel in rels:
        s = set()
        for k in rel:
            for i in range(nvars):
                if (k >> (_BITS * i)) & _EMASK:
                    s.add(i)
                    freq[i] += 1
        supports.append(s)
    order: list[int] = []
    placed: set[int] = set()
    pending = [set(s) for s in supports]
    while True:
        live = [s - placed for s in pending if s - placed]
        if not live:
            break
        smallest = min(live, key=len)
        for v in sorted(smallest, key=lambda v: -freq[v]):
            order.append(v)
            placed.add(v)
    for v in range(nvars):
        if v not in placed:
            order.append(v)
    return order


def _prepare(q: AugQuery) -> tuple[list[dict[int, int]], int, list[Generator]]:
    if q.prime not in PRIMES:
        raise ValueError(f"prime must be one of {PRIMES}")
    if q.lam0 % q.prime == 0 or q.mu0 % q.prime == 0:
        raise ValueError("lam0 and mu0 must be nonzero in the field")
    variables = list(q.presentation.variables)
    var_index = {g: i for i, g in enumerate(variables)}
    scalars = (q.lam0, q.mu0, q.u0, q.v0)
    rels = []
    for r in q.presentation.relations:
        packed = _abelianize(r, var_index, q.prime, scalars)
        if packed:
            if len(packed) == 1 and 0 in packed:
                return None, len(variables), variables  # unsatisfiable
            rels.append(packed)
    return rels, len(variables), variables


def _pre_eliminate(rels: list[dict[int, int]], nvars: int, p: int
                   ) -> tuple[list[dict[int, int]], set[int]] | None:
    """Substitute out variables appearing in some relation only as a bare
    linear monomial with nonzero coefficient.  Returns None when a
    relation becomes a nonzero constant (no solutions)."""
    eliminated: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ri, rel in enumerate(rels):
            pick = None
            for k, c in rel.items():
                v = _single_linear_var(k, nvars)
                if v is None or v in eliminated:
                    continue
                sh = _BITS * v
                if any((kk >> sh) & _EMASK for kk in rel if kk != k):
                    continue
                pick = (v, k, c)
                break
            if pick is None:
                continue
            v, k, c = pick
            inv = pow(c, -1, p)
            expr = {kk: (-inv * cc) % p for kk, cc in rel.items() if kk != k}
            new_rels = []
            for rj, other in enumerate(rels):
                if rj == ri:
                    continue
                nr = _subst_expr(other, v, expr, nvars, p)
                if nr:
                    if len(nr) == 1 and 0 in nr:
                        return None
                    new_rels.append(nr)
            rels = new_rels
            eliminated.add(v)
            changed = True
            break
    return rels, eliminated


def _count_packed(rels: list[dict[int, int]] | None, nvars: int, prime: int,
                  no_elim: bool, budget: int | None, threads: int,
                  start: float) -> AugResult:
    if rels is None:
        return AugResult(0, 0, time.monotonic() - start)
    eliminated: set[int] = set()
    if not no_elim:
        out = _pre_eliminate(rels, nvars, prime)
        if out is None:
            return AugResult(0, 0, time.monotonic() - start)
        rels, eliminated = out
    budget = _budget_from_env(budget)
    order = _variable_order(rels, nvars)
    counter = _Counter(prime, nvars, order, budget)
    remaining = frozenset(v for v in range(nvars) if v not in eliminated)
    if threads > 1 and rels:
        count, tested = _parallel_count(rels, remaining, counter, threads)
    else:
        count = counter.count(rels, remaining)
        tested = counter.tested
    return AugResult(count, tested, time.monotonic() - start)


def count_augmentations(q: AugQuery) -> AugResult:
    start = time.monotonic()
    rels, nvars, variables = _prepare(q)
    return _count_packed(rels, nvars, q.prime, q.no_elim, q.budget,
                         q.threads, start)


def _branch_jobs(rels, remaining, counter):
    support = 0
    for rel in rels:
        for k in rel:
            support |= k
    branch = None
    for v in counter.order:
        if v in remaining and (support >> (_BITS * v)) & _EMASK:
            branch = v
            break
    return branch


def _worker(args):
    rels, remaining, p, nvars, order, budget, branch, a = args
    counter = _Counter(p, nvars, order, budget)
    new_rels = []
    for rel in rels:
        nr = counter._subst_value(rel, branch, a)
        if nr:
            if len(nr) == 1 and 0 in nr:
                return 0, counter.tested
            new_rels.append(nr)
    rem = frozenset(v for v in remaining if v != branch)
    return counter.count(new_rels, rem), counter.tested


def _parallel_count(rels, remaining, counter, threads):
    branch = _branch_jobs(rels, remaining, counter)
    if branch is None:
        return counter.count(rels, remaining), counter.tested
    args = [(rels, remaining, counter.p, counter.nvars, counter.order,
             counter.budget, branch, a) for a in range(counter.p)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(_worker, args))
    return sum(c for c, _ in results), sum(t for _, t in results)


def count_augmentations_exhaustive(q: AugQuery) -> AugResult:
    """Plain enumeration of every assignment; the oracle for small cases."""
    start = time.monotonic()
    prep = _prepare(q)
    rels, nvars, variables = prep
    if rels is None:
        return AugResult(0, 0, time.monotonic() - start)
    p = q.prime
    count = 0
    tested = 0
    assign = [0] * nvars
    total = p ** nvars
    pows = {a: [pow(a, e, p) if e else 1 for e in range(7)] for a in range(p)}
    for idx in range(total):
        x = idx
        for i in range(nvars):
            assign[i] = x % p
            x //= p
        ok = True
        for rel in rels:
            acc = 0
            for k, c in rel.items():
                val = c
                kk = k
                i = 0
                while kk:
                    e = kk & _EMASK
                    if e:
                        val = val * pows[assign[i]][e] % p
                    kk >>= _BITS
                    i += 1
                acc = (acc + val) % p
            tested += len(rel)
            if acc:
                ok = False
                break
        if ok:
            count += 1
    return AugResult(count, tested, time.monotonic() - start)


# ---------------------------------------------------------------------------
# Fast relation construction: abelianize first, then run ht0's construction
# over packed F_p polynomials.  Valid because counting only sees relations
# as functions F_p^m -> F_p, and every step (substitution, products,
# exponent folding) preserves those functions.
# ---------------------------------------------------------------------------


class _PackedPoly:
    """A packed F_p polynomial as a matrix entry for `cd_relations`.

    Sums and products keep the key order of the dict arithmetic above, so
    the relations come out in the order pre-elimination expects.  A
    constant factor only scales the other factor's coefficients."""

    __slots__ = ("terms", "nvars", "p")

    def __init__(self, terms: dict[int, int], nvars: int, p: int):
        self.terms = terms
        self.nvars = nvars
        self.p = p

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "_PackedPoly", sign: int) -> "_PackedPoly":
        p = self.p
        out = dict(self.terms)
        for k, c in other.terms.items():
            c2 = (out.get(k, 0) + sign * c) % p
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
        return _PackedPoly(out, self.nvars, p)

    def __add__(self, other: "_PackedPoly") -> "_PackedPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "_PackedPoly") -> "_PackedPoly":
        return self._combine(other, -1)

    def __mul__(self, other: "_PackedPoly") -> "_PackedPoly":
        a, b, p = self.terms, other.terms, self.p
        if len(b) == 1 and 0 in b:
            a, b = b, a
        if len(a) == 1 and 0 in a:
            c = a[0]
            out = {k: c * cb % p for k, cb in b.items()}
        else:
            out = _poly_mul(a, b, self.nvars, p)
        return _PackedPoly(out, self.nvars, p)


def _subst_many(poly: dict[int, int], images: dict[int, dict[int, int]],
                nvars: int, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    powcache: dict[tuple[int, int], dict[int, int]] = {}
    for key, c in poly.items():
        prod = None
        base_key = key
        for v, img in images.items():
            e = (key >> (_BITS * v)) & _EMASK
            if not e:
                continue
            base_key &= ~(_EMASK << (_BITS * v))
            f = powcache.get((v, e))
            if f is None:
                f = _poly_pow(img, e, nvars, p)
                powcache[(v, e)] = f
            prod = f if prod is None else _poly_mul(prod, f, nvars, p)
        if prod is None:
            c2 = (out.get(key, 0) + c) % p
            if c2:
                out[key] = c2
            elif key in out:
                del out[key]
        else:
            for km, cm in prod.items():
                kk = _mono_mul(base_key, km, nvars, p)
                c2 = (out.get(kk, 0) + c * cm) % p
                if c2:
                    out[kk] = c2
                elif kk in out:
                    del out[kk]
    return out


@functools.lru_cache(maxsize=None)
def _packed_sigma_images(n: int, p: int):
    """images[(k, inverse)] as packed substitution maps on n strands, read
    only; cached because they cost as much as the rest of a small build."""
    var_index = {g: i for i, g in enumerate(a_variables(n))}
    maps = {}
    for k in range(1, n):
        for inverse in (False, True):
            imgs = sigma_images(k, n, inverse)
            maps[(k, inverse)] = {
                var_index[g]: _abelianize(img, var_index, p, (1, 1, 1, 1))
                for g, img in imgs.items()}
    return maps


def _packed_apply_phi(b: BraidWord, poly, maps, nvars, p):
    for letter in reversed(b.letters):
        poly = _subst_many(poly, maps[(abs(letter), letter < 0)], nvars, p)
    return poly


def _packed_phi_matrices(b: BraidWord, p: int) -> tuple[GenMatrix, GenMatrix]:
    """PhiL, PhiR over the base variable universe, entries packed."""
    n = b.strands
    ext_index = {g: i for i, g in enumerate(a_variables(n + 1))}
    base_index = {g: i for i, g in enumerate(a_variables(n))}
    nvars = len(base_index)
    nvars_ext = len(ext_index)
    maps = _packed_sigma_images(n + 1, p)
    ext = BraidWord(n + 1, b.letters)
    # remap table ext idx -> base idx (marked vars map to None)
    remap: list[int | None] = [None] * nvars_ext
    for g, i in ext_index.items():
        if g.row <= n and g.col <= n:
            remap[i] = base_index[g]
    marked_l = {ext_index[g]: g.row for g in ext_index if g.col == n + 1}
    marked_r = {ext_index[g]: g.col for g in ext_index if g.row == n + 1}

    def translate(key: int) -> int:
        out = 0
        i = 0
        kk = key
        while kk:
            e = kk & _EMASK
            if e:
                out |= e << (_BITS * remap[i])
            kk >>= _BITS
            i += 1
        return out

    def extract(img, marked):
        row = [dict() for _ in range(n)]
        for key, c in img.items():
            hits = [(v, ell) for v, ell in marked.items()
                    if (key >> (_BITS * v)) & _EMASK]
            if len(hits) != 1 or (key >> (_BITS * hits[0][0])) & _EMASK != 1:
                raise RuntimeError("malformed extra-strand image")
            v, ell = hits[0]
            k2 = translate(key & ~(_EMASK << (_BITS * v)))
            row[ell - 1][k2] = (row[ell - 1].get(k2, 0) + c) % p
        return row

    phi_l = [[None] * n for _ in range(n)]
    phi_r = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        start = {1 << (_BITS * ext_index[gen("a", i, n + 1)]): 1}
        img = _packed_apply_phi(ext, start, maps, nvars_ext, p)
        row = extract(img, marked_l)
        for ell in range(n):
            phi_l[i - 1][ell] = _PackedPoly(
                {k: c for k, c in row[ell].items() if c}, nvars, p)
        start = {1 << (_BITS * ext_index[gen("a", n + 1, i)]): 1}
        img = _packed_apply_phi(ext, start, maps, nvars_ext, p)
        row = extract(img, marked_r)
        for ell in range(n):
            phi_r[ell][i - 1] = _PackedPoly(
                {k: c for k, c in row[ell].items() if c}, nvars, p)
    return GenMatrix(n, phi_l), GenMatrix(n, phi_r)


def packed_relations(b: BraidWord, flavor: str, prime: int, lam0: int,
                     mu0: int, u0: int, v0: int, split: int | None = None,
                     lam_override=None):
    """The nonzero degree-0 relations as packed F_p polynomials: ht0's
    construction over abelianized entries, with the scalars at (lam0, mu0,
    u0, v0) and Phi built without any symbolic intermediate."""
    variables = a_variables(b.strands)
    var_index = {g: i for i, g in enumerate(variables)}
    nvars = len(variables)
    scalars = (lam0, mu0, u0, v0)

    def lift(e: NCPoly) -> _PackedPoly:
        return _PackedPoly(_abelianize(e, var_index, prime, scalars),
                           nvars, prime)

    entries = cd_relations(b, flavor, lambda w: _packed_phi_matrices(w, prime),
                           lift, lam_override, split)
    return [e.terms for e in entries if e.terms], nvars, variables


def augmentation_number(b: BraidWord, flavor: str, prime: int, lam0: int,
                        mu0: int, u0: int | None = None, v0: int | None = None,
                        split: int | None = None, lam_override=None,
                        no_elim: bool = False, budget: int | None = None,
                        threads: int = 1) -> AugResult:
    """Count augmentations of the braid's degree-0 presentation.

    Builds the relations directly over F_p (abelianized, scalars
    evaluated), which keeps long words tractable; the result agrees with
    counting from the symbolic presentation.
    """
    if flavor == "hat":
        u0, v0 = 0, 1
    elif flavor == "doublehat":
        u0, v0 = 0, 0
    else:
        u0 = 1 if u0 is None else u0
        v0 = 1 if v0 is None else v0
        if flavor == "infinity" and (u0 % prime == 0 or v0 % prime == 0):
            raise ValueError("infinity flavor needs invertible u0, v0")
    if prime not in PRIMES:
        raise ValueError(f"prime must be one of {PRIMES}")
    if lam0 % prime == 0 or mu0 % prime == 0:
        raise ValueError("lam0 and mu0 must be nonzero in the field")
    start = time.monotonic()
    rels, nvars, _ = packed_relations(b, flavor, prime, lam0, mu0, u0, v0,
                                      split=split, lam_override=lam_override)
    return _count_packed(rels, nvars, prime, no_elim, budget, threads, start)


# ---------------------------------------------------------------------------
# Commutative polynomials, resultants, and the index-2 augmentation polynomial
# ---------------------------------------------------------------------------


class CommPoly:
    """Sparse integer polynomial in a fixed tuple of commuting variables.

    Exponents may be negative (Laurent); operations that need honest
    polynomials (division, resultants) expect inputs cleared first.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms=None):
        self.vars = tuple(vars)
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[tuple(k)] = c

    @staticmethod
    def const(vars, c: int) -> "CommPoly":
        z = (0,) * len(vars)
        return CommPoly(vars, {z: c} if c else {})

    @staticmethod
    def var(vars, name: str, exp: int = 1) -> "CommPoly":
        i = vars.index(name)
        key = tuple(exp if j == i else 0 for j in range(len(vars)))
        return CommPoly(vars, {key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable universe mismatch")

    def __add__(self, other: "CommPoly") -> "CommPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        p = CommPoly(self.vars)
        p.terms = out
        return p

    def __neg__(self) -> "CommPoly":
        p = CommPoly(self.vars)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return self + (-other)

    def __mul__(self, other) -> "CommPoly":
        if isinstance(other, int):
            p = CommPoly(self.vars)
            if other:
                p.terms = {k: c * other for k, c in self.terms.items()}
            return p
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        p = CommPoly(self.vars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CommPoly":
        out = CommPoly.const(self.vars, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def degree(self, name: str) -> int:
        i = self.vars.index(name)
        return max((k[i] for k in self.terms), default=0)

    def coeffs_in(self, name: str) -> dict[int, "CommPoly"]:
        i = self.vars.index(name)
        out: dict[int, CommPoly] = {}
        for k, c in self.terms.items():
            d = k[i]
            k0 = tuple(0 if j == i else e for j, e in enumerate(k))
            poly = out.setdefault(d, CommPoly(self.vars))
            poly.terms[k0] = poly.terms.get(k0, 0) + c
        for d in list(out):
            out[d].terms = {k: c for k, c in out[d].terms.items() if c}
            if not out[d].terms:
                del out[d]
        return out

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (monomial, coeff) under lex order on the vars tuple."""
        k = max(self.terms)
        return k, self.terms[k]

    def content(self) -> int:
        return math.gcd(*self.terms.values()) if self.terms else 0

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(min(k[i] for k in self.terms) for i in range(len(self.vars)))

    def shift(self, delta: tuple[int, ...]) -> "CommPoly":
        p = CommPoly(self.vars)
        p.terms = {tuple(a + d for a, d in zip(k, delta)): c
                   for k, c in self.terms.items()}
        return p

    def cleared(self) -> "CommPoly":
        """Multiply by the minimal monomial making all exponents >= 0."""
        mins = self.min_exponents()
        return self.shift(tuple(-m if m < 0 else 0 for m in mins))

    def divide_exact(self, d: "CommPoly") -> "CommPoly":
        """Exact multivariate division; raises ValueError on any remainder."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = CommPoly(self.vars, dict(self.terms))
        q = CommPoly(self.vars)
        dk, dc = d.leading()
        while not r.is_zero():
            rk, rc = r.leading()
            key = tuple(a - b for a, b in zip(rk, dk))
            if any(e < 0 for e in key) or rc % dc:
                raise ValueError("inexact division")
            t = CommPoly(self.vars, {key: rc // dc})
            q = q + t
            r = r - t * d
        return q

    def normalized(self, strip: tuple[str, ...] = ()) -> "CommPoly":
        """Integer-primitive form with monomial factors in `strip` removed
        and positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        idxs = [self.vars.index(name) for name in strip]
        mins = self.min_exponents()
        delta = tuple(-mins[i] if i in idxs else 0 for i in range(len(self.vars)))
        p = self.shift(delta)
        p.terms = {k: cc // c for k, cc in p.terms.items()}
        if p.leading()[1] < 0:
            p = -p
        return p

    def to_sympy(self):
        syms = sympy.symbols(" ".join(self.vars)) if len(self.vars) > 1 \
            else (sympy.Symbol(self.vars[0]),)
        if not isinstance(syms, tuple):
            syms = (syms,)
        expr = sympy.Integer(0)
        for k, c in self.terms.items():
            term = sympy.Integer(c)
            for s, e in zip(syms, k):
                term *= s ** e
            expr += term
        return expr, syms

    @staticmethod
    def from_sympy(expr, vars: tuple[str, ...]) -> "CommPoly":
        syms = [sympy.Symbol(v) for v in vars]
        poly = sympy.Poly(sympy.expand(expr), *syms)
        out = CommPoly(vars)
        for monom, coeff in poly.terms():
            out.terms[tuple(int(e) for e in monom)] = int(coeff)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            factors = []
            for name, e in zip(self.vars, k):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"CommPoly({self})"


def sylvester_resultant(f: CommPoly, g: CommPoly, var: str) -> CommPoly:
    """Resultant in `var` as the Sylvester determinant, computed by
    fraction-free (Bareiss) elimination with exact division."""
    f._check(g)
    m, n = f.degree(var), g.degree(var)
    if m == 0 and n == 0:
        raise ValueError("both inputs constant in " + var)
    if m == 0:
        return f ** n
    if n == 0:
        return g ** m
    fc = f.coeffs_in(var)
    gc = g.coeffs_in(var)
    zero = CommPoly(f.vars)
    size = m + n
    rows = []
    for i in range(n):
        rows.append([zero] * i + [fc.get(m - j, zero) for j in range(m + 1)]
                    + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + [gc.get(n - j, zero) for j in range(n + 1)]
                    + [zero] * (size - i - n - 1))
    sign = 1
    prev = CommPoly.const(f.vars, 1)
    for k in range(size - 1):
        if rows[k][k].is_zero():
            swap = next((i for i in range(k + 1, size)
                         if not rows[i][k].is_zero()), None)
            if swap is None:
                return zero
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]).divide_exact(prev)
            rows[i][k] = zero
        prev = rows[k][k]
    det = rows[size - 1][size - 1]
    return det if sign > 0 else -det


def _gcd_all(polys: list[CommPoly]) -> CommPoly:
    vars = polys[0].vars
    exprs = [p.cleared().to_sympy()[0] for p in polys]
    g = exprs[0]
    for e in exprs[1:]:
        g = sympy.gcd(g, e)
    return CommPoly.from_sympy(g, vars)


_POLY_VARS = ("L", "m", "U", "x")


@dataclass
class AugPolyResult:
    poly: CommPoly
    may_have_repeated_factors: bool = True


def _nc_to_comm(p: NCPoly, x: Generator | None) -> CommPoly:
    """Infinity-flavor relation in at most one generator, with V set to 1."""
    out = CommPoly(_POLY_VARS)
    for (word, base), coeff in p.terms.items():
        if any(g != x for g in word):
            raise EliminationError("relation involves more than one variable")
        key = (base[0], base[1], base[2], len(word))
        out.terms[key] = out.terms.get(key, 0) + coeff
    out.terms = {k: c for k, c in out.terms.items() if c}
    return out


def augmentation_polynomial_index2(b: BraidWord, budget: int | None = None
                                   ) -> AugPolyResult:
    """The three-variable augmentation polynomial of a 2-braid knot
    closure, from the infinity-flavor degree-0 presentation with V=1."""
    if b.strands != 2:
        raise EliminationError("only 2-strand braids supported")
    if not braid_stats(b).is_knot:
        raise EliminationError("links unsupported")
    pres = ht0_relations(b, "infinity")
    rels = reduced_relations(pres)
    xs: set[Generator] = set()
    for r in rels:
        xs |= r.generators()
    if len(xs) > 1:
        raise EliminationError("elimination failed: two variables survive")
    x = xs.pop() if xs else None
    polys = [_nc_to_comm(r, x).cleared().normalized() for r in rels]
    polys = sorted({p for p in polys if not p.is_zero()},
                   key=lambda p: (p.degree("x"), len(p.terms), str(p)))
    if not polys:
        raise EliminationError("elimination failed: empty relation set")
    with_x = [p for p in polys if p.degree("x") > 0]
    consts = [p for p in polys if p.degree("x") == 0]
    if len(with_x) == 1 and not consts:
        raise EliminationError("elimination failed: no constraints survive")
    # every pairwise resultant lies in the elimination ideal; the
    # codimension-1 part of the variety is cut out by their gcd
    results = list(consts)
    for f, g in itertools.combinations(with_x, 2):
        r = sylvester_resultant(f, g, "x")
        if not r.is_zero():
            results.append(r)
    if not results:
        raise EliminationError("elimination failed: no constraints survive")
    result = _gcd_all(results)
    if result.degree("x") != 0:
        raise EliminationError("elimination failed: x not eliminated")
    result = result.normalized(strip=("L", "m", "U"))
    return AugPolyResult(poly=result)
