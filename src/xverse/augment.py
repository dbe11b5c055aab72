"""Augmentation counting over prime fields and the two-strand
augmentation polynomial.

Counting: an augmentation of a degree-0 presentation is an assignment of
field values to the a-variables killing every abelianized relation, with
the scalars sent to fixed (lam0, mu0, u0, v0).  Relations are packed as
dicts from packed monomials to coefficients mod p; exponents fold by
Fermat (x^e = x^((e-1) mod (p-1) + 1) for e >= 1).

Key layout: variable i owns the 4-bit field at bit 4i of an int key and
holds its folded exponent, at most p - 1 <= 6; L, m, U, V own the next
four, a unit's exponent taken mod p - 1.  A product of monomials is the
sum of their keys, whose fields are at most 2p - 2 <= 12 < 16, so no
field carries into the next.  Folding the sum subtracts p - 1 from every
field that reached p, all fields at once ("SIMD within a register"), with
ONES the key holding 1 in every field:

    s = k1 + k2;  s - (((s + ONES*(8-p)) & ONES*8) >> 3) * (p-1)

A field of s + ONES*(8-p) stays below 16 and reaches 8 exactly when the
field of s reached p.  The nonzero fields of a key k are the 1s of
(k | k>>1 | k>>2 | k>>3) & ONES.

The relations come from one construction, `ht0.cd_relations`, run over
two entry types: symbolic `NCPoly` entries abelianized afterwards
(`count_augmentations`), or packed entries throughout (`packed_relations`),
where the Phi matrices are `phi.phi_matrices`' chain-rule loop over
packed entries, `_packed_phi_matrices`.  Both meet the scalar point in
one pass over the terms, `_specialize`, so the packed build is cached per
(word, flavor, prime, cut, Lam override) and Phi per (word, prime), read
only.  `augmentation_number` cuts the word at its middle (`_auto_split`)
unless told a cut.  The count is one depth-first search over every
nonzero relation.  Each node takes the relation with the fewest live
variables, ties to the fewest terms and then to the first, and branches
on its roots when it has one live variable, else on every value of its
variable that the most relations hold, the lowest on ties.  The choice
reads masks and term counts, never term order.  A branch rewrites only the
relations that hold its variable and passes the others on as they are,
and dies as soon as a relation becomes a nonzero constant.  The budget
counts the terms the search rewrites, so it covers all counting work
after the relations are built.  The oracle,
`count_augmentations_exhaustive`, shares neither the packing nor the
search: it enumerates every assignment, evaluates the symbolic relations
with the halves of `ncpoly.evaluate_abelian` (scalars once per count),
and ignores `AugQuery.budget`.

Polynomial: for a 2-braid knot the infinity-flavor presentation reduces
to polynomials in the single variable x = a12 over the Laurent scalars;
after setting V=1 and clearing negative exponents they are elements of
ZZ[L, m, U, x], held as `commpoly.CommPoly`: sparse dicts from packed-int
monomials to int coefficients.  The one-variable elimination is the
Sylvester resultant, by the subresultant PRS over coefficient lists in x
with exact `CommPoly.exquo`; the pairwise resultants meet in a running
gcd that divides first and else runs GCDHEU (`CommPoly.gcd`), normalized
to be primitive with a positive leading coefficient and no monomial factor.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import NamedTuple

from .braid import BraidWord, braid_stats
from .commpoly import VARS, CommPoly
from .ht0 import (Ht0Presentation, a_variables, cd_relations, ht0_relations,
                  reduced_relations)
from .ncpoly import (SCALAR_NAMES, GenMatrix, Generator, NCPoly,
                     evaluate_terms, flavor_rule, scalar_terms)
from .phi import phi_matrices, sigma_images

PRIMES = (2, 3, 5, 7)
DEFAULT_BUDGET = 10 ** 8

_BITS = 4
_EMASK = 15
# packed Phi pairs kept, one per (word, prime), and scalar-free builds, one
# per (word, flavor, prime, cut, Lam override); a check needs 10 and 6
_PHI_CACHE_SIZE = _RELATIONS_CACHE_SIZE = 64


def _budget_from_env(budget: int | None) -> int:
    """The explicit budget, else XVERSE_BUDGET, else the default.  Either
    must be an integer >= 0; anything else is a usage error, not a tiny
    budget."""
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int) \
                or budget < 0:
            raise ValueError(f"budget must be an integer >= 0, got {budget!r}")
        return budget
    env = os.environ.get("XVERSE_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"XVERSE_BUDGET must be an integer >= 0, got {env!r}")
    return value


class BudgetError(RuntimeError):
    def __init__(self, budget: int, tested: int):
        super().__init__(f"budget exceeded: {tested} > {budget} incremental evaluations")
        self.budget = budget
        self.tested = tested


class EliminationError(RuntimeError):
    pass


class AugQuery(NamedTuple):
    presentation: Ht0Presentation
    prime: int
    lam0: int
    mu0: int
    u0: int
    v0: int
    budget: int | None = None


class AugResult(NamedTuple):
    count: int  # shadows tuple.count, which nothing here calls
    assignments_tested: int


def _fold(e: int, p: int) -> int:
    if e <= 1:
        return e
    return (e - 1) % (p - 1) + 1


def _abelianize(rel: NCPoly, var_index: dict[Generator, int], prime: int,
                units: int = 2) -> dict[int, int]:
    """rel packed with its scalars; the first `units` are units (L and m
    in every flavor), and a free one with a negative exponent raises."""
    out: dict[int, int] = {}
    shift = _BITS * len(var_index)
    for (word, base), coeff in rel.terms.items():
        val = coeff % prime
        counts: dict[Generator, int] = {}
        for g in word:
            counts[g] = counts.get(g, 0) + 1
        key = 0
        for g, e in counts.items():
            key |= _fold(e, prime) << (_BITS * var_index[g])
        for i, e in enumerate(base):
            if i >= units and e < 0:
                raise ValueError(f"free scalar {SCALAR_NAMES[i]}^{e}")
            key |= _fold(e % (prime - 1) if i < units else e,
                         prime) << (shift + _BITS * i)
        c = (out.get(key, 0) + val) % prime
        if c:
            out[key] = c
        elif key in out:
            del out[key]
    return out


def _specialize(rels: list[dict[int, int]], nvars: int, prime: int,
                scalars: tuple[int, int, int, int]) -> list[dict[int, int]]:
    """The relations at the scalar point as new dicts, keys masked to the
    nvars variables' fields; zero terms and relations dropped, order kept."""
    shift = _BITS * nvars
    mask = (1 << shift) - 1
    pl, pm, pu, pv = ([pow(s, e, prime) for e in range(prime)]
                      for s in scalars)
    value: dict[int, int] = {}  # scalar field -> its monomial at the point
    out = []
    for rel in rels:
        spec: dict[int, int] = {}
        for k, c in rel.items():
            s, k = k >> shift, k & mask
            v = value.get(s)
            if v is None:
                v = value[s] = (pl[s & _EMASK] * pm[s >> 4 & _EMASK]
                                * pu[s >> 8 & _EMASK] * pv[s >> 12] % prime)
            spec[k] = (spec.get(k, 0) + c * v) % prime
        out.append({k: c for k, c in spec.items() if c})
    return [r for r in out if r]


def _ones(nvars: int) -> int:
    """ONES: the key with a 1 in each of nvars fields."""
    return ((1 << (_BITS * nvars)) - 1) // _EMASK


def _fields(key: int, ones: int) -> int:
    """The key's nonzero fields, as a 1 in each."""
    return (key | key >> 1 | key >> 2 | key >> 3) & ones


@functools.lru_cache(maxsize=None)
def _fold_masks(nvars: int, p: int) -> tuple[int, int]:
    """(ONES*(8-p), ONES*8) for the SWAR fold of the module docstring."""
    return _ones(nvars) * (8 - p), _ones(nvars) * 8


def _mul_add(out: dict[int, int], k1: int, c1: int, b: dict[int, int],
             nvars: int, p: int) -> None:
    """out += c1 * x^k1 * b; each product of keys is one add and the
    SWAR fold of the module docstring."""
    bias, guard = _fold_masks(nvars, p)
    q = p - 1
    for k2, c2 in b.items():
        s = k1 + k2
        k = s - (((s + bias) & guard) >> 3) * q
        c = (out.get(k, 0) + c1 * c2) % p
        if c:
            out[k] = c
        elif k in out:
            del out[k]


def _poly_mul(a: dict[int, int], b: dict[int, int], nvars: int, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        _mul_add(out, k1, c1, b, nvars, p)
    return out


def _poly_pow(a: dict[int, int], e: int, nvars: int, p: int) -> dict[int, int]:
    """a^e for e >= 1; a itself when e is 1."""
    out = a
    for _ in range(e - 1):
        out = _poly_mul(out, a, nvars, p)
    return out


class _Counter:
    """DFS state: relations are lists of packed dicts; a set of variables
    is a mask with bit 4v set for each variable v in it."""

    def __init__(self, p: int, nvars: int, budget: int):
        self.p = p
        self.ones = _ones(nvars)
        self.budget = budget
        self.tested = 0
        self.pows = {a: [pow(a, e, p) for e in range(7)] for a in range(p)}

    def _subst_value(self, rel: dict[int, int], sh: int, a: int) -> dict[int, int]:
        """Set the variable of the field at bit sh to a."""
        p = self.p
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

    def _single_var_solutions(self, rel: dict[int, int], sh: int) -> list[int]:
        p = self.p
        sols = []
        for a in range(p):
            pa = self.pows[a]
            acc = 0
            for k, c in rel.items():
                acc = (acc + c * pa[(k >> sh) & _EMASK]) % p
            if acc == 0:
                sols.append(a)
        return sols

    def count(self, rels: list[dict[int, int]], rem: int) -> int:
        """Solutions of rels in the variables of the mask rem.

        Branches fail-first (Haralick and Elliott 1980) on the relation
        with the fewest live variables, ties to the fewest terms and then
        to the first.  With one live variable it branches on that
        variable's roots (none ends the branch); else on the relation's
        variable that the most relations hold (the degree rule, Brelaz
        1979), lowest on ties, with every value.  Variables of rem that no
        relation uses are free.  Only the relations that hold the branch
        variable are rewritten (and charged to the budget); the others
        pass to the child as they are, in their place."""
        p = self.p
        masks = []
        support = 0
        fewest = rem.bit_count() + 1
        for rel in rels:
            keys = 0
            for k in rel:
                keys |= k
            live = _fields(keys, self.ones) & rem
            if not live:
                if keys:
                    raise AssertionError("stale variable in relation")
                return 0  # nonzero constant
            n = live.bit_count()
            if n < fewest or n == fewest and len(rel) < len(smallest):
                fewest, smallest, branch = n, rel, live
            masks.append(keys)
            support |= keys
        if not rels:
            return p ** rem.bit_count()
        if fewest > 1:  # narrow to the variable most relations hold
            rest, held = branch, 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                n = sum(1 for keys in masks if keys & bit * _EMASK)
                if n > held:
                    held, branch = n, bit
        sh = branch.bit_length() - 1
        values = (self._single_var_solutions(smallest, sh)
                  if fewest == 1 else range(p))
        live = _fields(support, self.ones) & rem
        field = _EMASK << sh
        total = 0
        for a in values:
            new_rels = []
            for rel, keys in zip(rels, masks):
                if not keys & field:
                    new_rels.append(rel)
                    continue
                nr = self._subst_value(rel, sh, a)
                if nr:
                    if len(nr) == 1 and 0 in nr:
                        break  # nonzero constant
                    new_rels.append(nr)
            else:
                total += self.count(new_rels, live ^ branch)
        return total * p ** (rem & ~live).bit_count()


def _scalar_point(flavor: str, prime: int, lam0: int, mu0: int,
                  u0: int | None = None,
                  v0: int | None = None) -> tuple[int, int, int, int]:
    """The scalars (lam0, mu0, u0, v0) of a count, checked in that order:
    the prime is one of PRIMES, lam0 and mu0 are nonzero in the field, and
    (u0, v0) agree with the flavor's row of `ncpoly.FLAVORS`.  A flavor that
    fixes (U, V) refuses a u0 or v0 that disagrees; otherwise each defaults
    to 1, and a flavor that inverts U and V needs both nonzero."""
    if prime not in PRIMES:
        raise ValueError(f"prime must be one of {PRIMES}")
    if lam0 % prime == 0 or mu0 % prime == 0:
        raise ValueError("lam0 and mu0 must be nonzero in the field")
    fixed, units = flavor_rule(flavor)
    if fixed:
        if any(x not in (None, f) for x, f in zip((u0, v0), fixed)):
            raise ValueError(f"the {flavor} flavor fixes (U, V) = {fixed}, "
                             f"got u0={u0}, v0={v0}")
        return lam0, mu0, *fixed
    u0 = 1 if u0 is None else u0
    v0 = 1 if v0 is None else v0
    if units == 4 and (u0 % prime == 0 or v0 % prime == 0):
        raise ValueError(f"{flavor} flavor needs invertible u0, v0")
    return lam0, mu0, u0, v0


def _prepare(q: AugQuery) -> tuple[list[dict[int, int]], int]:
    """The nonzero abelianized relations, constants included, as
    `packed_relations` gives them."""
    scalars = _scalar_point(q.presentation.flavor, q.prime, q.lam0, q.mu0,
                            q.u0, q.v0)
    variables = q.presentation.variables
    var_index = {g: i for i, g in enumerate(variables)}
    units = flavor_rule(q.presentation.flavor).units
    rels = [_abelianize(r, var_index, q.prime, units)
            for r in q.presentation.relations]
    return _specialize(rels, len(variables), q.prime, scalars), len(variables)


def _count_packed(rels: list[dict[int, int]], nvars: int, prime: int,
                  budget: int) -> AugResult:
    """Count the solutions of rels, every variable live, by one search
    whose rewritten terms are charged to the resolved budget."""
    counter = _Counter(prime, nvars, budget)
    count = counter.count(rels, counter.ones)
    return AugResult(count, counter.tested)


def count_augmentations(q: AugQuery) -> AugResult:
    budget = _budget_from_env(q.budget)
    rels, nvars = _prepare(q)
    return _count_packed(rels, nvars, q.prime, budget)


def count_augmentations_exhaustive(q: AugQuery) -> AugResult:
    """The oracle for small cases: every assignment of the presentation's
    variables, with each nonzero symbolic relation, its scalars specialized
    once by `ncpoly.scalar_terms`, evaluated by `ncpoly.evaluate_terms`
    until one is nonzero.  It shares neither the
    packing nor the search, refuses the points `_scalar_point` refuses, and
    ignores `AugQuery.budget`; `assignments_tested` counts the terms of the
    relations it evaluated."""
    scalars = _scalar_point(q.presentation.flavor, q.prime, q.lam0, q.mu0,
                            q.u0, q.v0)
    variables = q.presentation.variables
    rels = [(scalar_terms(r, q.prime, *scalars), len(r.terms))
            for r in q.presentation.relations if not r.is_zero()]
    count = tested = 0
    for values in itertools.product(range(q.prime), repeat=len(variables)):
        assign = dict(zip(variables, values))
        for terms, size in rels:
            tested += size
            if evaluate_terms(terms, assign, q.prime):
                break
        else:
            count += 1
    return AugResult(count, tested)


# ---------------------------------------------------------------------------
# Fast relation construction: abelianize first, then run ht0's construction
# over packed F_p polynomials.  Valid because counting only sees relations
# as functions F_p^m -> F_p, and every step (substitution, products,
# exponent folding) preserves those functions.
# ---------------------------------------------------------------------------


class _PackedPoly:
    """A packed F_p polynomial as a matrix entry for `cd_relations` and
    `phi.phi_matrices`.

    Sums and products keep the key order of the dict arithmetic above, so
    the relations and their terms come out in a fixed order.  The order
    of the relations breaks the search's ties and so fixes its
    evaluations; the order of terms does not.  A constant factor only
    scales the other factor's coefficients."""

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

    def __neg__(self) -> "_PackedPoly":
        return _PackedPoly({k: self.p - c for k, c in self.terms.items()},
                           self.nvars, self.p)

    def substitute(self, subst: tuple[int, dict[int, dict[int, int]]]
                   ) -> "_PackedPoly":
        """Replace each variable v by the polynomial images[v], all at
        once, for subst = (touched, images) with touched the mask of the
        fields of those variables; self when no term holds one."""
        nvars, p = self.nvars, self.p
        touched, images = subst
        if not any(key & touched for key in self.terms):
            return self
        out: dict[int, int] = {}
        powcache: dict[tuple[int, int], dict[int, int]] = {}
        for key, c in self.terms.items():
            if not key & touched:
                c2 = (out.get(key, 0) + c) % p
                if c2:
                    out[key] = c2
                elif key in out:
                    del out[key]
                continue
            prod = None
            for v, img in images.items():
                e = (key >> (_BITS * v)) & _EMASK
                if not e:
                    continue
                f = powcache.get((v, e))
                if f is None:
                    f = powcache[(v, e)] = _poly_pow(img, e, nvars, p)
                prod = f if prod is None else _poly_mul(prod, f, nvars, p)
            _mul_add(out, key & ~touched, c, prod, nvars, p)
        return _PackedPoly(out, nvars, p)

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


def _lift(n: int, p: int, units: int = 2):
    """(var_index, lift): the field of each variable of `a_variables(n)`
    in a packed key, and the map from a symbolic entry to its packed F_p
    entry, whose four scalar fields follow the variables'."""
    var_index = {g: i for i, g in enumerate(a_variables(n))}
    return var_index, lambda e: _PackedPoly(
        _abelianize(e, var_index, p, units), len(var_index) + 4, p)


@functools.lru_cache(maxsize=None)
def _packed_sigma_images(n: int, p: int) -> dict[int, tuple[int, dict]]:
    """The sigma images of every letter on n strands as packed
    substitution maps, (touched, images) for `_PackedPoly.substitute`,
    with variable v at its place in `a_variables(n)`.  Read only, and
    cached because they cost as much as the rest of a small build."""
    var_index, lift = _lift(n, p)
    maps = {}
    for k in range(1, n):
        for letter in (k, -k):
            images = {var_index[g]: lift(img).terms
                      for g, img in sigma_images(letter, n).items()}
            touched = sum(_EMASK << (_BITS * v) for v in images)
            maps[letter] = (touched, images)
    return maps


@functools.lru_cache(maxsize=_PHI_CACHE_SIZE)
def _packed_phi_matrices(b: BraidWord, p: int) -> tuple[GenMatrix, GenMatrix]:
    """PhiL, PhiR with packed entries: `phi_matrices`' chain-rule loop over
    `_PackedPoly` entries and `_packed_sigma_images`.

    Phi depends only on the word and the prime (the scalars enter later,
    in `_specialize`), so it is cached per (word, prime).  The
    matrices are shared and read only: `cd_relations` only combines them
    with `@` and `-`, which build new entries and new dicts."""
    n = b.strands
    return phi_matrices(b, _lift(n, p)[1], _packed_sigma_images(n, p))


@functools.lru_cache(maxsize=_RELATIONS_CACHE_SIZE)
def _scalar_free_relations(b: BraidWord, flavor: str, prime: int, split,
                           lam_override) -> tuple[dict[int, int], ...]:
    """The nonzero packed relations, scalars in their keys: ht0's
    construction over abelianized entries, Phi built without any symbolic
    intermediate.  Read only; `_specialize` builds new dicts."""
    lift = _lift(b.strands, prime, flavor_rule(flavor).units)[1]
    entries = cd_relations(b, flavor, lambda w: _packed_phi_matrices(w, prime),
                           lift, lam_override, split)
    return tuple(e.terms for e in entries if e.terms)


def packed_relations(b: BraidWord, flavor: str, prime: int, lam0: int,
                     mu0: int, u0: int, v0: int, split: int | None = None,
                     lam_override=None) -> tuple[list[dict[int, int]], int]:
    """(rels, nvars): the nonzero degree-0 relations as packed F_p
    polynomials in the nvars variables of `a_variables`: the key's cached
    build specialized at (lam0, mu0, u0, v0), any Lam override a tuple."""
    key = None if lam_override is None else tuple(map(tuple, lam_override))
    rels = _scalar_free_relations(b, flavor, prime, split, key)
    nvars = len(a_variables(b.strands))
    return _specialize(rels, nvars, prime, (lam0, mu0, u0, v0)), nvars


def _auto_split(b: BraidWord) -> int:
    """The cut `augmentation_number` takes by default: the middle of the
    word, where the factor matrices stay small and the relations sparse,
    so the search has fewer terms to rewrite.  By the chain rule for PhiL
    and PhiR every cut gives the same count."""
    return len(b.letters) // 2


def augmentation_number(b: BraidWord, flavor: str, prime: int, lam0: int,
                        mu0: int, u0: int | None = None, v0: int | None = None,
                        split: int | None = None, lam_override=None,
                        budget: int | None = None) -> AugResult:
    """Count augmentations of the braid's degree-0 presentation.

    Builds the relations directly over F_p (abelianized, scalars
    evaluated), which keeps long words tractable; the result agrees with
    counting from the symbolic presentation.  The word is cut at `split`;
    by default at `_auto_split(b)`, and `split=0` is the whole word.  The
    budget bounds the evaluations of the count at that cut.  The scalars
    are checked, and (u0, v0) resolved for the flavor, by `_scalar_point`.
    """
    scalars = _scalar_point(flavor, prime, lam0, mu0, u0, v0)
    budget = _budget_from_env(budget)
    if split is None:
        split = _auto_split(b)
    rels, nvars = packed_relations(b, flavor, prime, *scalars,
                                   split=split, lam_override=lam_override)
    return _count_packed(rels, nvars, prime, budget)


# ---------------------------------------------------------------------------
# Resultants and the index-2 augmentation polynomial, in ZZ[L, m, U, x]
# ---------------------------------------------------------------------------


def _shifted(terms: dict[tuple[int, ...], int], low) -> CommPoly:
    """The polynomial with these terms divided by the monomial with
    exponents `low` (which may be negative)."""
    return CommPoly.from_terms({tuple(e - d for e, d in zip(k, low)): c
                                for k, c in terms.items()})


def _normalized(p: CommPoly, strip: tuple[str, ...] = ()) -> CommPoly:
    """Integer-primitive form with positive leading coefficient and the
    monomial factor in the variables named in `strip` removed."""
    if not p:
        return p
    p = p.primitive()
    terms = (-p if p.LC < 0 else p).terms()
    low = [min(k[i] for k, _ in terms) if name in strip else 0
           for i, name in enumerate(VARS)]
    return _shifted(dict(terms), low)


def _power(p: CommPoly, e: int) -> CommPoly:
    return math.prod([p] * e, start=CommPoly({0: 1}))


def _prem(a: list[CommPoly], b: list[CommPoly]) -> list[CommPoly]:
    """lc(b)^(deg a - deg b + 1) a mod b for coefficient lists in x, lowest
    first, with nonzero last entries; trailing zeros dropped."""
    lc, db, r = b[-1], len(b) - 1, list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        r = [e * lc for e in r]
        if c:
            for j in range(db):
                r[k - db + j] = r[k - db + j] - c * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def sylvester_resultant(f: CommPoly, g: CommPoly) -> CommPoly:
    """Resultant in x with the sign of the Sylvester determinant, by the
    subresultant PRS (Collins 1967; Brown and Traub 1971; Cohen, Alg.
    3.3.7, without the content step), every division exact.  An input
    constant in x gives f^n or g^m."""
    m, n = max(f.degree("x"), 0), max(g.degree("x"), 0)
    if m == 0 and n == 0:
        raise ValueError("both inputs constant in x")
    if m == 0 or n == 0:
        return _power(f, n) if m == 0 else _power(g, m)
    a, b = ([p.coeff_x(j) for j in range(d + 1)] for p, d in ((f, m), (g, n)))
    sign = -1 if m < n and m * n % 2 else 1
    if m < n:
        a, b = b, a
    lead = h = CommPoly({0: 1})
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return CommPoly()
        div = lead * _power(h, delta)
        a, b = b, [c.exquo(div) for c in r]
        lead = a[-1]
        h = _power(lead, delta).exquo(_power(h, delta - 1)) if delta else h
    res = _power(b[0], len(a) - 1).exquo(_power(h, len(a) - 2))
    return res if sign > 0 else -res


def _running_gcd(polys: list[CommPoly]) -> CommPoly:
    """A gcd, up to sign; GCDHEU runs only where division fails."""
    result = polys[0]
    for p in polys[1:]:
        try:
            p.exquo(result)
        except ArithmeticError:
            result = result.gcd(p)
    return result


class AugPolyResult(NamedTuple):
    poly: CommPoly
    may_have_repeated_factors: bool = True


def _nc_to_comm(p: NCPoly) -> CommPoly:
    """Infinity-flavor relation in at most one generator, with V set to 1,
    times the least monomial that clears its negative exponents."""
    terms: dict[tuple[int, ...], int] = {}
    for (word, base), coeff in p.terms.items():
        key = (base[0], base[1], base[2], len(word))
        terms[key] = terms.get(key, 0) + coeff
    terms = {k: c for k, c in terms.items() if c}
    low = [min([0] + [k[i] for k in terms]) for i in range(len(VARS))]
    return _shifted(terms, low)


def augmentation_polynomial_index2(b: BraidWord) -> AugPolyResult:
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
    polys = [_normalized(_nc_to_comm(r)) for r in rels]
    polys = sorted({p for p in polys if p},
                   key=lambda p: (p.degree("x"), len(p), str(p)))
    if not polys:
        raise EliminationError("elimination failed: empty relation set")
    with_x = [p for p in polys if p.degree("x") > 0]
    consts = [p for p in polys if p.degree("x") == 0]
    # every pairwise resultant lies in the elimination ideal; the
    # codimension-1 part of the variety is cut out by their gcd
    results = list(consts)
    for f, g in itertools.combinations(with_x, 2):
        r = sylvester_resultant(f, g)
        if r:
            results.append(r)
    if not results:
        raise EliminationError("elimination failed: no constraints survive")
    result = _running_gcd(results)
    if result.degree("x") != 0:
        raise EliminationError("elimination failed: x not eliminated")
    result = _normalized(result, strip=("L", "m", "U"))
    return AugPolyResult(poly=result)
