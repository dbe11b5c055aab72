"""Degree-0 presentations of transverse homology.

HT0 of a braid closure is the quotient of the degree-0 subalgebra
(generated by the a_ij) by the 2n^2 relations

    Ahat - Lam . PhiL . Acheck      (the C-block, row-major)
    Acheck - Ahat . PhiR . Lam^-1   (the D-block, row-major)

flavor-specialized, or by their split form at a cut of the word.  One
construction, `cd_relations`, builds both blocks over any matrix-entry
type: `ht0_relations` runs it over symbolic `NCPoly` entries, and
`augment.packed_relations` over abelianized F_p entries.  It owns the cut,
the specialization and the lift into the entry type; the two products it
subtracts are `dga.cd_products`, as the b-differentials of
`b_consequences` are `dga.db_block`, so the DGA and its degree-0 quotient
share one copy of each.  The variable order is `phi.a_variables`.

The relations are kept raw.  `reduced_relations` simplifies them for
display and for the index-2 polynomial: it adjoins `b_consequences`,
substitutes away each variable x that some relation holds only in one
term c*x with c a unit (`eliminate_linear`), and interreduces the system
when at most one variable is left.  A unit is +-1 times a monomial in the
scalars the flavor's ring inverts, the first `ncpoly.FLAVORS[flavor].units`
of (L, m, U, V): L and m, and also U and V in the infinity flavor.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from .braid import BraidWord, braid_stats, braid_transform
from .dga import DgaError, cd_products, db_block, degree0_matrices
from .ncpoly import Generator, NCPoly, flavor_rule
from .phi import a_variables, phi_matrices


class Ht0Presentation(NamedTuple):
    braid: BraidWord
    flavor: str
    sl: int
    variables: list[Generator]
    relations: list[NCPoly]
    lam_override: list | None = None  # as given to ht0_relations


def cd_relations(b: BraidWord, flavor: str, phi, lift,
                 lam_override=None, split: int | None = None) -> list:
    """The C-block then the D-block entries, row-major, over any entry type
    with +, -, * and is_zero.  Ahat, Acheck, Lam and Lam^-1 are specialized
    to the flavor and mapped into that type by `lift`; `phi(word)` returns
    (PhiL, PhiR) of a word in that type.  Cut at letter k, b = b1 b2:

        PhiL_{b1^-1} . Ahat - Lam . PhiL_{b2} . Acheck
        Acheck . PhiR_{b1^-1} - Ahat . PhiR_{b2} . Lam^-1

    with Lam built from the writhe of the product; the factor matrices stay
    much smaller than those of the product word.  No cut means cut 0, the
    whole word: b1 is empty, its Phi is the identity, and the left sides
    are Ahat and Acheck, as in dC and dD.
    """
    stats = braid_stats(b)
    if not stats.is_knot:
        raise DgaError("links unsupported")
    cut = 0 if split is None else split
    if not 0 <= cut <= len(b.letters):
        raise DgaError(f"split position {split} out of range")
    m = degree0_matrices(b, lam_override)
    ahat, acheck, lam, lam_inv = (
        M.map(lambda e: lift(e.specialize(flavor, stats.self_linking)))
        for M in (m.Ahat, m.Acheck, m.Lam, m.LamInv))
    n = b.strands
    phi_l, phi_r = phi(BraidWord(n, b.letters[cut:]))
    l1inv, r1inv = phi(braid_transform(BraidWord(n, b.letters[:cut]),
                                       "inverse"))
    lpa, apl = cd_products(ahat, acheck, lam, lam_inv, phi_l, phi_r)
    return [e for block in (l1inv @ ahat - lpa, acheck @ r1inv - apl)
            for _, _, e in block.entries()]


def ht0_relations(b: BraidWord, flavor: str = "minus", lam_override=None,
                  split: int | None = None) -> Ht0Presentation:
    """The symbolic presentation of HT0(b), whole or cut at `split`."""
    relations = cd_relations(b, flavor, phi_matrices, lambda e: e,
                             lam_override, split)
    return Ht0Presentation(braid=b, flavor=flavor,
                           sl=braid_stats(b).self_linking,
                           variables=a_variables(b.strands),
                           relations=relations, lam_override=lam_override)


def eliminate_linear(relations: list[NCPoly], flavor: str) -> list[NCPoly]:
    """Bounded substitution pass.

    Repeatedly take the first relation c*x + q in which x occurs only in
    the term c*x and c is +-1 times a unit monomial (the largest such x if
    there are several), solve x = -c^-1 q, substitute it into the other
    relations, and drop the relation.  Returns the nonzero relations left.
    """
    units = flavor_rule(flavor).units
    rels = [r for r in relations if not r.is_zero()]
    while True:
        for idx, r in enumerate(rels):
            uses = Counter(g for word, _ in r.terms for g in word)
            found = max(((w[0], base, c) for (w, base), c in r.terms.items()
                         if len(w) == 1 and uses[w[0]] == 1 and c in (1, -1)
                         and not any(base[units:])), default=None)
            if found:
                break
        else:
            return rels
        x, base, coeff = found
        rest = rels.pop(idx) - NCPoly({((x,), base): coeff})
        image = rest.scale_base(*(-e for e in base)) * -coeff
        rels = [q for q in (p.substitute({x: image}) for p in rels)
                if not q.is_zero()]


def b_consequences(b: BraidWord, flavor: str = "minus",
                   lam_override=None) -> list[NCPoly]:
    """The off-diagonal entries of A - Lam . phi_B(A) . Lam^-1, row-major,
    with Lam the default or `lam_override`, as in `degree0_matrices`.

    These are the b-generator differentials of the full DGA; its degree-0
    homology is the quotient of Def-2.1 type, so they lie in the relation
    ideal and may be added freely when simplifying a presentation.
    """
    stats = braid_stats(b)
    m = degree0_matrices(b, lam_override)
    block = db_block(b, m.A_lower + m.A_upper, m.Lam, m.LamInv)
    return [block.at(a.row, a.col).specialize(flavor, stats.self_linking)
            for a in a_variables(b.strands)]


def _canonical(relations: list[NCPoly], flavor: str, key=str) -> list[NCPoly]:
    """The distinct nonzero relations up to unit monomials, sorted by key."""
    return sorted({normalize_unit(r, flavor) for r in relations
                   if not r.is_zero()}, key=key)


def _by_degree(p: NCPoly):
    return max(len(w) for w, _ in p.terms), len(p.terms), str(p)


def _top(p: NCPoly) -> tuple[tuple, dict]:
    """The top word x^d of a univariate p and its coefficient {base: c}."""
    top = max((w for w, _ in p.terms), key=len)
    return top, {b: c for (w, b), c in p.terms.items() if w == top}


def _cancel_top(rels: list[NCPoly], units: int) -> bool:
    """Cancel the top of the first relation r that the first possible g
    reduces: g's top coefficient is +-1 times one monomial dividing every
    term of r's, and deg r >= deg g.  False if no pair qualifies."""
    tops = [_top(p) for p in rels]
    for gi, (gw, gtop) in enumerate(tops):
        (gb, gc), *more = gtop.items()
        if more or gc not in (1, -1):
            continue
        low = gb[units:]  # g's non-unit exponents, which r's top must reach
        for ri, (rw, rtop) in enumerate(tops):
            if ri != gi and len(rw) >= len(gw) and all(
                    e >= f for b in rtop for e, f in zip(b[units:], low)):
                # r -= (lc(r)/lc(g)) x^(deg r - deg g) g
                quot = {(rw[len(gw):], tuple(e - f for e, f in zip(b, gb))):
                        c * gc for b, c in rtop.items()}
                rels[ri] = rels[ri] - NCPoly(quot) * rels[gi]
                return True
    return False


def _interreduce_univariate(relations: list[NCPoly], flavor: str) -> list[NCPoly]:
    """Polynomial interreduction for relations in at most one a-generator x.

    Each relation is a commutative polynomial in x over the scalar ring.
    Cancel tops (`_cancel_top`) until none can be: each step lowers deg r
    or zeroes r, so the loop ends.  Returns the relations up to unit
    monomials, by degree, then size, then string.
    """
    key = cache(_by_degree)  # printed once per relation, not once per sort
    rels = _canonical(relations, flavor, key)
    while _cancel_top(rels, flavor_rule(flavor).units):
        rels = _canonical(rels, flavor, key)
    return rels


def reduced_relations(h: Ht0Presentation) -> list[NCPoly]:
    """Display-oriented simplification of a presentation: adjoin the
    b-differential consequences, with the presentation's Lam, run the
    bounded substitution pass, and, when at most one variable survives,
    interreduce the univariate system.
    Returns normalized deduplicated relations."""
    rels = eliminate_linear(
        h.relations + b_consequences(h.braid, h.flavor, h.lam_override), h.flavor)
    if len(set().union(*(r.generators() for r in rels))) <= 1:
        return _interreduce_univariate(rels, h.flavor)
    return _canonical(rels, h.flavor)


def normalize_unit(p: NCPoly, flavor: str) -> NCPoly:
    """Canonical representative of p up to unit monomials: shift the
    exponents of the flavor's unit scalars (`ncpoly.FLAVORS`) so each
    minimum is 0, and make the first canonical term positive."""
    if p.is_zero():
        return p
    q = p.scale_base(*(-min(b[i] for _, b in p.terms)
                       for i in range(flavor_rule(flavor).units)))
    return -q if q.sorted_terms()[0][1] < 0 else q
