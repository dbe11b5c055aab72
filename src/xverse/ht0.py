"""Degree-0 presentations of transverse homology.

HT0 of a braid closure is the quotient of the degree-0 subalgebra
(generated by the a_ij) by the 2n^2 relations

    Ahat - Lam . PhiL . Acheck      (the C-block, row-major)
    Acheck - Ahat . PhiR . Lam^-1   (the D-block, row-major)

flavor-specialized, or by their split form at a cut of the word.  One
construction, `cd_relations`, builds both blocks over any matrix-entry
type: `ht0_relations` runs it over symbolic `NCPoly` entries, and
`augment.packed_relations` over abelianized F_p entries.  The relations
are kept raw; a bounded substitution pass (eliminate a variable occurring
linearly with unit coefficient and nowhere else in that relation) is
available for display and for the index-2 polynomial pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, braid_stats, braid_transform
from .dga import DgaError, structured_matrices
from .ncpoly import Generator, NCPoly, gen
from .phi import apply_phi, phi_matrices


@dataclass
class Ht0Presentation:
    braid: BraidWord
    flavor: str
    sl: int
    variables: list[Generator]
    relations: list[NCPoly]


def a_variables(n: int) -> list[Generator]:
    """The off-diagonal a-generators in row-major order: the variable order
    of every presentation, symbolic or packed."""
    return [gen("a", i, j) for i in range(1, n + 1)
            for j in range(1, n + 1) if i != j]


def cd_relations(b: BraidWord, flavor: str, phi, lift,
                 lam_override=None, split: int | None = None) -> list:
    """The C-block then the D-block entries, row-major, over any entry type
    with +, -, * and is_zero.  Ahat, Acheck, Lam and Lam^-1 are specialized
    to the flavor and mapped into that type by `lift`; `phi(word)` returns
    (PhiL, PhiR) of a word in that type.  Cut at letter k, b = b1 b2:

        PhiL_{b1^-1} . Ahat - Lam . PhiL_{b2} . Acheck
        Acheck . PhiR_{b1^-1} - Ahat . PhiR_{b2} . Lam^-1

    with Lam built from the writhe of the product; the factor matrices stay
    much smaller than those of the product word.  Without a cut (or at cut
    0) PhiL_{b1^-1} and PhiR_{b1^-1} are the identity.
    """
    stats = braid_stats(b)
    if not stats.is_knot:
        raise DgaError("links unsupported")
    cut = 0 if split is None else split
    if not 0 <= cut <= len(b.letters):
        raise DgaError(f"split position {split} out of range")
    m = structured_matrices(b, lam_override)
    ahat, acheck, lam, lam_inv = (
        M.map(lambda e: lift(e.specialize(flavor, stats.self_linking)))
        for M in (m.Ahat, m.Acheck, m.Lam, m.LamInv))
    n = b.strands
    phi_l, phi_r = phi(BraidWord(n, b.letters[cut:]))
    c_left, d_left = ahat, acheck
    if cut:
        l1inv, r1inv = phi(braid_transform(BraidWord(n, b.letters[:cut]),
                                           "inverse"))
        c_left, d_left = l1inv @ ahat, acheck @ r1inv
    c_block = c_left - lam @ phi_l @ acheck
    d_block = d_left - ahat @ phi_r @ lam_inv
    return [e for block in (c_block, d_block) for _, _, e in block.entries()]


def ht0_relations(b: BraidWord, flavor: str = "minus", lam_override=None,
                  split: int | None = None) -> Ht0Presentation:
    """The symbolic presentation of HT0(b), whole or cut at `split`."""
    relations = cd_relations(b, flavor, phi_matrices, lambda e: e,
                             lam_override, split)
    return Ht0Presentation(braid=b, flavor=flavor,
                           sl=braid_stats(b).self_linking,
                           variables=a_variables(b.strands),
                           relations=relations)


def _unit_base_ok(base, flavor: str) -> bool:
    """Is L^a m^b U^c V^d invertible in the flavor's coefficient ring?"""
    if flavor == "infinity":
        return True
    return base[2] == 0 and base[3] == 0


def eliminate_linear(relations: list[NCPoly], flavor: str,
                     protect: set[Generator] | None = None
                     ) -> tuple[list[NCPoly], dict[Generator, NCPoly]]:
    """Bounded substitution pass.

    Repeatedly pick a relation of the form c*x + q with c a unit monomial
    and x not in q, solve x = -c^-1 q, substitute everywhere, and drop the
    relation.  Variables in `protect` are never eliminated.  Returns the
    remaining relations and the substitutions performed (closed under each
    other, so each image is in terms of surviving variables only).
    """
    rels = [r for r in relations if not r.is_zero()]
    subs: dict[Generator, NCPoly] = {}
    protect = protect or set()
    changed = True
    while changed:
        changed = False
        for idx, r in enumerate(rels):
            # prefer eliminating the largest variable, keeping small ones
            cands = [c for c in _iter_linear_unit_terms(r, flavor)
                     if c[0] not in protect]
            if not cands:
                continue
            found = max(cands, key=lambda c: c[0])
            x, coeff, base = found
            rest = r - NCPoly({((x,), base): coeff})
            image = rest.scale_base(-base[0], -base[1], -base[2], -base[3]) * (-coeff)
            subs[x] = image
            del rels[idx]
            rels = [p.substitute({x: image}) for p in rels]
            rels = [p for p in rels if not p.is_zero()]
            subs = {g: p.substitute({x: image}) for g, p in subs.items()}
            changed = True
            break
    return rels, subs


def _iter_linear_unit_terms(r: NCPoly, flavor: str):
    for (word, base), coeff in r.sorted_terms():
        if len(word) != 1 or coeff not in (1, -1):
            continue
        if not _unit_base_ok(base, flavor):
            continue
        x = word[0]
        if not any(x in w for (w, bb), cc in r.terms.items()
                   if (w, bb) != (word, base)):
            yield x, coeff, base


def b_consequences(b: BraidWord, flavor: str = "minus",
                   lam_override=None) -> list[NCPoly]:
    """The off-diagonal entries of A - Lam . phi_B(A) . Lam^-1, row-major.

    These are the b-generator differentials of the full DGA; its degree-0
    homology is the quotient of Def-2.1 type, so they lie in the relation
    ideal and may be added freely when simplifying a presentation.
    """
    stats = braid_stats(b)
    m = structured_matrices(b, lam_override)
    phiA = m.A.map(lambda p: apply_phi(b, p))
    block = m.A - m.Lam @ phiA @ m.LamInv
    return [block.at(i, j).specialize(flavor, stats.self_linking)
            for i in range(1, b.strands + 1)
            for j in range(1, b.strands + 1) if i != j]


def _term_divides(t1, t2, flavor: str) -> bool:
    """Does scalar term t1 = (base, coeff) divide t2 in the flavor ring?"""
    (b1, c1), (b2, c2) = t1, t2
    if c2 % c1 != 0:
        return False
    if flavor != "infinity" and (b2[2] < b1[2] or b2[3] < b1[3]):
        return False
    return True


def _interreduce_univariate(relations: list[NCPoly], flavor: str) -> list[NCPoly]:
    """Polynomial interreduction for relations in a single a-generator.

    Each relation is a genuinely commutative polynomial in one variable x
    over the scalar ring.  Whenever some relation g has a single-term
    leading x-coefficient that divides the whole leading coefficient of
    another relation r (with deg r >= deg g), the top of r is cancelled.
    Repeats to a fixed point, then dedups up to unit monomials.
    """
    xs = set()
    for r in relations:
        xs |= r.generators()
    if len(xs) > 1:
        return relations
    x = xs.pop() if xs else None

    def as_coeffs(p: NCPoly) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for (word, base), coeff in p.terms.items():
            out.setdefault(len(word), {})[base] = coeff
        return out

    def from_coeffs(coeffs) -> NCPoly:
        terms = {}
        for deg, sc in coeffs.items():
            for base, coeff in sc.items():
                if coeff:
                    terms[((x,) * deg, base)] = coeff
        return NCPoly(terms)

    rels = [r for r in relations if not r.is_zero()]
    for _ in range(200):
        rels = sorted({normalize_unit(r, flavor) for r in rels if not r.is_zero()},
                      key=lambda p: (max(len(w) for (w, _), _ in p.terms.items()),
                                     len(p.terms), str(p)))
        changed = False
        for gi, g in enumerate(rels):
            gc = as_coeffs(g)
            dg = max(gc)
            if len(gc[dg]) != 1:
                continue
            (gb, gcf), = gc[dg].items()
            if gcf not in (1, -1):
                continue
            for ri, r in enumerate(rels):
                if ri == gi:
                    continue
                rc = as_coeffs(r)
                dr = max(rc)
                if dr < dg:
                    continue
                if not all(_term_divides((gb, gcf), (b, c), flavor)
                           for b, c in rc[dr].items()):
                    continue
                # r -= (lc(r)/lc(g)) x^(dr-dg) g
                quot = NCPoly({((x,) * (dr - dg),
                                (b[0] - gb[0], b[1] - gb[1], b[2] - gb[2], b[3] - gb[3])):
                               c // gcf for b, c in rc[dr].items()})
                rels[ri] = r - quot * g
                changed = True
                break
            if changed:
                break
        if not changed:
            break
    return sorted({normalize_unit(r, flavor) for r in rels if not r.is_zero()},
                  key=lambda p: (max(len(w) for (w, _), _ in p.terms.items()),
                                 len(p.terms), str(p)))


def reduced_relations(h: Ht0Presentation) -> list[NCPoly]:
    """Display-oriented simplification of a presentation: adjoin the
    b-differential consequences, run the bounded substitution pass, and,
    when a single variable survives, interreduce the univariate system.
    Returns normalized deduplicated relations."""
    extra = b_consequences(h.braid, h.flavor)
    rels, _ = eliminate_linear(list(h.relations) + extra, h.flavor)
    rels = sorted({normalize_unit(r, h.flavor) for r in rels if not r.is_zero()},
                  key=str)
    xs = set()
    for r in rels:
        xs |= r.generators()
    if len(xs) <= 1:
        rels = _interreduce_univariate(rels, h.flavor)
    return rels


def normalize_unit(p: NCPoly, flavor: str) -> NCPoly:
    """Canonical representative of p up to unit monomials: shift the
    invertible scalar exponents so their minimum is 0 and make the first
    canonical term positive."""
    if p.is_zero():
        return p
    bases = [b for (_, b), _ in p.terms.items()]
    lam = min(b[0] for b in bases)
    mu = min(b[1] for b in bases)
    u = v = 0
    if flavor == "infinity":
        u = min(b[2] for b in bases)
        v = min(b[3] for b in bases)
    q = p.scale_base(-lam, -mu, -u, -v)
    first = q.sorted_terms()[0]
    if first[1] < 0:
        q = -q
    return q
