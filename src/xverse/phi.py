"""The representation of the braid group on the degree-0 part of the free
algebra, and the matrices PhiL and PhiR of a braid.

For a single positive generator sigma_k the images on the a-generators are

    a_ki     -> -a_{k+1,i} - a_{k+1,k} a_{ki}      (i != k, k+1)
    a_ik     -> -a_{i,k+1} - a_{ik} a_{k,k+1}      (i != k, k+1)
    a_{k+1,i} -> a_{ki},   a_{i,k+1} -> a_{ik}
    a_{k,k+1} -> a_{k+1,k},  a_{k+1,k} -> a_{k,k+1}

and everything else is fixed.  The inverse sigma_k^-1 has the same images
with k and k+1 exchanged: one formula over the ordered strand pair (u, v),
(k, k+1) or (k+1, k), gives both, as it gives PhiL and PhiR in
`phi_matrices` (the round-trip tests pin them).

Composition convention: for a word B = l1 l2 ... lm the automorphism is
phi_B = phi_{l1} o phi_{l2} o ... o phi_{lm}.  This is the convention under
which the chain rules

    PhiL_{B1 B2} = PhiL_{B2}(phi_{B1} A) . PhiL_{B1}
    PhiR_{B1 B2} = PhiR_{B1} . PhiR_{B2}(phi_{B1} A)

hold in the stated form (Ng, "Knot and braid invariants from contact
homology I", Geom. Topol. 2005).  `phi_matrices` builds PhiL and PhiR by
them, one letter at a time from the last, over symbolic or packed entries.

The braid is walked in two directions.  `push` moves values of the
a-generators from the front, each letter evaluating its sigma images once
for all generators: `phi_images` (phi_B of every a, for dB and the chain
rules), the sampled factorization check and its degree bound are that one
pass over polynomials, residue matrices and word lengths.  A polynomial
(`apply_phi`) and the entries of PhiL and PhiR are rewritten from the
back, one sigma substitution per letter, because substituting whole
images into long words expands far before it cancels.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

from .braid import BraidWord, braid_transform
from .ncpoly import GenMatrix, Generator, NCPoly, gen

T = TypeVar("T")


def _a(i: int, j: int) -> NCPoly:
    return NCPoly.generator("a", i, j)


def a_variables(n: int) -> list[Generator]:
    """The off-diagonal a-generators in row-major order: the variable order
    of every presentation, symbolic or packed."""
    return [gen("a", i, j) for i in range(1, n + 1)
            for j in range(1, n + 1) if i != j]


def _strand_pair(letter: int) -> tuple[int, int]:
    """The ordered strand pair (u, v) of a letter: (k, k+1) for sigma_k and
    (k+1, k) for its inverse."""
    k = abs(letter)
    return (k + 1, k) if letter < 0 else (k, k + 1)


def sigma_images(letter: int, n: int) -> dict[Generator, NCPoly]:
    """Images of the affected a-generators under phi of a letter, sigma_k
    for k > 0 and sigma_|k|^-1 for k < 0, acting on n strands, from the
    formula of the module docstring with (u, v) = `_strand_pair` in place of
    (k, k+1).  Unlisted generators are fixed."""
    if not 1 <= abs(letter) <= n - 1:
        raise ValueError(f"sigma_{abs(letter)} does not act on {n} strands")
    u, v = _strand_pair(letter)
    images: dict[Generator, NCPoly] = {}
    for i in range(1, n + 1):
        if i not in (u, v):
            images[gen("a", u, i)] = -_a(v, i) - _a(v, u) * _a(u, i)
            images[gen("a", i, u)] = -_a(i, v) - _a(i, u) * _a(u, v)
            images[gen("a", v, i)] = _a(u, i)
            images[gen("a", i, v)] = _a(i, u)
    images[gen("a", u, v)] = _a(v, u)
    images[gen("a", v, u)] = _a(u, v)
    return images


def _check_a_only(p: NCPoly, n: int) -> None:
    for g in p.generators():
        if g.family != "a" or g.row > n or g.col > n:
            raise ValueError(f"phi acts on a-generators with indices <= {n}, got {g}")


def push(b: BraidWord, values: Mapping[Generator, T],
         evaluate: Callable[[NCPoly, dict[Generator, T]], T]
         ) -> dict[Generator, T]:
    """phi_B(a) at `values` for every a-generator a: from the first letter
    on, each sigma image is evaluated at the current values by
    `evaluate(image, values)` and replaces its generator's value."""
    images = {k: sigma_images(k, b.strands) for k in set(b.letters)}
    values = dict(values)
    for letter in b.letters:
        # every image reads the values from before this letter
        values.update({g: evaluate(img, values)
                       for g, img in images[letter].items()})
    return values


def phi_images(b: BraidWord) -> dict[Generator, NCPoly]:
    """phi_B(a) for every a-generator a."""
    return push(b, {a: _a(a.row, a.col) for a in a_variables(b.strands)},
                lambda img, values: img.substitute(values))


def apply_phi(b: BraidWord, p: NCPoly) -> NCPoly:
    """Apply phi_B to a degree-0 polynomial, rewriting it from the last
    letter."""
    _check_a_only(p, b.strands)
    n = b.strands
    for letter in reversed(b.letters):
        p = p.substitute(sigma_images(letter, n))
    return p


def phi_matrices(b: BraidWord, lift: Callable[[NCPoly], T] = lambda e: e,
                 images: Mapping[int, Mapping] | None = None
                 ) -> tuple[GenMatrix, GenMatrix]:
    """The matrices (PhiL, PhiR) of B by the chain rules, from the last
    letter to the first.  For a letter l and the part B' after it, with X
    and Y the matrices of B' at phi_l(A),

        PhiL_{l B'} = X . PhiL_l,    PhiR_{l B'} = PhiR_l . Y,

    and PhiL_l, PhiR_l differ from the identity in two columns and two
    rows.  With (u, v) = (k, k+1) for sigma_k and (k+1, k) for its
    inverse, the update is

        PhiL col u <- X[:,v] - X[:,u] a_vu,   col v <- -X[:,u]
        PhiR row u <- Y[v,:] - a_uv Y[u,:],   row v <- -Y[u,:].

    Entries are NCPoly unless `lift` maps the constants and generators into
    another type with +, -, unary -, * and substitute; then
    `images[letter]` is the letter's sigma images as that type's
    substitution map."""
    n = b.strands
    if images is None:
        images = {k: sigma_images(k, n) for k in set(b.letters)}
    one, zero = lift(NCPoly.one()), lift(NCPoly())
    left = [[one if i == j else zero for j in range(n)] for i in range(n)]
    right = [row[:] for row in left]
    for letter in reversed(b.letters):
        subst = images[letter]
        left = [[e.substitute(subst) for e in row] for row in left]
        right = [[e.substitute(subst) for e in row] for row in right]
        u, v = _strand_pair(letter)
        x, y = lift(_a(v, u)), lift(_a(u, v))
        u, v = u - 1, v - 1  # list indices
        for row in left:
            row[u], row[v] = row[v] - row[u] * x, -row[u]
        right[u], right[v] = ([s - y * t for t, s in zip(right[u], right[v])],
                              [-t for t in right[u]])
    return GenMatrix(n, left), GenMatrix(n, right)


def verify_chain_rules(b: BraidWord) -> list[str]:
    """Check the chain rules and matrix inverses on the factorization
    b = b1 b2 cut at the middle.  Returns failure labels; empty means
    every identity holds."""
    n = b.strands
    cut = len(b.letters) // 2
    b1 = BraidWord(n, b.letters[:cut])
    b2 = BraidWord(n, b.letters[cut:])
    phi_l, phi_r = phi_matrices(b)
    l1, r1 = phi_matrices(b1)
    l2, r2 = phi_matrices(b2)
    images = phi_images(b1)
    failures = []
    if l2.substitute(images) @ l1 != phi_l:
        failures.append("left chain rule")
    if r1 @ r2.substitute(images) != phi_r:
        failures.append("right chain rule")
    ident = GenMatrix.identity(n)
    linv, rinv = phi_matrix_inverses(b)
    if linv @ phi_l != ident or phi_l @ linv != ident:
        failures.append("left inverse")
    if rinv @ phi_r != ident or phi_r @ rinv != ident:
        failures.append("right inverse")
    return failures


def phi_matrix_inverses(b: BraidWord) -> tuple[GenMatrix, GenMatrix]:
    """Inverses of PhiL_B, PhiR_B, as PhiL_{B^{-1}} and PhiR_{B^{-1}} with
    every a_{ij} replaced by phi_B(a_{ij})."""
    linv, rinv = phi_matrices(braid_transform(b, "inverse"))
    images = phi_images(b)
    return linv.substitute(images), rinv.substitute(images)
