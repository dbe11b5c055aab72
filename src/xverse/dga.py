"""The transverse differential graded algebra of a braid closure.

Generators (over the base ring of ncpoly):

    a_ij (i != j)  degree 0
    b_ij (i != j)  degree 1
    c_ij, d_ij     degree 1
    e_ij, f_ij     degree 2

with matrix differentials

    dA = 0
    dB = A - Lam . phi_B(A) . Lam^-1
    dC = Ahat - Lam . PhiL . Acheck
    dD = Acheck - Ahat . PhiR . Lam^-1
    dE = Bhat - C - Lam . PhiL . D
    dF = Bcheck - D - C . PhiR . Lam^-1

where Lam = diag(L m^-w, 1, ..., 1) and the hatted/checked matrices are
built below.  Flavors specialize the coefficient ring by the table
`ncpoly.FLAVORS` (`NCPoly.specialize`); the infinity flavor's rewrite of
L^a turns Lam into the primed diagonal automatically.

The differential extends to products by the Koszul rule
d(xy) = (dx)y + (-1)^|x| x(dy).  So d of a word x_1 ... x_k is the top
right block of the product of the dual matrices [[(-1)^|x| x, dx], [0, x]]
of its letters, which is how the sampled d^2 check evaluates it.

Each formula is written once, here: `cd_products` forms the products
Lam . PhiL . Y and X . PhiR . Lam^-1, which dC, dD, dE, dF, the modified DGA
and ht0's degree-0 relations, cut or whole, subtract from their left sides;
`db_block` forms dB (the DGA and `ht0.b_consequences`) from the table
`phi.phi_images`, and `_assemble` turns blocks into a specialized
presentation for both `build_dga` and `build_modified_dga`.  The
a-variable order is `phi.a_variables`.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from typing import NamedTuple

from .braid import BraidWord, braid_stats
from .ncpoly import FLAVORS, GenMatrix, Generator, NCPoly, base_value, collect, gen, letter
from .phi import a_variables, phi_images, phi_matrices, push


class DgaError(ValueError):
    pass


class Degree0Matrices(NamedTuple):
    """The matrices the degree-0 relations (dC, dD) read."""
    n: int
    A_lower: GenMatrix
    A_upper: GenMatrix
    Ahat: GenMatrix
    Acheck: GenMatrix
    Lam: GenMatrix
    LamInv: GenMatrix


class StructuredMatrices(NamedTuple):
    """The degree-0 matrices, then A, Bhat and Bcheck."""
    n: int
    A_lower: GenMatrix
    A_upper: GenMatrix
    Ahat: GenMatrix
    Acheck: GenMatrix
    Lam: GenMatrix
    LamInv: GenMatrix
    A: GenMatrix
    Bhat: GenMatrix
    Bcheck: GenMatrix


def _lam_matrices(entries, n: int, writhe: int) -> tuple[GenMatrix, GenMatrix]:
    """(Lam, LamInv) from n diagonal entries, each a (sign, L exponent,
    m exponent) tuple, checked to be units +-L^a m^b whose product is
    L m^-w.  The default entries and every override pass through here."""
    if len(entries) != n:
        raise DgaError(f"Lam override needs {n} entries")
    lam, inv = [], []
    det = (1, 0, 0)  # coeff sign, L exp, m exp
    for coeff, lexp, mexp in entries:
        if coeff not in (1, -1):
            raise DgaError("Lam override entries must be unit monomials in L, m")
        det = (det[0] * coeff, det[1] + lexp, det[2] + mexp)
        lam.append(NCPoly.scalar(coeff, lam=lexp, mu=mexp))
        inv.append(NCPoly.scalar(coeff, lam=-lexp, mu=-mexp))
    if det != (1, 1, -writhe):
        raise DgaError("det Lam mismatch")
    return GenMatrix.diagonal(lam), GenMatrix.diagonal(inv)


def _triangles(n: int, family: str, diag: NCPoly) -> tuple[GenMatrix, GenMatrix]:
    """The family's generators below and above the diagonal, as two
    matrices with `diag` on the diagonal and zero elsewhere."""
    def part(below: bool) -> GenMatrix:
        return GenMatrix.build(n, lambda i, j: diag if i == j else (
            NCPoly.generator(family, i, j) if (i > j) == below
            else NCPoly.zero()))
    return part(True), part(False)


def _hat_check(lower: GenMatrix, upper: GenMatrix) -> tuple[GenMatrix, GenMatrix]:
    """The hatted and checked matrices of a lower and upper part."""
    return (lower + upper.map(lambda p: p.scale_base(mu=1, u=1)),
            lower.map(lambda p: p.scale_base(v=1))
            + upper.map(lambda p: p.scale_base(mu=1)))


def degree0_matrices(b: BraidWord, lam_override=None) -> Degree0Matrices:
    """A_lower, A_upper, Ahat, Acheck, Lam and Lam^-1 of the braid, and
    nothing else: all the degree-0 relations read.  Lam is `lam_override`,
    or by default diag(L m^-w, 1, ..., 1)."""
    n = b.strands
    w = braid_stats(b).writhe
    if lam_override is None:
        lam_override = [(1, 1, -w)] + [(1, 0, 0)] * (n - 1)
    Lam, LamInv = _lam_matrices(lam_override, n, w)
    A_lower, A_upper = _triangles(n, "a", NCPoly.scalar(-1))
    Ahat, Acheck = _hat_check(A_lower, A_upper)
    return Degree0Matrices(n=n, A_lower=A_lower, A_upper=A_upper,
                           Ahat=Ahat, Acheck=Acheck, Lam=Lam, LamInv=LamInv)


def structured_matrices(b: BraidWord) -> StructuredMatrices:
    """The degree-0 matrices, with the default Lam, plus A, Bhat and
    Bcheck."""
    m = degree0_matrices(b)
    B_lower, B_upper = _triangles(m.n, "b", NCPoly.zero())
    Bhat, Bcheck = _hat_check(B_lower, B_upper)
    return StructuredMatrices(*m, A=m.A_lower + m.A_upper,
                              Bhat=Bhat, Bcheck=Bcheck)


class DgaPresentation(NamedTuple):
    braid: BraidWord
    flavor: str
    sl: int
    generators: list[Generator]
    diff: dict[Generator, NCPoly]
    phi_l: GenMatrix
    phi_r: GenMatrix


def cd_products(x, y, lam, lam_inv, phi_l, phi_r):
    """The products (Lam . PhiL . Y, X . PhiR . Lam^-1) over any entry type
    with +, * and is_zero.  dC, dD, dE, dF, the modified DGA and ht0's
    degree-0 relations, cut or whole, subtract them from their left sides:
    with X = Ahat and Y = Acheck they give dC and dD, with X = C and Y = D
    dE and dF."""
    return lam @ phi_l @ y, x @ phi_r @ lam_inv


def db_block(b: BraidWord, A: GenMatrix, lam: GenMatrix,
             lam_inv: GenMatrix) -> GenMatrix:
    """dB = A - Lam . phi_B(A) . Lam^-1."""
    return A - lam @ A.substitute(phi_images(b)) @ lam_inv


def _offdiag(n):
    return [(a.row, a.col) for a in a_variables(n)]


def _all_indices(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _assemble(b: BraidWord, flavor: str, blocks) -> DgaPresentation:
    """Check the flavor and that b closes to a knot, build its
    `structured_matrices` and Phi, and list the generators and
    differentials that `blocks(m, phi_l, phi_r)` yields as (family,
    differential matrix, positions), specialized to the flavor."""
    if flavor not in FLAVORS:
        raise DgaError(f"unknown flavor {flavor!r}")
    stats = braid_stats(b)
    if not stats.is_knot:
        raise DgaError("links unsupported")
    m = structured_matrices(b)
    phi_l, phi_r = phi_matrices(b)
    generators: list[Generator] = []
    diff: dict[Generator, NCPoly] = {}
    for family, mat, positions in blocks(m, phi_l, phi_r):
        for i, j in positions:
            g = gen(family, i, j)
            generators.append(g)
            diff[g] = mat.at(i, j).specialize(flavor, stats.self_linking)
    return DgaPresentation(braid=b, flavor=flavor, sl=stats.self_linking,
                           generators=generators, diff=diff,
                           phi_l=phi_l, phi_r=phi_r)


def _gen_matrix(n: int, family: str) -> GenMatrix:
    return GenMatrix.build(n, lambda i, j: NCPoly.generator(family, i, j))


def build_dga(b: BraidWord, flavor: str = "minus") -> DgaPresentation:
    def blocks(m, phi_l, phi_r):
        n = m.n
        dB = db_block(b, m.A, m.Lam, m.LamInv)
        for i in range(1, n + 1):
            if not dB.at(i, i).is_zero():
                raise DgaError(f"nonzero diagonal in dB at {i}")
        Cg, Dg = _gen_matrix(n, "c"), _gen_matrix(n, "d")
        lpa, apl = cd_products(m.Ahat, m.Acheck, m.Lam, m.LamInv, phi_l, phi_r)
        lpd, cpl = cd_products(Cg, Dg, m.Lam, m.LamInv, phi_l, phi_r)
        full = _all_indices(n)
        return [("a", GenMatrix(n), _offdiag(n)), ("b", dB, _offdiag(n)),
                ("c", m.Ahat - lpa, full), ("d", m.Acheck - apl, full),
                ("e", m.Bhat - Cg - lpd, full), ("f", m.Bcheck - Dg - cpl, full)]
    return _assemble(b, flavor, blocks)


def build_modified_dga(b: BraidWord, flavor: str = "minus") -> DgaPresentation:
    """The smaller presentation without b-generators: a, c, d plus
    e_{ij} for i <= j and f_{ij} for j <= i."""
    def blocks(m, phi_l, phi_r):
        n = m.n
        Cg, Dg = _gen_matrix(n, "c"), _gen_matrix(n, "d")
        lpa, apl = cd_products(m.Ahat, m.Acheck, m.Lam, m.LamInv, phi_l, phi_r)
        lpd, cpl = cd_products(Cg, Dg, m.Lam, m.LamInv, phi_l, phi_r)
        E, F = Cg + lpd, Dg + cpl
        dE = GenMatrix.build(n, lambda i, j: E.at(i, j) if i == j
                             else E.at(i, j) - F.at(i, j).scale_base(u=1))
        dF = GenMatrix.build(n, lambda i, j: F.at(i, j) if i == j
                             else F.at(i, j) - E.at(i, j).scale_base(v=1))
        full = _all_indices(n)
        return [("a", GenMatrix(n), _offdiag(n)), ("c", m.Ahat - lpa, full),
                ("d", m.Acheck - apl, full),
                ("e", dE, [(i, j) for i, j in full if i <= j]),
                ("f", dF, [(i, j) for i, j in full if j <= i])]
    return _assemble(b, flavor, blocks)


def differential(dga: DgaPresentation, p: NCPoly) -> NCPoly:
    """Extend the generator differential by the Koszul Leibniz rule."""
    def leibniz():
        for (word, base), coeff in p.terms.items():
            sign = 1
            for pos, g in enumerate(word):
                if g not in dga.diff:
                    raise DgaError(f"unknown generator {letter(g)}")
                dg = dga.diff[g]
                if dg.terms:
                    pre = word[:pos]
                    post = word[pos + 1:]
                    c0 = sign * coeff
                    for (w2, b2), c2 in dg.terms.items():
                        yield (pre + w2 + post,
                               (base[0] + b2[0], base[1] + b2[1],
                                base[2] + b2[2], base[3] + b2[3])), c0 * c2
                if letter(g).degree % 2:
                    sign = -sign
    return collect(leibniz())


def verify_d_squared(dga: DgaPresentation) -> list[tuple[Generator, NCPoly]]:
    """Compute d(d(g)) for every generator; returns the failing ones."""
    failures = []
    for g in dga.generators:
        r = differential(dga, dga.diff[g])
        if not r.is_zero():
            failures.append((g, r))
    return failures


_FACTORED = ("A_lower", "A_upper", "Ahat", "Acheck")


def verify_phi_factorization(b: BraidWord) -> list[str]:
    """Check phi_B(M) = PhiL . M . PhiR for M in _FACTORED; returns the
    names of failing identities."""
    m = degree0_matrices(b)
    phi_l, phi_r = phi_matrices(b)
    images = phi_images(b)
    failures = []
    for name in _FACTORED:
        M = getattr(m, name)
        if M.substitute(images) != phi_l @ M @ phi_r:
            failures.append(name)
    return failures


# ---------------------------------------------------------------------------
# Sampled identity checks.  Fully symbolic expansion of d(d(g)) or of the
# factorization identity can generate tens of millions of monomials before
# cancellation on unlucky words.  Instead, evaluate the generators at random
# matrices over F_p (p = _SAMPLE_PRIME) and the four base scalars at random
# units.
#
# Dimension.  Both checks send each letter x to the generic superdiagonal
# N x N matrix X = sum_j t[x, j] E[j, j+1] with N = degree + 1
# (`_superdiagonal_dim`; Raz and Shpilka 2005).  A word w of length l then
# maps to its l-th superdiagonal, whose (j, j + l) entry is the product of
# t[w_k, j + k - 1] over k: each position has its own variables, so distinct
# words of one length give distinct monomials.  For l below N, the entry
# (N - 1 - l, N - 1) alone is then nonzero whenever the length-l part of a
# polynomial is, so the last column holds one such entry for every length,
# and each check evaluates its identities on e_N only: d(d(g)) e_N, and
# phi_B(M) e_N against PhiL . M . PhiR e_N.
#
# Error bound.  Such an entry is a nonzero commutative polynomial in the
# matrix entries and the scalars, so by Schwartz-Zippel a failure escapes one
# trial with probability at most about degree/p, and the _TRIALS = 2
# independent trials of a check with about (degree/p)^2, below 2^-36 at the
# largest degree either check admits (61).  Evaluation is exact, so a
# reported failure is always a real one.
#
# Exactness.  Arithmetic runs in float64 so that products hit BLAS, and it is
# exact: every residue is balanced, |r| < p / 2 + 2 (`_modp`), and no sum
# reaches 2^52 before it is reduced.  The d^2 step (`_column_step`) sums two
# products per entry at any N.  A dense product of the factorization check
# sums at most N - 1 <= 61 products, (N - 1)(p / 2 + 2)^2 < 4.3e15: phi_B of
# the point is strictly upper triangular (no sigma image has a constant
# term), M has two diagonals and PhiL at most N - 1.  A walk reduces each
# term's weight, its coefficient times its base's value, and each weight
# times its end node's value before it adds that product to its target, so
# the sum of a target of fewer than 2^29 terms stays below 2^53, as `_modp`
# needs.
#
# Compilation.  A check reads its polynomials once, into the flat arrays of
# one `_Terms`, whose letter ids come from the words' int codes by one sorted
# lookup and which owns the word layout: every word is stored reversed, so
# every walk prepends a letter to its parent's word.  Each `_Trie` takes a
# subset of those terms and is built once, before the trials, from one
# `np.lexsort` of its rows, and sums its terms per (polynomial, word length)
# target.  A trial is numpy work on blocks of at most _BLOCK nodes, and every
# walk starts from a root vector.  The same walk evaluates a word at
# superdiagonal matrices (`superdiagonal`, one diagonal per node), at dense
# ones on e_N, and d(d(g)) e_N (`_column_step`, one entry per word length per
# node; see `_d_squared`).  The factorization check has one trie over the
# four M: it pushes the point through the braid (`phi.push`), walks M's trie
# there from e_N, and multiplies the superdiagonal values of PhiL, M and PhiR
# e_N as n x n block matrices and block columns (see `_phi_factorization`).
# Both checks share one trial loop (`_sampled`).
# ---------------------------------------------------------------------------

_SAMPLE_PRIME = 16777213
_TRIALS = 2  # independent points per check (see Error bound)
_MAX_SUPERDIAGONAL = 62
_BLOCK = 1024


def _modp(arr):
    """Reduce a float64 array of integers below 2^53 in absolute value to
    balanced residues mod p, in place, through one temporary array.

    The computed quotient arr / p is within 2^-23 of the true one, so its
    rounding leaves |r| < p / 2 + 2 with no correction; the product of the
    rounded quotient and p, and the difference, are exact."""
    import numpy as np
    q = arr * (1.0 / _SAMPLE_PRIME)
    np.rint(q, out=q)
    q *= _SAMPLE_PRIME
    arr -= q
    return arr


def _rand_point(rng, shape: tuple):
    """A uniform random array of the given shape over F_p, in balanced
    residues: 24-bit words cut from one `rng.randbytes` draw, made again if a
    word is p or more (3 in 2^24 are), and reduced by `_modp`."""
    import numpy as np
    size = int(np.prod(shape))
    while True:
        words = np.frombuffer(rng.randbytes(4 * size), "<u4") & 0xFFFFFF
        if (words < _SAMPLE_PRIME).all():
            return _modp(words.astype(np.float64).reshape(shape))


class _Terms:
    """The terms of a list of polynomials, in order, as arrays with one entry
    per term: `letters`, `lens`, `polys` (the polynomial's index), `coeffs`
    (balanced residues) and `base_ids` (indices into `bases`, the distinct
    exponents of L, m, U, V in order of first appearance).  `letters` holds
    every word reversed, as int32 letter ids padded with len(ids) on the
    right: the column-reversed view of rows filled right-aligned, the one
    word layout every `_Trie` walks.  `spans` holds each polynomial's longest
    word.  The letters' int codes, all below 2^30, are looked up among the
    sorted codes of `ids`; one not there raises DgaError, as in
    `differential`."""

    def __init__(self, polys: list[NCPoly], ids: dict):
        import numpy as np
        from itertools import chain
        keys = list(chain.from_iterable(p.terms for p in polys))
        words = list(map(operator.itemgetter(0), keys))
        self.size = len(polys)
        self.polys = np.repeat(np.arange(self.size), [len(p.terms) for p in polys])
        self.lens = np.fromiter(map(len, words), np.int32, len(words))
        codes = np.fromiter(chain.from_iterable(words), np.int32, self.lens.sum())
        # a code not in ids lands on another's; -1, no letter's code, is one
        known = np.fromiter(chain(ids, [-1]), np.int32, len(ids) + 1)
        order = np.argsort(known)
        at = order[np.searchsorted(known, codes, sorter=order).clip(max=len(ids))]
        if (missing := codes[known[at] != codes]).size:
            raise DgaError(f"unknown generator {letter(int(missing[0]))}")
        width = self.lens.max(initial=0)
        letters = np.full((len(words), width), len(ids), np.int32)
        letters[np.arange(width) >= width - self.lens[:, None]] = (
            np.fromiter(ids.values(), np.int32, len(ids))[at])
        self.letters = letters[:, ::-1]
        self.coeffs = _modp(np.fromiter(map(_SAMPLE_PRIME.__rmod__, chain.from_iterable(
            p.terms.values() for p in polys)), dtype=np.float64, count=len(keys)))
        bases: dict = {}
        self.base_ids = np.fromiter((bases.setdefault(b, len(bases))
                                     for _, b in keys), np.intp, len(keys))
        self.bases = list(bases)
        self.spans = np.zeros(self.size, dtype=np.int32)
        np.maximum.at(self.spans, self.polys, self.lens)


def _sum_runs(out, target, values):
    """out[t] += the sum of the values whose (sorted) target is t."""
    import numpy as np
    runs = np.flatnonzero(np.diff(target, prepend=-1))
    out[target[runs]] += np.add.reduceat(values, runs) if len(runs) else 0


class _Trie:
    """The words of some terms of a `_Terms`, in its reversed layout, merged
    on shared prefixes.  A node is (parent, letter) and stands for the word
    its path from the root, the empty word, spells backwards: its letter,
    then its parent's word.  Letters are ids into the arrays the steps read,
    and a depth's nodes are in the order of their paths.  The trie takes the
    terms numbered in `sel`, increasing, or all of them.  A term's target is
    its (polynomial, word length) pair, numbered polynomial * depths +
    length.  `walk` gives each node a value, computed for one depth at once
    from the values of the parents, and adds each term's weight, its
    coefficient times its base's value, times its end node's value to its
    target, each product reduced."""

    def __init__(self, terms: _Terms, sel=None):
        import numpy as np
        self.terms = terms
        sel = np.arange(len(terms.lens)) if sel is None else sel
        depths = int(terms.lens[sel].max(initial=0)) + 1
        self.size = terms.size * depths
        target = terms.polys[sel] * depths + terms.lens[sel]
        coeffs, bases = terms.coeffs[sel], terms.base_ids[sel]
        lens, letters = terms.lens[sel], terms.letters[sel, :depths - 1]
        # one stable sort of the rows, first letter first (rows of empty words
        # have no key and keep their order); at depth d a node starts at each
        # sorted row whose first d letters differ from the row before's
        # (padding sets a short word apart from its prefix)
        order = np.lexsort(letters.T[::-1]) if depths > 1 else np.arange(len(sel))
        ordered = letters[order]
        first = np.concatenate(([-1], np.argmax(np.pad(  # the first such letter
            ordered[1:] != ordered[:-1], ((0, 0), (0, 1)), constant_values=True), axis=1)))
        node = np.zeros(len(sel), dtype=np.intp)  # each term's node
        parents = edges = node[:0]  # the root, depth 0, has no parent or letter
        # per depth: parent and letter of each node, and the terms that end
        # there (in target order, as `sel` is increasing) as coefficients,
        # bases, targets and nodes
        self.levels = []
        for depth in range(depths):
            if depth:
                keep = lens[order] >= depth
                order, first = order[keep], first[keep]
                new = first < depth
                parents, edges = node[order[new]], letters[order[new], depth - 1]
                node[order] = np.cumsum(new) - 1
            ends = np.flatnonzero(lens == depth)
            self.levels.append((parents, edges, coeffs[ends], bases[ends],
                                target[ends], node[ends]))

    def walk(self, root, step, scalars):
        """The targets at a point, as an array (size, len(root)): the root
        has the value `root`, a vector, and step(values, letters, depth)
        gives the values, reduced by `_modp`, of the children at `depth` by
        `letters` of nodes whose values are `values`.  Every value is a
        balanced residue."""
        import numpy as np
        units = np.array([base_value(b, scalars, _SAMPLE_PRIME)
                          for b in self.terms.bases], dtype=np.float64)
        out = np.zeros((self.size, root.size))
        level = root[None]
        for depth, (parents, letters, coeffs, bases, targets, nodes) in enumerate(self.levels):
            if depth:
                # balanced residues are exact in float32, which halves the
                # memory of the widest levels
                prev, level = level, np.empty((len(parents), root.size), np.float32)
                for lo in range(0, len(parents), _BLOCK):
                    blk = slice(lo, lo + _BLOCK)
                    level[blk] = step(prev[parents[blk]], letters[blk], depth)
            weights = _modp(coeffs * units[bases])
            for lo in range(0, len(targets), _BLOCK):
                blk = slice(lo, lo + _BLOCK)
                _sum_runs(out, targets[blk], _modp(weights[blk, None] * level[nodes[blk]]))
        return _modp(out)

    def superdiagonal(self, t, scalars):
        """The polynomials at the point that sends letter id k to the n x n
        matrix with t[k] (t is an array (letters, n - 1)) on its first
        superdiagonal, and the base scalars to `scalars`: an array
        (terms.size, depths, n) whose [:, l, j] is entry (j, j + l), 0 from
        j = n - l on.  A word longer than n - 1, which would map to 0, raises
        DgaError.  A node of depth l holds its word's l-th superdiagonal:
        entry j is its letter's t[x, j] times its parent's entry j + 1, and 0
        at j = n - 1."""
        import numpy as np
        n, depths = t.shape[1] + 1, len(self.levels)
        if depths > n:
            raise DgaError(f"a word of length {depths - 1} vanishes at dimension {n}")
        wide = np.pad(t, ((0, 0), (0, 1)))
        return self.walk(np.ones(n), lambda values, letters, depth: _modp(
            wide[letters] * np.roll(values, -1, axis=1)), scalars).reshape(-1, depths, n)


def _column_step(t, diags, signs, depths):
    """The step of `_Trie.walk` that prepends a letter x, at its dual matrix
    [[(-1)^|x| X, D(x)], [0, X]] (X from the point t, an array (letters,
    n - 1), D(x) from its diagonals diags[x], an array (width, n), and
    (-1)^|x| = signs[x]), to a word w, on the column e_n.  For w of length
    k, w e_n is one entry u, at row n - 1 - k, and the part of d(w) e_n of
    total length k + e one entry s_e, at row n - 1 - k - e.  So with
    r = n - 2 - k the state (s_-1, ..., s_{width - 2}, u) goes to

        u' = t[x, r] u,  s'_e = (-1)^|x| t[x, r - e] s_e + D(x)[r - e, r + 1] u,

    0 off the matrix: two products per entry (see Exactness), from tables
    made once.  Returns the step and the rows (depths, width) of the s_e."""
    import numpy as np
    n, width = t.shape[1] + 1, diags.shape[1]
    # rows of s_-1 .. s_{width - 2}, u; zeros pad t and D at row n and letter len(signs)
    at = n - np.arange(depths)[:, None] - np.append(np.arange(width), 1)
    at[at < 0] = n
    scale = np.pad(t, ((0, 1), (0, 2)))[:, at]
    scale[:, :, :-1] *= np.append(signs, 1.0)[:, None, None]
    shift = np.pad(diags, ((0, 1), (0, 1), (0, 1)))[:, np.arange(width + 1), at]

    def step(values, letters, depth):
        out = values * scale[letters, depth]
        out += shift[letters, depth] * values[:, -1:]
        return _modp(out)
    return step, at[:, :-1]


def _d_squared(dga: DgaPresentation):
    """d(d(g)) e_n for every generator g, compiled once: the walk of
    `_column_step` from the empty word's state (s = 0, u = 1) over the
    reversed words of d(g).  One `_Terms` holds every differential; `rows` is
    the trie of its terms with a hot letter, one whose differential D(x) is
    nonzero, whose (g, length) targets give each state's rows, and a second
    trie over the terms of those letters gives D(x).
    Returns the word degree of d(d(g)), blind to cancellation, and a function
    of (t, scalars) that gives every d(d(g)) e_n at the superdiagonal point
    t, an array (len(generators), n - 1), as an array (len(generators), n)."""
    import numpy as np
    gens = dga.generators
    terms = _Terms([dga.diff[g] for g in gens], {g: k for k, g in enumerate(gens)})
    # per letter id, padding len(gens) too: its differential's longest word if hot, else -1
    span = np.where(np.bincount(terms.polys, minlength=len(gens) + 1) > 0,
                    np.append(terms.spans, 0), -1).astype(np.int32)
    longest = span[terms.letters].max(axis=1, initial=-1)
    rows = _Trie(terms, np.flatnonzero(longest >= 0))
    # a word of d(g) with one hot letter replaced by a word of its differential
    degree = int((terms.lens - 1 + longest)[longest >= 0].max(initial=0))
    used = np.unique(terms.letters[longest >= 0])  # a cold letter has no terms
    hot_trie = _Trie(terms, np.flatnonzero(np.isin(terms.polys, used)))
    signs = np.array([(-1.0) ** g.degree for g in gens])
    depths, width = len(rows.levels), len(hot_trie.levels)

    def apply(t, scalars):
        step, at = _column_step(t, hot_trie.superdiagonal(t, scalars), signs, depths)
        # each s_e of a (g, length) target to its row; one off the column is 0
        states = rows.walk(np.eye(width + 1)[-1], step, scalars)[:, :-1]
        column = np.zeros((len(gens), t.shape[1] + 2))
        np.add.at(column.T, at, states.reshape(len(gens), depths, width).transpose(1, 2, 0))
        return _modp(column[:, :-1])
    return degree, apply


def _sigma_value(image: NCPoly, values: dict):
    """A sigma image at the residue matrices `values`, for `phi.push`."""
    return _modp(sum(coeff * reduce(operator.matmul,
                                    map(values.__getitem__, word))
                     for (word, _), coeff in image.terms.items()))


def _phi_degree_bound(b: BraidWord) -> int:
    """A bound on the word length of every phi_B(a_ij): word degrees
    pushed through the braid, blind to cancellation."""
    degs = push(b, dict.fromkeys(a_variables(b.strands), 1),
                lambda img, d: max(sum(map(d.__getitem__, word))
                                   for word, _ in img.terms))
    return max(degs.values(), default=0)


def _superdiagonal_dim(degree: int) -> int:
    if degree >= _MAX_SUPERDIAGONAL:
        raise DgaError(f"identity degree {degree} too large for sampling")
    return degree + 1


def _sampled(names: list, nvars: int, dim: int, apply, seed: int) -> list:
    """The names whose rows of apply(t, scalars) are nonzero at one of
    _TRIALS random superdiagonal points t, arrays (nvars, dim - 1), and
    scalars, each trial drawing t and then the four scalars from one
    `random.Random(seed)`; apply returns one row per name."""
    rng = random.Random(seed)
    bad = False  # then, per name, whether a trial has found it
    for _ in range(_TRIALS):
        point = _rand_point(rng, (nvars, dim - 1))
        bad |= apply(point, tuple(rng.randrange(1, _SAMPLE_PRIME) for _ in range(4))).any(axis=1)
    return [name for name, fails in zip(names, bad) if fails]


def verify_d_squared_sampled(dga: DgaPresentation,
                             seed: int = 0) -> list[Generator]:
    """Check d(d(g)) = 0 for every generator by evaluation at random
    superdiagonal matrices, on their last column; returns the generators
    whose image fails to vanish, in order."""
    degree, apply = _d_squared(dga)
    return _sampled(dga.generators, len(dga.generators), _superdiagonal_dim(degree),
                    apply, seed)


def _upper(diags):
    """The n x n upper triangular matrices whose diagonals, an array
    (size, depths, n) as `_Trie.superdiagonal` gives, are `diags`."""
    import numpy as np
    size, depths, n = diags.shape
    length, row = np.nonzero(np.arange(n) < n - np.arange(depths)[:, None])
    out = np.zeros((size, n, n))
    out[:, row, row + length] = diags[:, length, row]
    return out


def _block_matvec(x, v):
    """The products of block matrices x, arrays (..., n, n, N, N) of n x n
    blocks, and block columns v, arrays (..., n, n, N): entry [i, j] is the
    sum over k of x[i, k] v[k, j], each block product reduced before the
    sum."""
    return _modp(sum(_modp(x[..., :, k, None, :, :] @ v[..., None, k, :, :, None])
                     for k in range(x.shape[-3])))[..., 0]


def _phi_factorization(b: BraidWord):
    """phi_B(M) e_N - PhiL . M . PhiR e_N for M in _FACTORED, compiled once,
    after the degree bound, so that a braid too large for sampling is
    refused before its symbolic Phi is built.  Two tries, over PhiL and PhiR
    and over the four M, are read by `superdiagonal` at the point, and M's
    trie is walked once more at phi_B of it, from the root e_N, with dense
    steps, and summed over its word lengths.  Returns N and a function of
    (t, scalars) that gives, at the superdiagonal point t, an array
    (len(avars), N - 1), the difference as an array (4, n * n * N): per M,
    each entry's last column."""
    import numpy as np
    bound = _phi_degree_bound(b)
    _superdiagonal_dim(bound)  # raises for a bound too large
    n, m = b.strands, degree0_matrices(b)
    phi_l, phi_r = phi_matrices(b)
    avars = a_variables(n)
    ids = {a: k for k, a in enumerate(avars)}
    terms = lambda *ms: _Terms([e for M in ms for _, _, e in M.entries()], ids)
    outer = _Trie(terms(phi_l, phi_r))
    mids = _Trie(terms(*(getattr(m, name) for name in _FACTORED)))
    spans = outer.terms.spans.reshape(2, -1).max(axis=1)
    dim = _superdiagonal_dim(max(int(spans.sum()) + 1, bound))

    def apply(t, scalars):
        left, right = _upper(outer.superdiagonal(t, scalars)).reshape(2, n, n, dim, dim)
        mid = _upper(mids.superdiagonal(t, scalars)).reshape(-1, n, n, dim, dim)
        rhs = _block_matvec(left, _block_matvec(mid, right[..., -1]))
        point, j = np.zeros((len(avars), dim, dim)), np.arange(dim - 1)
        point[:, j, j + 1] = t
        pushed = push(b, dict(zip(avars, point)), _sigma_value)
        mats = np.reshape([pushed[a] for a in avars], point.shape)
        lhs = mids.walk(np.eye(dim)[-1], lambda values, letters, depth: _modp(
            (mats[letters] @ values[..., None])[..., 0]),
            scalars).reshape(-1, len(mids.levels), dim).sum(axis=1)
        # two balanced residues of one class can differ by p
        return _modp(rhs.reshape(lhs.shape) - lhs).reshape(len(_FACTORED), -1)
    return dim, apply


def verify_phi_factorization_sampled(b: BraidWord, seed: int = 0) -> list[str]:
    """The factorization identities of verify_phi_factorization, checked by
    evaluation at random superdiagonal matrices, on their last column,
    instead of symbolic expansion; returns the names of failing identities,
    in order."""
    dim, apply = _phi_factorization(b)
    return _sampled(_FACTORED, len(a_variables(b.strands)), dim, apply, seed)
