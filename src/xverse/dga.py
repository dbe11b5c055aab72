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
built below.  Flavors specialize the coefficient ring: hat (U=0, V=1),
double-hat (U=V=0), infinity (L^a rewritten with (U/V)^(-a(sl+1)/2),
which turns Lam into the primed diagonal automatically).

The differential extends to products by the Koszul rule
d(xy) = (dx)y + (-1)^|x| x(dy).

Each formula is written once, here: `cd_blocks` forms the products
Lam . PhiL . X and Y . PhiR . Lam^-1 (dC, dD, dE, dF, the modified DGA and
ht0's degree-0 relations, cut or whole), `db_block` forms dB (the DGA and
`ht0.b_consequences`), and `_assemble` turns blocks into a specialized
presentation for both `build_dga` and `build_modified_dga`.  The
a-variable order is `phi.a_variables`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .braid import BraidWord, braid_stats
from .ncpoly import GenMatrix, Generator, NCPoly, gen, pow_mod
from .phi import a_variables, apply_phi, phi_matrices, sigma_images

FLAVORS = ("minus", "hat", "doublehat", "infinity")


class DgaError(ValueError):
    pass


@dataclass
class Degree0Matrices:
    """The matrices the degree-0 relations (dC, dD) read."""
    n: int
    writhe: int
    A_lower: GenMatrix
    A_upper: GenMatrix
    Ahat: GenMatrix
    Acheck: GenMatrix
    Lam: GenMatrix
    LamInv: GenMatrix


@dataclass
class StructuredMatrices(Degree0Matrices):
    A: GenMatrix
    B: GenMatrix
    Bhat: GenMatrix
    Bcheck: GenMatrix


def _diag_override(entries, n: int, writhe: int) -> tuple[GenMatrix, GenMatrix]:
    """Validate a Lam override: unit monomials in L, m whose product is
    L m^-w, and return (Lam, LamInv)."""
    if len(entries) != n:
        raise DgaError(f"Lam override needs {n} entries")
    polys = []
    det = (1, 0, 0)  # coeff sign, L exp, m exp
    for e in entries:
        if isinstance(e, NCPoly):
            p = e
        else:
            coeff, lexp, mexp = e
            p = NCPoly.scalar(coeff, lam=lexp, mu=mexp)
        terms = list(p.terms.items())
        if len(terms) != 1:
            raise DgaError("Lam override entries must be unit monomials")
        (word, base), coeff = terms[0]
        if word or coeff not in (1, -1) or base[2] or base[3]:
            raise DgaError("Lam override entries must be unit monomials in L, m")
        det = (det[0] * coeff, det[1] + base[0], det[2] + base[1])
        polys.append(p)
    if det != (1, 1, -writhe):
        raise DgaError("det Lam mismatch")
    lam = GenMatrix.diagonal(polys)
    inv = []
    for p in polys:
        (word, base), coeff = next(iter(p.terms.items()))
        inv.append(NCPoly.scalar(coeff, lam=-base[0], mu=-base[1]))
    return lam, GenMatrix.diagonal(inv)


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
    nothing else: all the degree-0 relations read."""
    n = b.strands
    w = braid_stats(b).writhe
    A_lower, A_upper = _triangles(n, "a", NCPoly.scalar(-1))
    if lam_override is None:
        lam_entries = [NCPoly.scalar(1, lam=1, mu=-w)] + [NCPoly.one()] * (n - 1)
        inv_entries = [NCPoly.scalar(1, lam=-1, mu=w)] + [NCPoly.one()] * (n - 1)
        Lam, LamInv = GenMatrix.diagonal(lam_entries), GenMatrix.diagonal(inv_entries)
    else:
        Lam, LamInv = _diag_override(lam_override, n, w)
    Ahat, Acheck = _hat_check(A_lower, A_upper)
    return Degree0Matrices(n=n, writhe=w, A_lower=A_lower, A_upper=A_upper,
                           Ahat=Ahat, Acheck=Acheck, Lam=Lam, LamInv=LamInv)


def structured_matrices(b: BraidWord, lam_override=None) -> StructuredMatrices:
    """The degree-0 matrices plus A, B, Bhat and Bcheck."""
    m = degree0_matrices(b, lam_override)
    B_lower, B_upper = _triangles(m.n, "b", NCPoly.zero())
    Bhat, Bcheck = _hat_check(B_lower, B_upper)
    return StructuredMatrices(**vars(m), A=m.A_lower + m.A_upper,
                              B=B_lower + B_upper, Bhat=Bhat, Bcheck=Bcheck)


@dataclass
class DgaPresentation:
    braid: BraidWord
    flavor: str
    sl: int
    generators: list[Generator]
    diff: dict[Generator, NCPoly]
    phi_l: GenMatrix
    phi_r: GenMatrix


def cd_blocks(c_left, d_left, ahat, acheck, lam, lam_inv, phi_l, phi_r):
    """The C- and D-blocks

        c_left - Lam . PhiL . Acheck
        d_left - Ahat . PhiR . Lam^-1

    over any entry type with +, -, * and is_zero.  With c_left = Ahat and
    d_left = Acheck they are dC and dD; every other use of these two
    products (the cut relations of ht0, dE, dF and the modified DGA) goes
    through here as well."""
    return (c_left - lam @ phi_l @ acheck,
            d_left - ahat @ phi_r @ lam_inv)


def db_block(b: BraidWord, A: GenMatrix, lam: GenMatrix,
             lam_inv: GenMatrix) -> GenMatrix:
    """dB = A - Lam . phi_B(A) . Lam^-1."""
    return A - lam @ A.map(lambda p: apply_phi(b, p)) @ lam_inv


def _offdiag(n):
    return [(a.row, a.col) for a in a_variables(n)]


def _all_indices(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _assemble(b: BraidWord, flavor: str, lam_override, matrices,
              blocks) -> DgaPresentation:
    """Check the flavor and that b closes to a knot, build its matrices
    (`matrices(b, lam_override)`) and Phi, and list the generators and
    differentials that `blocks(m, phi_l, phi_r)` yields as (family,
    differential matrix, positions), specialized to the flavor."""
    if flavor not in FLAVORS:
        raise DgaError(f"unknown flavor {flavor!r}")
    stats = braid_stats(b)
    if not stats.is_knot:
        raise DgaError("links unsupported")
    m = matrices(b, lam_override)
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


def build_dga(b: BraidWord, flavor: str = "minus", lam_override=None) -> DgaPresentation:
    def blocks(m, phi_l, phi_r):
        n = m.n
        dB = db_block(b, m.A, m.Lam, m.LamInv)
        for i in range(1, n + 1):
            if not dB.at(i, i).is_zero():
                raise DgaError(f"nonzero diagonal in dB at {i}")
        Cg, Dg = _gen_matrix(n, "c"), _gen_matrix(n, "d")
        dC, dD = cd_blocks(m.Ahat, m.Acheck, m.Ahat, m.Acheck,
                           m.Lam, m.LamInv, phi_l, phi_r)
        dE, dF = cd_blocks(m.Bhat - Cg, m.Bcheck - Dg, Cg, Dg,
                           m.Lam, m.LamInv, phi_l, phi_r)
        full = _all_indices(n)
        return [("a", GenMatrix(n), _offdiag(n)), ("b", dB, _offdiag(n)),
                ("c", dC, full), ("d", dD, full), ("e", dE, full),
                ("f", dF, full)]
    return _assemble(b, flavor, lam_override, structured_matrices, blocks)


def build_modified_dga(b: BraidWord, flavor: str = "minus",
                       lam_override=None) -> DgaPresentation:
    """The smaller presentation without b-generators: a, c, d plus
    e_{ij} for i <= j and f_{ij} for j <= i."""
    def blocks(m, phi_l, phi_r):
        n = m.n
        Cg, Dg = _gen_matrix(n, "c"), _gen_matrix(n, "d")
        dC, dD = cd_blocks(m.Ahat, m.Acheck, m.Ahat, m.Acheck,
                           m.Lam, m.LamInv, phi_l, phi_r)
        # Lam . PhiL . D and C . PhiR . Lam^-1, as 0 - Lam . PhiL . (-D)
        # and 0 - (-C) . PhiR . Lam^-1 (negating twice keeps the term order)
        LPD, CRL = cd_blocks(GenMatrix(n), GenMatrix(n), -Cg, -Dg,
                             m.Lam, m.LamInv, phi_l, phi_r)
        scale_u = lambda M: M.map(lambda p: p.scale_base(u=1))
        scale_v = lambda M: M.map(lambda p: p.scale_base(v=1))
        E_diag = Cg + LPD
        E_off = Cg - scale_u(Dg) + LPD - scale_u(CRL)
        F_diag = Dg + CRL
        F_off = Dg - scale_v(Cg) + CRL - scale_v(LPD)
        dE = GenMatrix.build(
            n, lambda i, j: (E_diag if i == j else E_off).at(i, j))
        dF = GenMatrix.build(
            n, lambda i, j: (F_diag if i == j else F_off).at(i, j))
        full = _all_indices(n)
        return [("a", GenMatrix(n), _offdiag(n)), ("c", dC, full),
                ("d", dD, full),
                ("e", dE, [(i, j) for i, j in full if i <= j]),
                ("f", dF, [(i, j) for i, j in full if j <= i])]
    return _assemble(b, flavor, lam_override, degree0_matrices, blocks)


def differential(dga: DgaPresentation, p: NCPoly) -> NCPoly:
    """Extend the generator differential by the Koszul Leibniz rule."""
    acc: dict = {}
    for (word, base), coeff in p.terms.items():
        sign = 1
        for pos, g in enumerate(word):
            if g not in dga.diff:
                raise DgaError(f"unknown generator {g}")
            dg = dga.diff[g]
            if not dg.is_zero():
                pre = word[:pos]
                post = word[pos + 1:]
                c0 = sign * coeff
                for (w2, b2), c2 in dg.terms.items():
                    t = (pre + w2 + post,
                         (base[0] + b2[0], base[1] + b2[1],
                          base[2] + b2[2], base[3] + b2[3]))
                    s = acc.get(t, 0) + c0 * c2
                    if s:
                        acc[t] = s
                    elif t in acc:
                        del acc[t]
            if g.degree % 2:
                sign = -sign
    out = NCPoly.__new__(NCPoly)
    out.terms = acc
    return out


def verify_d_squared(dga: DgaPresentation) -> list[tuple[Generator, NCPoly]]:
    """Compute d(d(g)) for every generator; returns the failing ones."""
    failures = []
    for g in dga.generators:
        r = differential(dga, dga.diff[g])
        if not r.is_zero():
            failures.append((g, r))
    return failures


def verify_phi_factorization(b: BraidWord) -> list[str]:
    """Check phi_B(M) = PhiL . M . PhiR for M in {A_lower, A_upper, Ahat,
    Acheck}; returns the names of failing identities."""
    m = degree0_matrices(b)
    phi_l, phi_r = phi_matrices(b)
    failures = []
    for name, M in (("A_lower", m.A_lower), ("A_upper", m.A_upper),
                    ("Ahat", m.Ahat), ("Acheck", m.Acheck)):
        lhs = M.map(lambda p: apply_phi(b, p))
        rhs = phi_l @ M @ phi_r
        if lhs != rhs:
            failures.append(name)
    return failures


# ---------------------------------------------------------------------------
# Sampled identity checks.  Fully symbolic expansion of d(d(g)) or of the
# factorization identity can generate tens of millions of monomials before
# cancellation on unlucky words.  Instead, evaluate the generators at random
# square matrices over a large prime field; a nonzero difference polynomial
# of word degree below twice the matrix dimension cannot vanish on generic
# matrices, so by Schwartz-Zippel a mismatch survives evaluation except with
# probability about degree/prime per sample point.  Arithmetic is exact.
# ---------------------------------------------------------------------------

# Arithmetic runs in float64 so the batched products hit BLAS; with this
# prime every intermediate (dim * prime^2 for dim <= 31) stays below 2^53
# and is therefore exact.
_SAMPLE_PRIME = 16777213
_MAX_DIM = 31


def _word_span(p: NCPoly) -> int:
    return max((len(word) for word, _ in p.terms), default=0)


def _modp(arr, prime: int):
    """Reduce a nonnegative float64 array mod prime in place.

    np.mod on large float arrays is an order of magnitude slower than a
    multiply-and-floor reduction.  The floor of the rounded quotient can be
    off by one, so a single conditional correction follows."""
    import numpy as np
    q = np.floor(arr * (1.0 / prime))
    arr -= q * prime
    np.add(arr, prime, out=arr, where=arr < 0)
    np.subtract(arr, prime, out=arr, where=arr >= prime)
    return arr


def _rand_matrix(rng, dim: int, prime: int):
    import numpy as np
    return np.array([[rng.randrange(prime) for _ in range(dim)]
                     for _ in range(dim)], dtype=np.float64)


class _Bank:
    """Numbered store of dim x dim matrices; id 0 is the identity, so
    shorter id sequences can be padded with zeros."""

    def __init__(self, dim: int):
        import numpy as np
        self.mats = [np.eye(dim, dtype=np.float64)]
        self.ids: dict = {}
        self.dim = dim

    def add(self, key, mat) -> int:
        idx = self.ids.get(key)
        if idx is None:
            idx = len(self.mats)
            self.mats.append(mat)
            self.ids[key] = idx
        return idx

    def array(self):
        import numpy as np
        return np.stack(self.mats)


def _prod_sum(items, bank_arr, prime: int, dim: int):
    """Sum of coeff * product(bank[id] for id in ids) over items, all mod
    prime, computed as batched matrix products."""
    import numpy as np
    if not items:
        return np.zeros((dim, dim), dtype=np.float64)
    width = max(1, max(len(ids) for _, ids in items))
    idmat = np.zeros((len(items), width), dtype=np.intp)
    coeffs = np.empty(len(items), dtype=np.float64)
    for r, (c, ids) in enumerate(items):
        coeffs[r] = c % prime
        idmat[r, :len(ids)] = ids
    cur = bank_arr[idmat[:, 0]].copy()
    for pos in range(1, width):
        col = idmat[:, pos]
        act = np.nonzero(col)[0]
        if act.size == 0:
            continue
        if act.size == len(items):
            cur = _modp(cur @ bank_arr[col], prime)
        else:
            cur[act] = _modp(cur[act] @ bank_arr[col[act]], prime)
    cur = _modp(coeffs[:, None, None] * cur, prime)
    return _modp(cur.sum(axis=0), prime)


def _base_unit(base, scalars, prime: int) -> int:
    c = 1
    for e, s in zip(base, scalars):
        c = c * pow_mod(s, e, prime) % prime
    return c


def _eval_matrix(p: NCPoly, point, scalars, prime: int, dim: int,
                 bank: _Bank | None = None, bank_arr=None):
    """Evaluate at point (generator -> dim x dim matrix over F_prime) with
    the four base scalars sent to the units in scalars."""
    if bank is None:
        bank = _Bank(dim)
        for g, mat in point.items():
            bank.add(g, mat)
        bank_arr = bank.array()
    items = []
    for (word, base), coeff in p.terms.items():
        c = coeff * _base_unit(base, scalars, prime) % prime
        items.append((c, [bank.ids[g] for g in word]))
    return _prod_sum(items, bank_arr, prime, dim)


def _phi_point(b: BraidWord, values, scalars, prime: int, dim: int):
    """Numeric phi_B: push a point on the a-generators through the braid
    letter by letter.  Returns the point whose value at a_ij equals the
    evaluation of phi_B(a_ij) at the original point."""
    n = b.strands
    vals = dict(values)
    for letter in b.letters:
        cur = vals
        vals = dict(cur)
        for g, img in sigma_images(abs(letter), n, inverse=letter < 0).items():
            vals[g] = _eval_matrix(img, cur, scalars, prime, dim)
    return vals


def _phi_degree_bound(b: BraidWord) -> int:
    """Max word length over all phi_B(a_ij), by folding degrees."""
    n = b.strands
    degs = {a: 1 for a in a_variables(n)}
    for letter in b.letters:
        cur = dict(degs)
        for g, img in sigma_images(abs(letter), n, inverse=letter < 0).items():
            degs[g] = max((sum(cur[x] for x in word) for word, _ in img.terms),
                          default=0)
    return max(degs.values())


def _sample_dim(span: int) -> int:
    dim = max(2, span // 2 + 1)
    if dim > _MAX_DIM:
        raise DgaError(f"identity degree {span} too large for sampling")
    return dim


def verify_d_squared_sampled(dga: DgaPresentation, seed: int = 0,
                             trials: int = 2) -> list[Generator]:
    """Check d(d(g)) = 0 for every generator by evaluation at random
    matrices; returns the generators whose image fails to vanish."""
    prime = _SAMPLE_PRIME
    # word degree of d(d(g)): one letter of a differential word is replaced
    # by that letter's differential
    spans = {g: _word_span(dga.diff[g]) for g in dga.generators}
    deg = 2
    for g in dga.generators:
        for word, _ in dga.diff[g].terms:
            for x in word:
                if spans[x]:
                    deg = max(deg, len(word) - 1 + spans[x])
    dim = _sample_dim(deg)
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        point = {g: _rand_matrix(rng, dim, prime) for g in dga.generators}
        scalars = tuple(rng.randrange(1, prime) for _ in range(4))
        bank = _Bank(dim)
        for g, mat in point.items():
            bank.add(g, mat)
        bank_arr = bank.array()
        # letters with nonzero differential actually appearing in words
        needed = {g for gg in dga.generators
                  for word, _ in dga.diff[gg].terms for g in word
                  if not dga.diff[g].is_zero()}
        for g in sorted(needed, key=lambda x: (x.family, x.row, x.col)):
            val = _eval_matrix(dga.diff[g], point, scalars, prime, dim,
                               bank=bank, bank_arr=bank_arr)
            bank.add(("d", g), val)
        bank_arr = bank.array()
        for g in dga.generators:
            r = _differential_at(dga, dga.diff[g], bank, bank_arr,
                                 scalars, prime, dim)
            if r.any() and g not in failures:
                failures.append(g)
    return failures


def _differential_at(dga, p: NCPoly, bank: _Bank, bank_arr, scalars,
                     prime: int, dim: int):
    """Evaluate d(p) at the point without expanding it symbolically: each
    Leibniz summand is the word with one letter swapped for the value of
    its differential."""
    items = []
    for (word, base), coeff in p.terms.items():
        hot = [pos for pos, g in enumerate(word)
               if not dga.diff[g].is_zero()]
        if not hot:
            continue
        c = coeff * _base_unit(base, scalars, prime) % prime
        ids = [bank.ids[g] for g in word]
        sign = 1
        nxt = 0
        for pos, g in enumerate(word):
            if nxt < len(hot) and hot[nxt] == pos:
                swapped = list(ids)
                swapped[pos] = bank.ids[("d", g)]
                items.append((sign * c, swapped))
                nxt += 1
            if g.degree % 2:
                sign = -sign
    return _prod_sum(items, bank_arr, prime, dim)


def verify_phi_factorization_sampled(b: BraidWord, seed: int = 0,
                                     trials: int = 2) -> list[str]:
    """The factorization identities of verify_phi_factorization, checked
    by evaluation at random matrices instead of symbolic expansion."""
    import numpy as np
    prime = _SAMPLE_PRIME
    n = b.strands
    m = degree0_matrices(b)
    phi_l, phi_r = phi_matrices(b)
    span_l = max(_word_span(e) for _, _, e in phi_l.entries())
    span_r = max(_word_span(e) for _, _, e in phi_r.entries())
    dim = _sample_dim(max(span_l + 1 + span_r, _phi_degree_bound(b)))
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        point = {a: _rand_matrix(rng, dim, prime) for a in a_variables(n)}
        scalars = tuple(rng.randrange(1, prime) for _ in range(4))
        phi_pt = _phi_point(b, point, scalars, prime, dim)
        l_val = [[_eval_matrix(phi_l.at(i, j), point, scalars, prime, dim)
                  for j in range(1, n + 1)] for i in range(1, n + 1)]
        r_val = [[_eval_matrix(phi_r.at(i, j), point, scalars, prime, dim)
                  for j in range(1, n + 1)] for i in range(1, n + 1)]
        for name, M in (("A_lower", m.A_lower), ("A_upper", m.A_upper),
                        ("Ahat", m.Ahat), ("Acheck", m.Acheck)):
            mid = [[_eval_matrix(M.at(i, j), point, scalars, prime, dim)
                    for j in range(1, n + 1)] for i in range(1, n + 1)]
            left = [[sum(l_val[i][k] @ mid[k][j] % prime
                         for k in range(n)) % prime
                     for j in range(n)] for i in range(n)]
            ok = True
            for i in range(n):
                for j in range(n):
                    rhs = sum(left[i][k] @ r_val[k][j] % prime
                              for k in range(n)) % prime
                    lhs = _eval_matrix(M.at(i + 1, j + 1), phi_pt,
                                       scalars, prime, dim)
                    if ((lhs - rhs) % prime).any():
                        ok = False
            if not ok and name not in failures:
                failures.append(name)
    return failures
