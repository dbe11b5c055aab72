from collections import defaultdict

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xverse.ncpoly import (FAMILY_DEGREE, GenMatrix, Generator, NCPoly,
                           collect, evaluate_abelian, gen, letter, pow_mod)


def a(i, j):
    return NCPoly.generator("a", i, j)


def test_generator_validation():
    g = gen("a", 1, 2)
    assert g.degree == 0
    assert str(g) == "a12"
    assert gen("c", 2, 2).degree == 1
    assert gen("e", 1, 3).degree == 2
    with pytest.raises(ValueError):
        gen("a", 1, 1)
    with pytest.raises(ValueError):
        gen("b", 2, 2)
    with pytest.raises(ValueError):
        gen("a", 0, 1)
    with pytest.raises(ValueError):
        gen("x", 1, 2)


def test_wide_index_str():
    assert str(gen("a", 10, 2)) == "a_10_2"


_NAMES = st.tuples(st.sampled_from(sorted(FAMILY_DEGREE)),
                   st.integers(1, 8191), st.integers(1, 8191))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_NAMES, _NAMES)
@example(("a", 9, 10), ("a", 10, 1))
@example(("f", 8191, 8191), ("a", 1, 2))
def test_letter_code_order_and_names(x, y):
    """A code orders as its (family, row, col), stays one CPython digit,
    and gives back its family, indices, degree and name."""
    for family, row, col in (x, y):
        assume(family not in "ab" or row != col)
    gx, gy = gen(*x), gen(*y)
    assert (gx < gy, gx == gy) == (x < y, x == y)
    for g, (family, row, col) in ((gx, x), (gy, y)):
        assert 0 < g < 2 ** 30
        g = letter(int(g))
        assert (g.family, g.row, g.col) == (family, row, col)
        assert g.degree == FAMILY_DEGREE[family]
        assert str(g) == (f"{family}{row}{col}" if max(row, col) < 10
                          else f"{family}_{row}_{col}")
        assert eval(repr(g), {"gen": gen}) == g


def test_gen_rejects_indices_past_the_field():
    assert gen("f", 8191, 8191).col == 8191
    for row, col in ((8192, 1), (1, 8192)):
        with pytest.raises(ValueError, match="stop at 8191"):
            gen("c", row, col)


def test_words_hold_plain_int_letters():
    p = (NCPoly.generator("c", 2, 1) * a(1, 2)
         + a(2, 1).substitute({gen("a", 2, 1): a(1, 3)}))
    assert {type(g) for word, _ in p.terms for g in word} == {int}
    assert p.generators() == {gen("c", 2, 1), gen("a", 1, 2), gen("a", 1, 3)}
    assert {type(g) for g in p.generators()} == {Generator}


def test_scalar_and_zero():
    assert NCPoly.zero().is_zero()
    assert NCPoly.one() == 1
    assert NCPoly.scalar(0).is_zero()
    assert NCPoly.scalar(3, lam=1) != NCPoly.scalar(3)


def test_arithmetic():
    p = a(1, 2) + a(2, 1)
    q = p - a(2, 1)
    assert q == a(1, 2)
    assert (p - p).is_zero()
    assert -(-p) == p
    assert 2 * p == p + p
    assert p * 0 == NCPoly.zero()


def test_noncommutativity():
    x, y = a(1, 2), a(2, 1)
    assert x * y != y * x
    assert (x * y).sorted_terms()[0][0][0] == (gen("a", 1, 2), gen("a", 2, 1))


def test_canonical_order():
    p = a(1, 2) * a(2, 1) + a(2, 1) + NCPoly.scalar(1, mu=1)
    words = [len(word) for (word, _), _ in p.sorted_terms()]
    assert words == sorted(words)


def test_scale_base_and_str():
    p = NCPoly.scalar(-1) - NCPoly.scalar(1, mu=1, u=1) \
        + NCPoly.scalar(1, lam=1, v=1) + NCPoly.scalar(1, lam=1, mu=1)
    assert str(p) == "-1 - m*U + L*V + L*m"
    assert str(NCPoly.scalar(1, lam=-1)) == "L^-1"
    assert str(NCPoly.scalar(-2, lam=2, mu=-1) * a(1, 2)) == "-2*L^2*m^-1*a12"


def test_substitute():
    p = a(1, 2) * a(2, 1)
    q = p.substitute({gen("a", 1, 2): a(2, 1) + NCPoly.one()})
    assert q == a(2, 1) * a(2, 1) + a(2, 1)
    # generators not mentioned stay fixed
    assert p.substitute({}) == p


def test_specialize_hat():
    p = NCPoly.scalar(1, u=1) + NCPoly.scalar(2, v=1) + NCPoly.scalar(3)
    q = p.specialize("hat")
    # U terms die, V goes to 1
    assert q == NCPoly.scalar(5)


def test_specialize_doublehat():
    p = NCPoly.scalar(1, u=1) + NCPoly.scalar(2, v=2) + NCPoly.scalar(3)
    assert p.specialize("doublehat") == NCPoly.scalar(3)


def test_specialize_infinity():
    # lambda^1 picks up (U/V)^{-k} with k = (sl+1)/2
    p = NCPoly.scalar(1, lam=1)
    q = p.specialize("infinity", sl=3)  # k = 2
    assert q == NCPoly.scalar(1, lam=1, u=-2, v=2)
    with pytest.raises(ValueError):
        p.specialize("infinity", sl=2)


def test_pow_mod():
    assert pow_mod(2, -1, 5) == 3
    assert pow_mod(2, 3, 5) == 3
    assert pow_mod(0, 2, 5) == 0
    with pytest.raises(ZeroDivisionError):
        pow_mod(0, -1, 5)


def test_evaluate_abelian():
    p = a(1, 2) * a(2, 1) + NCPoly.scalar(1, lam=1)
    val = evaluate_abelian(p, {gen("a", 1, 2): 2, gen("a", 2, 1): 2},
                           5, lam0=3, mu0=1, u0=1, v0=1)
    assert val == (4 + 3) % 5


def test_gen_matrix_ops():
    m = GenMatrix.identity(2)
    n = GenMatrix.build(2, lambda i, j: a(i, j) if i != j else NCPoly.zero())
    assert (m @ n) == n
    assert (n - n).at(1, 2).is_zero()
    assert (m + m).at(1, 1) == NCPoly.scalar(2)
    two = n.map(lambda p: 2 * p)
    assert two.at(1, 2) == 2 * a(1, 2)
    entries = list(n.entries())
    assert entries[0][:2] == (1, 1) and entries[-1][:2] == (2, 2)


# ---- the operations against references written over plain dicts ----

_GENS = (gen("a", 1, 2), gen("a", 2, 1), gen("b", 1, 3), gen("c", 2, 2))
_ZERO = (0, 0, 0, 0)
_exp = st.integers(-2, 2)
_term = st.tuples(st.lists(st.sampled_from(_GENS), max_size=3).map(tuple),
                  st.tuples(_exp, _exp, _exp, _exp))
_pairs = st.lists(st.tuples(_term, st.integers(-3, 3).filter(bool)),
                  max_size=6)


def _ref_sum(pairs):
    out = defaultdict(int)
    for t, c in pairs:
        out[t] += c
    return {t: c for t, c in out.items() if c}


@st.composite
def _poly_pair(draw):
    """Two polynomials; the second repeats some terms of the first with
    the opposite sign, so sums and products cancel."""
    p = _ref_sum(draw(_pairs))
    back = draw(st.lists(st.sampled_from(sorted(p.items())), max_size=3)
                ) if p else []
    q = _ref_sum(draw(_pairs) + [(t, -c) for t, c in back])
    return NCPoly(p), NCPoly(q)


_poly = _pairs.map(lambda pairs: NCPoly(_ref_sum(pairs)))


def _ref_mul(p, q):
    return _ref_sum(((w1 + w2, tuple(x + y for x, y in zip(b1, b2))), c1 * c2)
                    for (w1, b1), c1 in p.items()
                    for (w2, b2), c2 in q.items())


def _ref_substitute(p, images):
    """Each term as a product, one letter at a time, of its scalar and the
    images of its letters (a letter without an image stands for itself)."""
    pairs = []
    for (word, base), coeff in p.terms.items():
        prod = {((), base): coeff}
        for g in word:
            img = images[g].terms if g in images else {((g,), _ZERO): 1}
            prod = _ref_mul(prod, img)
        pairs.extend(prod.items())
    return _ref_sum(pairs)


def _no_zero(p):
    return all(p.terms.values())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly_pair())
def test_sum_difference_product_match_references(pq):
    p, q = pq
    assert (p + q).terms == _ref_sum([*p.terms.items(), *q.terms.items()])
    assert (p - q).terms == _ref_sum(
        [*p.terms.items(), *((t, -c) for t, c in q.terms.items())])
    assert (p * q).terms == _ref_mul(p.terms, q.terms)
    assert (p - p).terms == {}
    assert all(_no_zero(r) for r in (p + q, p - q, q - p, p * q, q * p))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly, st.dictionaries(st.sampled_from(_GENS[:3]), _poly, max_size=3))
@example(NCPoly({((_GENS[0], _GENS[3], _GENS[0]), (1, -1, 0, 2)): 2,
                 ((_GENS[3],), _ZERO): -1}),
         {_GENS[0]: NCPoly(), _GENS[1]: NCPoly.scalar(3, lam=-2, v=1)})
@example(NCPoly({((_GENS[0], _GENS[3]), _ZERO): 1,
                 ((_GENS[1], _GENS[3]), _ZERO): -1}),
         {_GENS[0]: NCPoly.generator("a", 2, 1)})
def test_substitute_matches_letter_by_letter_product(p, images):
    """Zero images, scalar images and letters absent from the map (the
    last generator never has an image) all occur."""
    q = p.substitute(images)
    assert q.terms == _ref_substitute(p, images)
    assert _no_zero(q)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly, st.sampled_from((-3, -1, 1, 5)))
@example(NCPoly({((_GENS[0],), (1, 0, 0, 1)): 2, ((_GENS[0],), (1, 0, 0, 0)): -2}),
         1)
def test_specialize_matches_per_term_rule(p, sl):
    """V = 1 of the hat flavor makes terms meet, here to a zero sum."""
    k = (sl + 1) // 2
    rules = {
        "minus": lambda b: b,
        "hat": lambda b: None if b[2] else (b[0], b[1], 0, 0),
        "doublehat": lambda b: None if b[2] or b[3] else b,
        "infinity": lambda b: (b[0], b[1], b[2] - b[0] * k, b[3] + b[0] * k),
    }
    for flavor, rule in rules.items():
        q = p.specialize(flavor, sl)
        assert q.terms == _ref_sum(((w, rule(b)), c)
                                   for (w, b), c in p.terms.items()
                                   if rule(b) is not None), flavor
        assert _no_zero(q)


def test_collect_takes_the_dict_over():
    terms = {((), _ZERO): 1}
    p = collect([(((), _ZERO), -1), (((_GENS[0],), _ZERO), 2)], terms)
    assert p.terms is terms
    assert terms == {((_GENS[0],), _ZERO): 2}
