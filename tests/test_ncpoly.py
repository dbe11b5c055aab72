import pytest

from xverse.ncpoly import GenMatrix, NCPoly, evaluate_abelian, gen, pow_mod


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
