import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xverse.braid import BraidWord, braid_transform, parse_braid
from xverse.ncpoly import GenMatrix, NCPoly, gen
from xverse.phi import (apply_phi, phi_matrices, phi_matrix_inverses,
                        sigma_images, verify_chain_rules)


def a(i, j):
    return NCPoly.generator("a", i, j)


def test_sigma1_on_two_strands():
    b = parse_braid("1")
    assert apply_phi(b, a(1, 2)) == a(2, 1)
    assert apply_phi(b, a(2, 1)) == a(1, 2)


def test_sigma1_on_three_strands():
    b = BraidWord(3, (1,))
    assert apply_phi(b, a(1, 3)) == -a(2, 3) - a(2, 1) * a(1, 3)
    assert apply_phi(b, a(3, 1)) == -a(3, 2) - a(3, 1) * a(1, 2)
    assert apply_phi(b, a(2, 3)) == a(1, 3)


def test_sigma_images_index_range():
    with pytest.raises(ValueError):
        sigma_images(2, 2)
    with pytest.raises(ValueError):
        sigma_images(0, 3)


def test_apply_phi_rejects_foreign_generators():
    b = parse_braid("1")
    with pytest.raises(ValueError):
        apply_phi(b, NCPoly.generator("c", 1, 1))
    with pytest.raises(ValueError):
        apply_phi(b, a(1, 3))


def rand_braid(rng, n, ln):
    return BraidWord(n, tuple(rng.choice(
        [s * k for k in range(1, n) for s in (1, -1)]) for _ in range(ln)))


def test_inverse_round_trips():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 5)
        b = rand_braid(rng, n, rng.randrange(1, 6))
        binv = braid_transform(b, "inverse")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                p = a(i, j)
                assert apply_phi(binv, apply_phi(b, p)) == p
                assert apply_phi(b, apply_phi(binv, p)) == p


def test_phi_is_multiplicative():
    rng = random.Random(1)
    b = rand_braid(rng, 3, 4)
    p = a(1, 2) * a(2, 3) + 2 * a(3, 1)
    q = a(1, 3)
    assert apply_phi(b, p * q) == apply_phi(b, p) * apply_phi(b, q)


def test_phi_matrices_sigma1():
    phi_l, phi_r = phi_matrices(parse_braid("1"))
    assert phi_l.at(1, 1) == -a(2, 1)
    assert phi_l.at(1, 2) == NCPoly.scalar(-1)
    assert phi_l.at(2, 1) == NCPoly.one()
    assert phi_l.at(2, 2).is_zero()
    assert phi_r.at(1, 1) == -a(1, 2)
    assert phi_r.at(1, 2) == NCPoly.one()
    assert phi_r.at(2, 1) == NCPoly.scalar(-1)
    assert phi_r.at(2, 2).is_zero()
    phi_l, phi_r = phi_matrices(parse_braid("-1"))
    assert phi_l.at(1, 1).is_zero()
    assert phi_l.at(1, 2) == NCPoly.one()
    assert phi_l.at(2, 1) == NCPoly.scalar(-1)
    assert phi_l.at(2, 2) == -a(1, 2)
    assert phi_r.at(1, 1).is_zero()
    assert phi_r.at(1, 2) == NCPoly.scalar(-1)
    assert phi_r.at(2, 1) == NCPoly.one()
    assert phi_r.at(2, 2) == -a(2, 1)


_braid = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.sampled_from([s * k for k in range(1, n) for s in (1, -1)]),
    max_size=6).map(lambda letters: BraidWord(n, tuple(letters))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_braid)
def test_phi_matrices_match_the_extra_strand(b):
    """The defining property of PhiL and PhiR: on n + 1 strands,
    phi_B(a_{i,n+1}) = sum_l PhiL_il a_{l,n+1} and
    phi_B(a_{n+1,i}) = sum_l a_{n+1,l} PhiR_li."""
    n = b.strands
    ext = BraidWord(n + 1, b.letters)
    phi_l, phi_r = phi_matrices(b)
    for i in range(1, n + 1):
        assert apply_phi(ext, a(i, n + 1)) == sum(
            (phi_l.at(i, l) * a(l, n + 1) for l in range(1, n + 1)), NCPoly())
        assert apply_phi(ext, a(n + 1, i)) == sum(
            (a(n + 1, l) * phi_r.at(l, i) for l in range(1, n + 1)), NCPoly())


def test_phi_matrices_identity_braid():
    phi_l, phi_r = phi_matrices(BraidWord(3))
    assert phi_l == GenMatrix.identity(3)
    assert phi_r == GenMatrix.identity(3)


def test_matrix_inverses_multiply_to_identity():
    rng = random.Random(2)
    for _ in range(5):
        n = rng.randrange(2, 4)
        b = rand_braid(rng, n, rng.randrange(1, 5))
        phi_l, phi_r = phi_matrices(b)
        linv, rinv = phi_matrix_inverses(b)
        ident = GenMatrix.identity(n)
        assert linv @ phi_l == ident
        assert phi_l @ linv == ident
        assert rinv @ phi_r == ident
        assert phi_r @ rinv == ident


def test_chain_rules_random():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randrange(2, 4)
        b = rand_braid(rng, n, rng.randrange(2, 6))
        assert verify_chain_rules(b) == []
