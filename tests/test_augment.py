import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xverse.augment import (PRIMES, AugQuery, BudgetError, CommPoly,
                            EliminationError, _abelianize,
                            augmentation_number,
                            augmentation_polynomial_index2,
                            count_augmentations,
                            count_augmentations_exhaustive, packed_relations,
                            sylvester_resultant)
from xverse.braid import BraidWord, braid_stats, parse_braid
from xverse.ht0 import ht0_relations

TREFOIL = parse_braid("1 1 1")
FIG8 = parse_braid("1 -2 1 -2")

TREFOIL_POLY = ("L^2*m + L^2 - L*m^4*U^3 - L*m^3*U^2 + 2*L*m^2*U^2"
                " - 2*L*m^2*U - L*m*U - L*U + m^4*U^3 + m^3*U^2")
UNKNOT_POLY = "L*m + L - m*U - 1"
CINQUEFOIL_POLY = (
    "L^3*m + L^3 - 2*L^2*m^6*U^4 - L^2*m^5*U^4 - L^2*m^5*U^3 - L^2*m^4*U^4"
    " + 4*L^2*m^4*U^3 - 3*L^2*m^4*U^2 + 2*L^2*m^3*U^3 - 2*L^2*m^3*U^2"
    " + 2*L^2*m^2*U^3 - 2*L^2*m^2*U^2 - L^2*m*U^2 - L^2*U^2 + L*m^11*U^8"
    " + L*m^10*U^7 - 2*L*m^9*U^7 + 2*L*m^9*U^6 - 2*L*m^8*U^6 + 2*L*m^8*U^5"
    " + L*m^7*U^6 - 4*L*m^7*U^5 + 3*L*m^7*U^4 + L*m^6*U^5 + L*m^6*U^4"
    " + 2*L*m^5*U^4 - m^11*U^7 - m^10*U^6")


def hat_query(b, prime, lam0, mu0, **kw):
    return AugQuery(ht0_relations(b, "hat"), prime, lam0, mu0, 0, 1, **kw)


def test_unknot_count():
    r = augmentation_number(parse_braid("1"), "hat", 3, 2, 1)
    assert r.count == 1


def test_trefoil_hat_grid():
    want = {(1, 1): 0, (1, 2): 1, (2, 1): 0, (2, 2): 0}
    for (l0, m0), c in want.items():
        assert augmentation_number(TREFOIL, "hat", 3, l0, m0).count == c


def test_pruned_equals_exhaustive_small():
    for b in (TREFOIL, FIG8, parse_braid("-1 -1 -1")):
        for l0 in (1, 2):
            for m0 in (1, 2):
                q = hat_query(b, 3, l0, m0)
                assert count_augmentations(q).count == \
                    count_augmentations_exhaustive(q).count


def test_no_elim_and_threads_do_not_change_counts():
    for b in (TREFOIL, FIG8):
        base = augmentation_number(b, "hat", 3, 2, 1).count
        assert augmentation_number(b, "hat", 3, 2, 1, no_elim=True).count == base
        assert augmentation_number(b, "hat", 3, 2, 1, threads=2).count == base


def test_fast_construction_matches_symbolic():
    for b in (TREFOIL, FIG8, parse_braid("-1 -1 -1 -2 1 -2")):
        for flavor, u0, v0 in (("hat", 0, 1), ("minus", 1, 1),
                               ("doublehat", 0, 0), ("infinity", 2, 1)):
            fast = augmentation_number(b, flavor, 3, 2, 2,
                                       u0=u0 or None, v0=v0 or None)
            if flavor in ("hat", "doublehat"):
                fast = augmentation_number(b, flavor, 3, 2, 2)
            q = AugQuery(ht0_relations(b, flavor), 3, 2, 2, u0, v0)
            assert fast.count == count_augmentations(q).count


def test_split_matches_unsplit():
    b = parse_braid("3 3 -2 3 2 -1 2 1 1")
    whole = augmentation_number(b, "hat", 3, 2, 1).count
    for cut in (0, 4, len(b.letters)):
        assert augmentation_number(b, "hat", 3, 2, 1, split=cut).count == whole


@st.composite
def knots_with_override(draw):
    """A 2- or 3-strand knot of at most 6 letters, and a Lam override of
    the right determinant."""
    n = draw(st.sampled_from((2, 3)))
    letters = draw(st.lists(st.integers(1, n - 1).flatmap(
        lambda k: st.sampled_from((k, -k))), max_size=6))
    b = BraidWord(n, tuple(letters))
    assume(braid_stats(b).is_knot)
    entries = [draw(st.tuples(st.sampled_from((1, -1)), st.integers(-2, 2),
                              st.integers(-2, 2))) for _ in range(n - 1)]
    entries.append((math.prod(c for c, _, _ in entries),
                    1 - sum(le for _, le, _ in entries),
                    -braid_stats(b).writhe - sum(me for _, _, me in entries)))
    return b, entries


@settings(derandomize=True, max_examples=20, deadline=None)
@given(knot=knots_with_override(), data=st.data())
def test_packed_construction_matches_symbolic_everywhere(knot, data):
    """Packed relations are the abelianized symbolic ones for every prime,
    flavor and cut, and every cut counts like the whole word."""
    b, override = knot
    cuts = [None] + list(range(len(b.letters) + 1))
    cases = [(None, k) for k in cuts]
    cases.append((override, data.draw(st.sampled_from(cuts))))
    var_index = {g: i for i, g in enumerate(ht0_relations(b).variables)}
    units = {p: [data.draw(st.integers(1, p - 1)) for _ in range(4)]
             for p in PRIMES}
    for flavor in ("minus", "hat", "doublehat", "infinity"):
        counts = {p: set() for p in PRIMES}
        for lam_override, cut in cases:
            pres = ht0_relations(b, flavor, lam_override, split=cut)
            for p, (lam0, mu0, u, v) in units.items():
                u0, v0 = {"hat": (0, 1), "doublehat": (0, 0)}.get(flavor, (u, v))
                scalars = (lam0, mu0, u0, v0)
                abel = [_abelianize(r, var_index, p, scalars)
                        for r in pres.relations]
                packed, _, _ = packed_relations(b, flavor, p, *scalars,
                                                split=cut,
                                                lam_override=lam_override)
                assert packed == [r for r in abel if r]
                if lam_override is None:
                    counts[p].add(count_augmentations(
                        AugQuery(pres, p, *scalars)).count)
        assert all(len(c) == 1 for c in counts.values())


def test_lam_override_only_det_matters():
    w = braid_stats(TREFOIL).writhe
    base = augmentation_number(TREFOIL, "hat", 3, 2, 1).count
    override = [(1, 1, -w + 2), (1, 0, -2)]
    assert augmentation_number(TREFOIL, "hat", 3, 2, 1,
                               lam_override=override).count == base


def test_input_validation():
    with pytest.raises(ValueError):
        augmentation_number(TREFOIL, "hat", 11, 1, 1)
    with pytest.raises(ValueError):
        augmentation_number(TREFOIL, "hat", 3, 3, 1)
    with pytest.raises(ValueError):
        augmentation_number(TREFOIL, "infinity", 3, 1, 1, u0=3, v0=1)
    with pytest.raises(ValueError):
        augmentation_number(TREFOIL, "hat", 3, 1, 1, split=9)


def test_budget_error():
    b = parse_braid("3 3 -2 3 2 -1 2 1 1")
    with pytest.raises(BudgetError) as exc:
        augmentation_number(b, "hat", 3, 2, 1, no_elim=True, budget=50)
    assert exc.value.budget == 50
    assert exc.value.tested > 50


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("XVERSE_BUDGET", "40")
    b = parse_braid("3 3 -2 3 2 -1 2 1 1")
    with pytest.raises(BudgetError):
        augmentation_number(b, "hat", 3, 2, 1, no_elim=True)


def test_packed_relations_shape():
    rels, nvars, variables = packed_relations(TREFOIL, "hat", 3, 2, 1, 0, 1)
    assert nvars == 2
    assert len(variables) == 2
    assert all(isinstance(r, dict) for r in rels)


# ---------------------------------------------------------------------------
# commutative polynomials and resultants
# ---------------------------------------------------------------------------

V = ("L", "m", "U", "x")


def test_commpoly_arithmetic():
    x = CommPoly.var(V, "x")
    one = CommPoly.const(V, 1)
    p = (x + one) * (x - one)
    assert p == x * x - one
    assert p.degree("x") == 2
    assert (p - p).is_zero()
    assert str(x * x - one) == "x^2 - 1"


def test_commpoly_divide_exact():
    x = CommPoly.var(V, "x")
    L = CommPoly.var(V, "L")
    p = (x + L) * (x - L)
    assert p.divide_exact(x + L) == x - L
    with pytest.raises(ValueError):
        (p + CommPoly.const(V, 1)).divide_exact(x + L)


def test_commpoly_normalized():
    L = CommPoly.var(V, "L")
    m = CommPoly.var(V, "m")
    p = -2 * L * m - 2 * L * m * m
    q = p.normalized(strip=("L", "m"))
    assert str(q) == "m + 1"


def test_resultant_difference_of_roots():
    x = CommPoly.var(V, "x")
    L = CommPoly.var(V, "L")
    m = CommPoly.var(V, "m")
    r = sylvester_resultant(x - L, x - m, "x")
    assert r == L - m or r == m - L


def test_resultant_common_root():
    x = CommPoly.var(V, "x")
    one = CommPoly.const(V, 1)
    assert sylvester_resultant(x * x - one, x - one, "x").is_zero()


def test_resultant_constant_inputs():
    one = CommPoly.const(V, 1)
    with pytest.raises(ValueError):
        sylvester_resultant(one, one + one, "x")


def test_resultant_matches_random_specialization():
    # Res_x(f, g) = 0 iff f, g share a root; cross-check numerically by
    # specializing L, m to integers and comparing against a gcd test
    import sympy
    rng = random.Random(5)
    xs = sympy.Symbol("x")
    for _ in range(10):
        fx = CommPoly(V)
        gx = CommPoly(V)
        for k in range(rng.randrange(2, 4)):
            fx = fx + CommPoly(V, {(rng.randrange(2), rng.randrange(2), 0, k):
                                   rng.randrange(-3, 4)})
        for k in range(rng.randrange(2, 4)):
            gx = gx + CommPoly(V, {(rng.randrange(2), rng.randrange(2), 0, k):
                                   rng.randrange(-3, 4)})
        if fx.degree("x") == 0 and gx.degree("x") == 0:
            continue
        res = sylvester_resultant(fx, gx, "x")
        l0, m0 = rng.randrange(1, 5), rng.randrange(1, 5)
        subs = {sympy.Symbol("L"): l0, sympy.Symbol("m"): m0,
                sympy.Symbol("U"): 1}
        f_num = fx.to_sympy()[0].subs(subs)
        g_num = gx.to_sympy()[0].subs(subs)
        r_num = res.to_sympy()[0].subs(subs)
        if sympy.degree(f_num, xs) == fx.degree("x") and \
                sympy.degree(g_num, xs) == gx.degree("x"):
            shared = sympy.degree(sympy.gcd(f_num, g_num), xs) > 0
            if shared:
                assert r_num == 0


# ---------------------------------------------------------------------------
# augmentation polynomial
# ---------------------------------------------------------------------------


def unit_equivalent(p: CommPoly, q: CommPoly) -> bool:
    return p.normalized(strip=("L", "m", "U")) in (
        q.normalized(strip=("L", "m", "U")),
        (-q).normalized(strip=("L", "m", "U")))


def test_trefoil_polynomial():
    r = augmentation_polynomial_index2(TREFOIL)
    assert str(r.poly) == TREFOIL_POLY
    assert r.may_have_repeated_factors


def test_unknot_polynomial_consistency():
    # two transverse representatives of the unknot, equal up to unit
    p = augmentation_polynomial_index2(parse_braid("1")).poly
    q = augmentation_polynomial_index2(parse_braid("-1")).poly
    assert str(p) == UNKNOT_POLY
    assert unit_equivalent(p, q)


def test_cinquefoil_polynomial_regression():
    r = augmentation_polynomial_index2(parse_braid("1 1 1 1 1"))
    assert str(r.poly) == CINQUEFOIL_POLY
    assert r.poly.degree("U") >= 3


def test_polynomial_input_validation():
    with pytest.raises(EliminationError):
        augmentation_polynomial_index2(parse_braid("1 2"))
    with pytest.raises(EliminationError):
        augmentation_polynomial_index2(parse_braid("1 1"))
