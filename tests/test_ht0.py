import itertools

import pytest

from xverse.braid import BraidWord, parse_braid
from xverse.dga import FLAVORS, DgaError, build_dga
from xverse.ht0 import (b_consequences, eliminate_linear, ht0_relations,
                        normalize_unit, reduced_relations)
from xverse.ncpoly import NCPoly, evaluate_abelian, gen


def test_relation_count_and_order():
    h = ht0_relations(parse_braid("1 1 1"), "minus")
    n = 2
    assert len(h.relations) == 2 * n * n
    assert [str(v) for v in h.variables] == ["a12", "a21"]
    assert h.sl == 1


@pytest.mark.parametrize("b", [BraidWord(1), parse_braid("1"),
                               parse_braid("1 1 1"), parse_braid("-1 -1 -1"),
                               parse_braid("1 -2 1 -2"),
                               parse_braid("1 1 1 2 -1 2"),
                               parse_braid("1 -2 3")])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_relations_are_the_c_and_d_differentials(b, flavor):
    """HT0 is presented by dC then dD of the DGA, row-major."""
    dga = build_dga(b, flavor)
    n = b.strands
    want = [dga.diff[gen(family, i, j)] for family in "cd"
            for i in range(1, n + 1) for j in range(1, n + 1)]
    assert ht0_relations(b, flavor).relations == want


def test_links_rejected():
    with pytest.raises(DgaError):
        ht0_relations(parse_braid("1 -1"))
    with pytest.raises(DgaError):
        ht0_relations(parse_braid("1 -1"), split=1)


def test_stabilized_unknot_reduction():
    """The negative stabilization of the unknot has the classical
    two-relation presentation in the single variable a12."""
    h = ht0_relations(parse_braid("-1"), "minus")
    rels = reduced_relations(h)
    assert [str(r) for r in rels] == ["1 + m*U + V*a12", "L*V + L*m + U*a12"]


def test_reduction_is_sound():
    # reduced relations vanish wherever the originals do (abelianized,
    # over a small field at fixed scalars)
    b = parse_braid("1 1 1")
    h = ht0_relations(b, "hat")
    red = reduced_relations(h) + b_consequences(b, "hat")
    orig = h.relations + b_consequences(b, "hat")
    p = 3
    import itertools
    for lam0, mu0 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for vals in itertools.product(range(p), repeat=len(h.variables)):
            assign = dict(zip(h.variables, vals))
            orig_zero = all(
                evaluate_abelian(r, assign, p, lam0, mu0, 0, 1) == 0
                for r in orig)
            red_zero = all(
                evaluate_abelian(r, assign, p, lam0, mu0, 0, 1) == 0
                for r in red)
            assert orig_zero == red_zero


# (u0, v0) at which each flavor's relations may be evaluated over F_3:
# hat and double-hat fix them, and U, V are inverted in the infinity flavor
_UV_POINTS = {"minus": list(itertools.product(range(3), repeat=2)),
              "hat": [(0, 1)], "doublehat": [(0, 0)],
              "infinity": list(itertools.product(range(1, 3), repeat=2))}


@pytest.mark.parametrize("text", ["1", "-1", "1 1 1", "-1 -1 -1", "1 1 1 1 1",
                                  "-1 -1 -1 -1 -1", "1 -2 1 -2",
                                  "-2 1 -2 1 1 1"])
@pytest.mark.parametrize("flavor", sorted(_UV_POINTS))
def test_reduction_is_sound_in_every_flavor(text, flavor):
    """Every reduced relation vanishes wherever the original relations and
    the b-consequences all do, at every flavor-valid point over F_3.  The
    converse fails: an eliminated variable is free in the reduced system."""
    b = parse_braid(text)
    h = ht0_relations(b, flavor)
    # short relations first, so most assignments are rejected early
    orig = sorted(h.relations + b_consequences(b, flavor),
                  key=lambda r: len(r.terms))
    red = reduced_relations(h)
    for lam0, mu0, (u0, v0) in itertools.product(range(1, 3), range(1, 3),
                                                 _UV_POINTS[flavor]):
        point = (3, lam0, mu0, u0, v0)
        for vals in itertools.product(range(3), repeat=len(h.variables)):
            assign = dict(zip(h.variables, vals))
            if all(evaluate_abelian(r, assign, *point) == 0 for r in orig):
                assert all(evaluate_abelian(r, assign, *point) == 0
                           for r in red), (point, vals)


def test_split_matches_unsplit_on_counts():
    from xverse.augment import AugQuery, count_augmentations
    b = parse_braid("1 -2 1 -2")
    whole = ht0_relations(b, "hat")
    split = ht0_relations(b, "hat", split=2)
    for lam0, mu0 in ((1, 1), (2, 1)):
        cw = count_augmentations(AugQuery(whole, 3, lam0, mu0, 0, 1)).count
        cs = count_augmentations(AugQuery(split, 3, lam0, mu0, 0, 1)).count
        assert cw == cs


def test_reduction_keeps_the_presentations_lam_override():
    """dB adjoined to a presentation built with a Lam override uses that
    Lam: with the default one, both counts below fell from 1 to 0."""
    from xverse.augment import AugQuery, count_augmentations_exhaustive
    b, override = parse_braid("1 -2 1 -2"), [(1, 0, 0), (1, 0, 0), (1, 1, 0)]
    h = ht0_relations(b, "hat", lam_override=override)
    assert h.lam_override == override
    assert ht0_relations(b, "hat").lam_override is None

    def count(relations):
        q = AugQuery(h._replace(relations=relations), 3, 2, 1, 0, 1)
        return count_augmentations_exhaustive(q).count
    assert count(h.relations) == 1
    assert count(h.relations + b_consequences(b, "hat", override)) == 1
    assert count(reduced_relations(h)) > 0


def test_eliminate_linear_drops_the_larger_variable():
    x, y = NCPoly.generator("a", 1, 2), NCPoly.generator("a", 2, 1)
    # x + y = 0 eliminates the larger variable y = a21 as -x
    rels = eliminate_linear([x + y, y * y - y], "minus")
    assert [str(r) for r in rels] == ["a12 + a12*a12"]
    assert eliminate_linear([x + y], "minus") == []


def test_eliminate_linear_requires_unit_coefficient():
    r = 2 * NCPoly.generator("a", 1, 2) + NCPoly.one()
    assert eliminate_linear([r], "minus") == [r]
    # U-scaled coefficients are not units outside the infinity flavor
    r2 = NCPoly.generator("a", 1, 2).scale_base(u=1) + NCPoly.one()
    assert eliminate_linear([r2], "minus") == [r2]
    assert eliminate_linear([r2], "infinity") == []


def test_b_consequences_vanish_on_augmentations():
    b = parse_braid("1 1 1")
    h = ht0_relations(b, "hat")
    extra = b_consequences(b, "hat")
    import itertools
    p = 3
    for vals in itertools.product(range(p), repeat=2):
        assign = dict(zip(h.variables, vals))
        if all(evaluate_abelian(r, assign, p, 2, 1, 0, 1) == 0
               for r in h.relations):
            assert all(evaluate_abelian(r, assign, p, 2, 1, 0, 1) == 0
                       for r in extra)


def test_normalize_unit():
    p = NCPoly.scalar(-2, lam=2, mu=-1) + NCPoly.generator("a", 1, 2).scale_base(lam=1)
    q = normalize_unit(p, "minus")
    bases = [b for (_, b), _ in q.terms.items()]
    assert min(b[0] for b in bases) == 0
    assert min(b[1] for b in bases) == 0
    first = q.sorted_terms()[0]
    assert first[1] > 0
    assert normalize_unit(-p, "minus") == q
    zero = NCPoly()
    assert normalize_unit(zero, "minus") is zero
