import random

import pytest

from xverse.braid import braid_stats, parse_braid
from xverse.dga import DgaError
from xverse.ht0 import (b_consequences, eliminate_linear, ht0_relations,
                        normalize_unit, reduced_relations)
from xverse.ncpoly import NCPoly, evaluate_abelian, gen


def test_relation_count_and_order():
    h = ht0_relations(parse_braid("1 1 1"), "minus")
    n = 2
    assert len(h.relations) == 2 * n * n
    assert [str(v) for v in h.variables] == ["a12", "a21"]
    assert h.sl == 1


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


def test_split_matches_unsplit_on_counts():
    from xverse.augment import AugQuery, count_augmentations
    b = parse_braid("1 -2 1 -2")
    whole = ht0_relations(b, "hat")
    split = ht0_relations(b, "hat", split=2)
    for lam0, mu0 in ((1, 1), (2, 1)):
        cw = count_augmentations(AugQuery(whole, 3, lam0, mu0, 0, 1)).count
        cs = count_augmentations(AugQuery(split, 3, lam0, mu0, 0, 1)).count
        assert cw == cs


def test_eliminate_linear_protect():
    x, y = gen("a", 1, 2), gen("a", 2, 1)
    # x + y  and  y * y - y
    r1 = NCPoly.generator("a", 1, 2) + NCPoly.generator("a", 2, 1)
    rels, subs = eliminate_linear([r1], "minus", protect={x, y})
    assert rels == [r1] and subs == {}
    rels, subs = eliminate_linear([r1], "minus")
    assert rels == []
    assert y in subs  # the larger variable goes


def test_eliminate_linear_requires_unit_coefficient():
    r = 2 * NCPoly.generator("a", 1, 2) + NCPoly.one()
    rels, subs = eliminate_linear([r], "minus")
    assert rels == [r] and subs == {}
    # U-scaled coefficients are not units outside the infinity flavor
    r2 = NCPoly.generator("a", 1, 2).scale_base(u=1) + NCPoly.one()
    rels, subs = eliminate_linear([r2], "minus")
    assert rels == [r2]
    rels, subs = eliminate_linear([r2], "infinity")
    assert rels == []


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
