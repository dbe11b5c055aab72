import pytest

from xverse.braid import (BraidError, BraidWord, braid_stats, braid_transform,
                          markov_move, parse_braid)


def test_parse_basic():
    b = parse_braid("1 -2 1")
    assert b.strands == 3
    assert b.letters == (1, -2, 1)


def test_parse_strands_override():
    b = parse_braid("1", strands=4)
    assert b.strands == 4
    with pytest.raises(BraidError):
        parse_braid("3 1", strands=2)


def test_parse_empty():
    b = parse_braid("", strands=1)
    assert b.letters == ()
    assert parse_braid("").strands == 1


def test_parse_rejects_zero():
    with pytest.raises(BraidError):
        parse_braid("1 0 2")
    with pytest.raises(BraidError, match="bad braid letter 'x'"):
        parse_braid("1 x")


def test_letter_range_validation():
    with pytest.raises(BraidError):
        BraidWord(2, (2,))
    with pytest.raises(BraidError):
        BraidWord(2, (0,))
    with pytest.raises(BraidError, match="strand count must be >= 1"):
        BraidWord(0)


def test_stats_trefoil():
    s = braid_stats(parse_braid("1 1 1"))
    assert s.writhe == 3
    assert s.strands == 2
    assert s.self_linking == 1
    assert s.is_knot
    assert s.components == 1


def test_stats_link():
    s = braid_stats(parse_braid("1 -1"))
    assert s.writhe == 0
    assert s.self_linking == -2
    assert not s.is_knot
    assert s.components == 2


def test_mul_concatenates():
    b = parse_braid("1 2") * parse_braid("-1", strands=3)
    assert b.letters == (1, 2, -1)
    with pytest.raises(BraidError):
        parse_braid("1") * parse_braid("2")


def test_conjugate_literal():
    b = parse_braid("1 1 1")
    c = markov_move(b, "conjugate", k=1, sign=1)
    assert c.letters == (-1, 1, 1, 1, 1)
    c = markov_move(b, "conjugate", k=1, sign=-1)
    assert c.letters == (1, 1, 1, 1, -1)
    with pytest.raises(BraidError):
        markov_move(b, "conjugate", k=2)
    with pytest.raises(BraidError, match="sign must be"):
        markov_move(b, "conjugate", k=1, sign=2)
    with pytest.raises(BraidError, match="unknown move"):
        markov_move(b, "flip")


def test_stabilization_shifts_up():
    b = parse_braid("1 -1")
    sp = markov_move(b, "stab_pos")
    assert sp.strands == 3
    assert sp.letters == (2, -2, 1)
    sn = markov_move(b, "stab_neg")
    assert sn.letters == (2, -2, -1)


def test_stab_preserves_sl_sign_rules():
    b = parse_braid("1 1 1")
    assert braid_stats(markov_move(b, "stab_pos")).self_linking == \
        braid_stats(b).self_linking
    assert braid_stats(markov_move(b, "stab_neg")).self_linking == \
        braid_stats(b).self_linking - 2


def test_transforms():
    b = parse_braid("1 2 -1")
    assert braid_transform(b, "reverse").letters == (-1, 2, 1)
    assert braid_transform(b, "inverse").letters == (1, -2, -1)
    assert braid_transform(b, "star").letters == (-2, -1, 2)
    with pytest.raises(BraidError):
        braid_transform(b, "flip")


def test_text_round_trip():
    b = parse_braid("3 -2 1 1")
    assert parse_braid(b.text()) == b


def test_braid_word_is_an_immutable_hashable_record():
    from xverse.augment import _packed_phi_matrices
    listed, tupled = BraidWord(3, [1, -2, 1]), BraidWord(3, (1, -2, 1))
    assert type(listed.letters) is tuple
    assert listed == tupled and hash(listed) == hash(tupled)
    assert repr(listed) == "BraidWord(strands=3, letters=(1, -2, 1))"
    _packed_phi_matrices.cache_clear()
    first = _packed_phi_matrices(listed, 3)
    assert _packed_phi_matrices(tupled, 3) is first
    info = _packed_phi_matrices.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    with pytest.raises(AttributeError):
        listed.letters = (1,)
    # len counts letters, not fields; * concatenates and checks strands
    assert len(listed) == 3 and len(BraidWord(4)) == 0 and not BraidWord(4)
    assert (listed * BraidWord(3, [2])).letters == (1, -2, 1, 2)
    with pytest.raises(BraidError, match="strand count mismatch"):
        listed * BraidWord(4, [3])
    # _replace goes through the same checks as the constructor
    assert listed._replace(strands=4) == BraidWord(4, (1, -2, 1))
    with pytest.raises(BraidError):
        listed._replace(letters=[3])
    # the tuple operators and _make would skip those checks
    for op in (lambda: listed + listed, lambda: 2 * listed,
               lambda: listed * 2, lambda: listed + (1,)):
        with pytest.raises(TypeError):
            op()
    assert BraidWord._make((3, [1, -2, 1])) == tupled
    with pytest.raises(BraidError):
        BraidWord._make((3, [0, 9]))
