import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xverse import dga as dga_module
from xverse.braid import BraidWord, braid_stats, parse_braid
from xverse.dga import (FLAVORS, DgaError, build_dga, build_modified_dga,
                        degree0_matrices, differential, structured_matrices,
                        verify_d_squared, verify_d_squared_sampled,
                        verify_phi_factorization,
                        verify_phi_factorization_sampled)
from xverse.ht0 import ht0_relations
from xverse.ncpoly import NCPoly, gen, letter
from xverse.phi import a_variables, apply_phi, phi_images, push

UNKNOT = BraidWord(1)
TREFOIL = parse_braid("1 1 1")
FIG8 = parse_braid("1 -2 1 -2")


def rand_knot(rng, n, ln):
    # a knot closure needs at least n - 1 letters and word length with
    # the parity of n - 1
    ln = max(ln, n - 1)
    if (ln - (n - 1)) % 2:
        ln += 1
    while True:
        b = BraidWord(n, tuple(rng.choice(
            [s * k for k in range(1, n) for s in (1, -1)]) for _ in range(ln)))
        if braid_stats(b).is_knot:
            return b


def test_unknot_differentials_exact():
    dga = build_dga(UNKNOT, "minus")
    d = {str(g): str(p) for g, p in dga.diff.items()}
    assert d["c11"] == "-1 - m*U + L*V + L*m"
    assert d["d11"] == "L^-1 + L^-1*m*U - V - m"
    assert d["e11"] == "-c11 - L*d11"
    assert d["f11"] == "-L^-1*c11 - d11"


def test_a_generators_closed():
    dga = build_dga(TREFOIL, "minus")
    for g in dga.generators:
        if g.family == "a":
            assert dga.diff[g].is_zero()


def test_trefoil_infinity_b21():
    dga = build_dga(TREFOIL, "infinity")
    assert str(dga.diff[gen("b", 2, 1)]) == "-L^-1*m^3*U*V^-1*a12 + a21"


def test_links_rejected():
    with pytest.raises(DgaError, match="links unsupported"):
        build_dga(parse_braid("1 -1"))
    with pytest.raises(DgaError):
        build_modified_dga(parse_braid("1 -1 2 -2"))


def test_unknown_flavor():
    with pytest.raises(DgaError):
        build_dga(TREFOIL, "sharp")


def test_differential_lowers_degree_homogeneously():
    dga = build_dga(FIG8, "minus")
    for g in dga.generators:
        img = dga.diff[g]
        if img.is_zero():
            continue
        assert {sum(letter(x).degree for x in word)
                for word, _ in img.terms} == {g.degree - 1}


def test_d_squared_all_flavors_small():
    for flavor in ("minus", "hat", "doublehat", "infinity"):
        for b in (UNKNOT, TREFOIL, FIG8):
            assert verify_d_squared(build_dga(b, flavor)) == []


def test_d_squared_modified_dga():
    for flavor in ("minus", "infinity"):
        for b in (UNKNOT, TREFOIL):
            assert verify_d_squared(build_modified_dga(b, flavor)) == []
    for b in (FIG8, parse_braid("-2 -2 1 2 3 -2 -2")):
        for flavor in FLAVORS:
            assert verify_d_squared_sampled(build_modified_dga(b, flavor)) == []


def test_differentials_and_cut_relations_are_pinned():
    """The printed differentials of both DGAs and the ht0 relations at
    every cut, in every flavor, hashed in one digest."""
    h = hashlib.sha256()
    for text in ("1 1 1", "1 -2 1 -2", "1 1 1 2 -1 2"):
        b = parse_braid(text)
        for flavor in FLAVORS:
            for build in (build_dga, build_modified_dga):
                d = build(b, flavor)
                for g in d.generators:
                    h.update(f"{g} = {d.diff[g]}\n".encode())
            for cut in range(len(b.letters) + 1):
                for r in ht0_relations(b, flavor, split=cut).relations:
                    h.update(f"{r}\n".encode())
    assert h.hexdigest() == (
        "aa3b236e2b12114cca6be1bea021e9d3da669179b8decbe0080019e65a7d4f79")


def test_corrupted_presentation_detected():
    dga = build_dga(TREFOIL, "minus")
    m = structured_matrices(TREFOIL)
    for i in range(1, 3):
        for j in range(1, 3):
            g = gen("e", i, j)
            dga.diff[g] = dga.diff[g] - m.Bhat.at(i, j).specialize("minus", dga.sl)
    bad = {g for g, _ in verify_d_squared(dga)}
    assert {gen("e", 1, 2), gen("e", 2, 1)} <= bad


def test_modified_generator_count():
    dga = build_modified_dga(FIG8, "minus")
    n = 3
    families = {}
    for g in dga.generators:
        families[g.family] = families.get(g.family, 0) + 1
    assert families["a"] == n * (n - 1)
    assert families["c"] == n * n
    assert families["d"] == n * n
    assert families["e"] == n * (n + 1) // 2
    assert families["f"] == n * (n + 1) // 2


def test_leibniz_rule_examples():
    dga = build_dga(UNKNOT, "minus")
    c = NCPoly.generator("c", 1, 1)
    dc = dga.diff[gen("c", 1, 1)]
    # |c| = 1, so d(cc) = (dc)c - c(dc)
    assert differential(dga, c * c) == dc * c - c * dc
    assert differential(dga, NCPoly.one()).is_zero()
    with pytest.raises(DgaError):
        differential(dga, NCPoly.generator("c", 1, 2))


def test_leibniz_degree_zero_left_factor():
    dga = build_dga(TREFOIL, "minus")
    a12 = NCPoly.generator("a", 1, 2)
    b21 = NCPoly.generator("b", 2, 1)
    assert differential(dga, a12 * b21) == a12 * dga.diff[gen("b", 2, 1)]


def test_phi_factorization_examples():
    assert verify_phi_factorization(parse_braid("1")) == []
    assert verify_phi_factorization(BraidWord(3)) == []
    rng = random.Random(7)
    for _ in range(5):
        b = BraidWord(3, tuple(rng.choice([1, 2, -1, -2]) for _ in range(4)))
        assert verify_phi_factorization(b) == []


def test_sampled_verifiers_agree_with_symbolic():
    for b in (UNKNOT, TREFOIL, FIG8):
        for flavor in ("minus", "infinity"):
            assert verify_d_squared_sampled(build_dga(b, flavor), seed=3) == []
    for b in (TREFOIL, FIG8):
        assert verify_phi_factorization_sampled(b, seed=3) == []


def test_sampled_verifier_detects_corruption():
    dga = build_dga(TREFOIL, "minus")
    m = structured_matrices(TREFOIL)
    g = gen("e", 1, 2)
    dga.diff[g] = dga.diff[g] - m.Bhat.at(1, 2).specialize("minus", dga.sl)
    assert g in verify_d_squared_sampled(dga, seed=3)
    # one term of a degree-1 and of a degree-2 differential dropped or
    # doubled.  A degree-1 differential is a sum of a-words, so d(d(c12))
    # vanishes whatever d(c12) is: its corruption shows in the degree-2
    # generators whose differentials contain c12.
    # the 4-strand braid sends every family, indices up to 4, through
    # `_Terms`' letter lookup
    for b in (TREFOIL, FIG8, parse_braid("-2 -2 1 2 3 -2 -2")):
        for flavor in ("minus", "infinity"):
            for g in (gen("c", 1, 2), gen("e", 2, 1)):
                for kind in ("drop", "perturb"):
                    dga = build_dga(b, flavor)
                    terms = dict(dga.diff[g].terms)
                    (key, coeff), = dga.diff[g].sorted_terms()[-1:]
                    if kind == "drop":
                        del terms[key]
                    else:
                        terms[key] = 2 * coeff
                    dga.diff[g] = NCPoly(terms)
                    want = [h for h, _ in verify_d_squared(dga)]
                    assert want and (g.degree == 1 or g in want), (b, g)
                    assert verify_d_squared_sampled(dga, seed=3) == want, \
                        (b, flavor, g, kind)


@pytest.mark.parametrize("word", ["3 2 3 -1 2 -1 -3", "-1 -1 2 -1 -2 -2 3"])
def test_sampled_d_squared_on_large_braids(word):
    # 60,586 and 128,146 DGA terms, degrees 32 and 46: the two braids past
    # the benchmark's identity workload, whose symbolic d^2 takes minutes
    dga = build_dga(parse_braid(word), "minus")
    assert verify_d_squared_sampled(dga, seed=0) == []
    g = gen("e", 2, 1)
    terms = dict(dga.diff[g].terms)
    (key, coeff), = dga.diff[g].sorted_terms()[-1:]
    terms[key] = 2 * coeff
    dga.diff[g] = NCPoly(terms)
    bad = verify_d_squared_sampled(dga, seed=0)
    assert g in bad
    # a sampled failure is a real one: checked one generator at a time
    for h in bad:
        assert not differential(dga, dga.diff[h]).is_zero(), h


def test_dga_words_hold_plain_int_letters():
    """`_Terms` reads words with one `np.fromiter`, fast over plain ints."""
    dga = build_dga(parse_braid("-2 -2 1 2 3 -2 -2"), "infinity")
    assert {type(g) for p in dga.diff.values() for word, _ in p.terms
            for g in word} == {int}


def test_terms_look_letters_up_by_code():
    avars = a_variables(3)
    # ids out of code order, without a12, as the factorization check's
    # a-only ids have no b-letters
    ids = {a: k for k, a in enumerate(reversed(avars[1:]))}
    p = (NCPoly.generator("a", 3, 1) * NCPoly.generator("a", 1, 3)
         + NCPoly.generator("a", 2, 3).scale_base(lam=1))
    terms = dga_module._Terms([p], ids)
    # every word reversed, padded on the right
    assert terms.letters.tolist() == [
        [ids[g] for g in reversed(word)] + [len(ids)] * (2 - len(word))
        for word, _ in p.terms]
    # before the first code, between two and past the last
    for stray in (gen("a", 1, 2), gen("a", 1, 4), gen("b", 1, 2)):
        bad = p * NCPoly.generator(stray.family, stray.row, stray.col)
        with pytest.raises(DgaError, match=f"^unknown generator {stray}$"):
            dga_module._Terms([bad], ids)
    with pytest.raises(DgaError, match="^unknown generator a31$"):
        dga_module._Terms([p], {})
    # the top of the code range, the last indices of the first and the last
    # family, is looked up in int32; c_8191_8191 lies between them
    top, low = gen("f", 8191, 8191), gen("a", 8191, 1)
    assert int(low) < int(gen("c", 8191, 8191)) < int(top) < 2 ** 30
    q = NCPoly({((top, low, top), (0, 0, 0, 0)): 1, ((low,), (1, 0, 0, 0)): 2})
    ids = {top: 0, low: 1}
    assert dga_module._Terms([q], ids).letters.tolist() == [[0, 1, 0], [1, 2, 2]]
    with pytest.raises(DgaError, match="^unknown generator c_8191_8191$"):
        dga_module._Terms([q * NCPoly.generator("c", 8191, 8191)], ids)


def test_unknown_letter_is_one_error_for_both_verifiers():
    # c33 is no generator of a 2-strand DGA; a DgaError is a ValueError, a
    # usage error of the CLI
    dga = build_dga(TREFOIL)
    e12 = gen("e", 1, 2)
    dga.diff[e12] = dga.diff[e12] + NCPoly.generator("c", 3, 3)
    for verify in (verify_d_squared, verify_d_squared_sampled):
        with pytest.raises(DgaError, match="^unknown generator c33$"):
            verify(dga)


def test_terms_number_bases_in_first_appearance_order():
    # one dict pass with no bound on the exponents: +-2^15 and +-2^20 stay
    # apart and evaluate through `base_value`
    a12, a = gen("a", 1, 2), NCPoly.generator("a", 1, 2)
    bases = [(0, -1, 1, 0), (2 ** 15, -2 ** 15, 0, 0), (-2 ** 15, 2 ** 15, 0, 0),
             (0, 0, 2 ** 20, 0), (0, 0, 0, -2 ** 20), (1, 0, 0, 0), (0, 0, 0, 0),
             (-1, 0, 0, 0), (2 ** 20, 0, 0, 2 ** 15)]
    polys = [a.scale_base(lam=b[0], mu=b[1], u=b[2], v=b[3]) + NCPoly.scalar(k + 1,
             lam=b[0], mu=b[1], u=b[2], v=b[3]) for k, b in enumerate(bases)]
    terms = dga_module._Terms(polys, {a12: 0})
    assert terms.bases == bases
    assert [terms.bases[k] for k in terms.base_ids] == [
        b for p in polys for _, b in p.terms]
    rng = random.Random(4)
    t, mats = _superdiagonal_point(rng, [a12], 2)
    scalars = tuple(rng.randrange(1, P) for _ in range(4))
    assert _as_ints(_from_diagonals(dga_module._Trie(terms).superdiagonal(t, scalars))) == [
        ref_eval(p, mats, scalars, 2).tolist() for p in polys]


def _swap_a_word(phi_l, phi_r):
    """One two-letter word of PhiL with its letters swapped: the same
    abelianization, another word order."""
    for row in phi_l.rows:
        for j, e in enumerate(row):
            for (word, base), coeff in e.terms.items():
                if len(word) == 2 and word[0] != word[1]:
                    row[j] = e + NCPoly({(word[::-1], base): coeff}) - NCPoly(
                        {(word, base): coeff})
                    return
    raise AssertionError("no two-letter word in PhiL")


def _add_to_phi_l(phi_l, phi_r):
    phi_l.rows[0][1] = phi_l.rows[0][1] + NCPoly.generator("a", 2, 1)


def _add_to_phi_r(phi_l, phi_r):
    phi_r.rows[1][0] = phi_r.rows[1][0] + NCPoly.generator(
        "a", 1, 2) * NCPoly.generator("a", 2, 1)


def _add_constant_to_phi_l(phi_l, phi_r):
    # a difference of length 0, at row N - 1 of the column
    phi_l.rows[0][1] = phi_l.rows[0][1] + NCPoly.scalar(1)


def _add_long_word_to_phi_l(phi_l, phi_r):
    # on 1 x 30, whose PhiL and PhiR have span 30, a difference of length
    # 61 = N - 1, at row 0 of the column
    a12, a21 = gen("a", 1, 2), gen("a", 2, 1)
    phi_l.rows[0][0] = phi_l.rows[0][0] + NCPoly({((a12,) * 15 + (a21,) * 15,
                                                   (0, 0, 0, 0)): 1})


ONES_30 = BraidWord(2, (1,) * 30)


def test_sampled_phi_factorization_detects_corruption(monkeypatch):
    real = dga_module.phi_matrices
    small = (TREFOIL, FIG8, parse_braid("-2 -2 1 2 3 -2 -2"))
    for corrupt, braids in ((_add_to_phi_l, small), (_add_to_phi_r, small),
                            (_swap_a_word, small), (_add_constant_to_phi_l, small),
                            (_add_long_word_to_phi_l, (ONES_30,))):
        def corrupted(b, corrupt=corrupt):
            phi_l, phi_r = real(b)
            corrupt(phi_l, phi_r)
            return phi_l, phi_r

        monkeypatch.setattr(dga_module, "phi_matrices", corrupted)
        for b in braids:
            want = verify_phi_factorization(b)
            assert want, (b, corrupt.__name__)
            assert verify_phi_factorization_sampled(b, seed=3) == want, \
                (b, corrupt.__name__)
    monkeypatch.setattr(dga_module, "phi_matrices", real)
    # 1 x 30 has degree 61, N = 62, the largest admitted; 1 x 31 has 63
    assert dga_module._phi_factorization(ONES_30)[0] == dga_module._MAX_SUPERDIAGONAL
    assert verify_phi_factorization_sampled(ONES_30) == []
    with pytest.raises(DgaError, match="identity degree 63 too large for sampling"):
        verify_phi_factorization_sampled(BraidWord(2, (1,) * 31))


def test_sampled_phi_factorization_refuses_before_building_phi(monkeypatch):
    # phi_B's degree bound is 144 here, found without PhiL and PhiR, whose
    # symbolic build would not end in minutes
    def spy(b):
        raise AssertionError("phi_matrices called")

    monkeypatch.setattr(dga_module, "phi_matrices", spy)
    b = parse_braid("1 -2 1 -2 1 -2 1 -2 1 -2")
    assert dga_module._phi_degree_bound(b) == 144
    with pytest.raises(DgaError, match="identity degree 144 too large for sampling"):
        verify_phi_factorization_sampled(b)


def test_sampled_phi_factorization_on_empty_words():
    # one strand has no a-generators, so phi_B has no images to bound
    for b in (UNKNOT, BraidWord(3)):
        assert verify_phi_factorization(b) == []
        assert verify_phi_factorization_sampled(b, seed=3) == []


# ---- the evaluators behind the sampled checks, against references ----

P = dga_module._SAMPLE_PRIME
LETTERS = (gen("a", 1, 2), gen("a", 2, 1), gen("b", 1, 2), gen("c", 1, 1),
           gen("e", 2, 2))


def ref_eval(p, mats, scalars, dim):
    """p at the point, term by term in Python integers mod P."""
    acc = np.zeros((dim, dim), dtype=object)
    for (word, base), coeff in p.terms.items():
        c = coeff
        for s, e in zip(scalars, base):
            c = c * pow(s, e, P)
        prod = np.identity(dim, dtype=object)
        for g in word:
            prod = prod.dot(mats[g]) % P
        acc = (acc + c * prod) % P
    return acc


def _as_ints(arr):
    """The residues mod P of an evaluator's output, each checked to be
    balanced: |r| < P / 2 + 2."""
    assert (np.abs(arr) < P / 2 + 2).all()
    return (arr.astype(np.int64) % P).tolist()


def _random_point(rng, letters, dim):
    """A point as the float64 array of balanced residues the evaluators take
    and as object matrices of Python integers for `ref_eval`."""
    entries = [[rng.randrange(P) for _ in range(dim * dim)] for _ in letters]
    point = dga_module._modp(np.array(entries, dtype=np.float64).reshape(
        len(letters), dim, dim))
    mats = {g: np.array(e, dtype=object).reshape(dim, dim)
            for g, e in zip(letters, entries)}
    return point, mats


_term = st.tuples(
    st.lists(st.sampled_from(LETTERS), max_size=5).map(tuple),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3),
              st.integers(0, 3)),
    st.one_of(st.integers(-4, 4), st.integers(-2 ** 70, 2 ** 70),
              st.integers(-2 ** 46, 2 ** 46).map(lambda k: k * P)).filter(bool))
_poly = st.lists(_term, max_size=6).map(
    lambda ts: sum((NCPoly({(w, b): c}) for w, b, c in ts), NCPoly()))
# every word of length 5 over the letters: more nodes and terms than a block
_ALL_WORDS = NCPoly({(tuple(LETTERS[(k // 5 ** i) % 5] for i in range(5)),
                      (k % 3 - 1, 0, 0, 0)): 1 for k in range(5 ** 5)})
# 400 words of one base whose coefficients are congruent to (P - 1) / 2, the
# largest balanced residue: sums of unreduced products would pass 2^53
_HEAVY = NCPoly({(tuple(LETTERS[(k // 5 ** i) % 5] for i in range(4)),
                  (1, 0, 0, 0)): (P - 1) // 2 + k % 3 * P for k in range(400)})


def _superdiagonal_point(rng, letters, n):
    """A superdiagonal point as the array t (letters, n - 1) of balanced
    residues `_Trie.superdiagonal` takes and as dense n x n object matrices
    of Python integers, t[k] on the first superdiagonal, for `ref_eval`."""
    entries = [[rng.randrange(P) for _ in range(n - 1)] for _ in letters]
    t = dga_module._modp(np.array(entries, dtype=np.float64).reshape(
        len(letters), n - 1))
    mats = {}
    for g, e in zip(letters, entries):
        mats[g] = np.zeros((n, n), dtype=object)
        for j, c in enumerate(e):
            mats[g][j, j + 1] = c
    return t, mats


def _from_diagonals(diags):
    """The n x n matrices whose diagonals `_Trie.superdiagonal` gives, an
    array (polynomials, depths, n), each checked to be 0 past the matrix."""
    size, depths, n = diags.shape
    out = np.zeros((size, n, n))
    for length in range(depths):
        assert not diags[:, length, n - length:].any()
        out[:, np.arange(n - length), np.arange(length, n)] = diags[:, length, :n - length]
    return out


def _dense_column(trie, mats, scalars):
    """The polynomials of a trie at the dense point that sends letter id k
    to mats[k], an array (letters, dim, dim), on e_N: the walk from e_N with
    the dense step of `_phi_factorization`, summed over the word lengths."""
    dim = mats.shape[-1]

    def step(values, letters, depth):
        return dga_module._modp((mats[letters] @ values[..., None])[..., 0])
    lengths = trie.walk(np.eye(dim)[-1], step, scalars).reshape(-1, len(trie.levels), dim)
    return dga_module._modp(lengths.sum(axis=1))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(polys=st.lists(_poly, min_size=1, max_size=4),
       dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
@example(polys=[_ALL_WORDS, NCPoly.one()], dim=2, seed=0)
@example(polys=[NCPoly.one(), _HEAVY], dim=2, seed=1)
def test_trie_evaluation_matches_term_by_term_reference(polys, dim, seed):
    rng = random.Random(seed)
    point, mats = _random_point(rng, LETTERS, dim)
    scalars = tuple(rng.randrange(1, P) for _ in range(4))
    terms = dga_module._Terms(polys, {g: k for k, g in enumerate(LETTERS)})
    trie = dga_module._Trie(terms)
    want = [ref_eval(p, mats, scalars, dim)[:, -1].tolist() for p in polys]
    assert _as_ints(_dense_column(trie, point, scalars)) == want
    with mock.patch.object(dga_module, "_BLOCK", 3):
        assert _as_ints(_dense_column(trie, point, scalars)) == want
    # and at a superdiagonal point of dimension at least the longest word + 1
    n = int(terms.lens.max(initial=0)) + dim
    t, mats = _superdiagonal_point(rng, LETTERS, n)
    want = [ref_eval(p, mats, scalars, n).tolist() for p in polys]
    assert _as_ints(_from_diagonals(trie.superdiagonal(t, scalars))) == want
    with mock.patch.object(dga_module, "_BLOCK", 3):
        assert _as_ints(_from_diagonals(trie.superdiagonal(t, scalars))) == want


def _prefix_levels(words, depths):
    """The levels of a trie over `words` (tuples of letter ids), built from
    dicts of prefixes: per depth, its sorted prefixes of that length, each
    as (its parent's index one depth up, its last letter)."""
    levels, index = [], {(): 0}
    for depth in range(depths):
        prefixes = sorted({w[:depth] for w in words if len(w) >= depth})
        levels.append([(index[p[:-1]], p[-1]) for p in prefixes] if depth else [])
        index = {p: k for k, p in enumerate(prefixes)}
    return levels


@settings(derandomize=True, max_examples=150, deadline=None)
@given(terms=st.lists(st.tuples(st.one_of(
    st.lists(st.integers(0, 4), max_size=7),
    # past the 21 letters of 3 bits that fill one int64 sort key
    st.lists(st.integers(0, 1), min_size=19, max_size=26)).map(tuple),
    st.integers(0, 2), st.integers(-1, 1)), max_size=40),
       sel=st.one_of(st.none(), st.sets(st.integers(0, 39))))
@example(terms=[], sel=None)
@example(terms=[((), 0, 0), ((), 1, 0), ((), 0, 1)], sel={1})
@example(terms=[((3,), 0, 0), ((3,), 0, 1), ((3,), 1, 0), ((0,), 2, 0), ((4,), 0, 0)],
         sel=None)
@example(terms=[((1, 2), 0, 0), ((1,), 0, 0), ((1, 2, 2), 0, 1), ((2, 1), 1, 0),
                ((), 1, 1), ((1, 2), 2, -1)], sel={0, 2, 3, 5})
@example(terms=[((0, 1), 0, 0), ((2,), 1, 0)], sel=set())
@example(terms=[((0,) * 21 + (1,), 0, 0), ((1,) * 21 + (0,), 0, 0), ((0,) * 22, 1, 0),
                ((0,) * 21, 0, 0), ((0,) * 20, 2, 1)], sel=None)
def test_one_sort_trie_levels_match_prefix_dicts(terms, sel):
    # polynomial k holds the words of the terms (word, k, L exponent); a word
    # repeated with another base or in another polynomial is another term.
    # The trie takes the terms numbered in `sel` or, with None, all of them,
    # as the two tries of the d^2 check take subsets
    polys = [NCPoly({(tuple(int(LETTERS[a]) for a in w), (e, 0, 0, 0)): 1 + len(w) % 3
                     for w, k, e in terms if k == poly}) for poly in range(3)]
    ids = {g: k for k, g in enumerate(LETTERS)}
    # each term as (its reversed word of letter ids, as the trie reads it,
    # target, base, coefficient)
    expected = [(tuple(ids[g] for g in w[::-1]), k, b, c)
                for k, p in enumerate(polys) for (w, b), c in p.terms.items()]
    if sel is not None:
        sel = np.array(sorted(k for k in sel if k < len(expected)), dtype=np.intp)
        expected = [expected[k] for k in sel]
    trie = dga_module._Trie(dga_module._Terms(polys, ids), sel)
    words = [w for w, _, _, _ in expected]
    depths = max(map(len, words), default=0) + 1
    expected = [(w, k * depths + len(w), b, c) for w, k, b, c in expected]
    want = _prefix_levels(words, depths)
    assert len(trie.levels) == depths
    found = []
    for depth, (parents, letters, coeffs, bases, targets, nodes) in enumerate(trie.levels):
        assert list(zip(parents.tolist(), letters.tolist())) == want[depth], depth
        # a run of one target is summed at once
        assert (np.diff(targets) >= 0).all(), depth
        # the word of each node that a term ends at, from the reference
        prefixes = sorted({w[:depth] for w in words if len(w) >= depth})
        found += [(prefixes[node], int(target), trie.terms.bases[base], int(coeff))
                  for coeff, base, target, node in zip(coeffs, bases, targets, nodes)]
    assert sorted(found) == sorted(expected)


def test_superdiagonal_points_tell_word_order_apart():
    # xy - yx at n = 3: entry (0, 2) is t[x, 0] t[y, 1] - t[y, 0] t[x, 1]
    x, y = LETTERS[:2]
    trie = dga_module._Trie(dga_module._Terms(
        [NCPoly({((x, y), (0, 0, 0, 0)): 1, ((y, x), (0, 0, 0, 0)): -1})],
        {x: 0, y: 1}))
    t = np.array([[2.0, 3.0], [5.0, 7.0]])
    assert _as_ints(_from_diagonals(trie.superdiagonal(t, (1, 1, 1, 1)))) == \
        [[[0, 0, (2 * 7 - 5 * 3) % P], [0, 0, 0], [0, 0, 0]]]
    # at n = 2 every word of length 2 maps to 0: refused, not dropped
    with pytest.raises(DgaError, match="length 2 vanishes at dimension 2"):
        trie.superdiagonal(t[:, :1], (1, 1, 1, 1))


def test_walk_reduces_every_product_before_its_sum():
    # every word of length 4 over the letters, 625 terms of one (polynomial,
    # length) target, at the extremes h = (p - 1) / 2: the coefficient -h
    # times the base value p - 1 is a weight of about 2^46, reduced to h, and
    # a constant step gives every node the value h, so each product is +h^2.
    # Unreduced, a weight times h passes 2^53, and so does the sum of the
    # 625 products
    h = (P - 1) // 2
    words = NCPoly({(tuple(LETTERS[(k // 5 ** i) % 5] for i in range(4)),
                     (1, 0, 0, 0)): -h for k in range(5 ** 4)})
    trie = dga_module._Trie(dga_module._Terms(
        [words], {g: k for k, g in enumerate(LETTERS)}))
    assert len(trie.levels[4][4]) == 5 ** 4
    assert h * (P - 1) * h > 2 ** 53 and 5 ** 4 * h * h > 2 ** 53
    got = trie.walk(np.array([float(h)]), lambda values, letters, depth:
                    np.full(values.shape, float(h)), (P - 1, 1, 1, 1))
    assert _as_ints(got) == [[0]] * 4 + [[5 ** 4 * -h * (P - 1) * h % P]]


def _scrambled(dga, rng):
    """dga with a random a-word added to each degree-1 differential and a
    random term x a ... y (x, y of degree 1) to each degree-2 one, so that
    d(d(g)) is nonzero and has hot letters after odd ones."""
    odd = [g for g in dga.generators if g.degree == 1]
    avars = [g for g in dga.generators if g.degree == 0]
    diff = dict(dga.diff)
    for g in dga.generators:
        if not g.degree:
            continue
        mid = tuple(rng.choice(avars) for _ in range(rng.randrange(3))
                    ) if avars else ()
        word = mid if g.degree == 1 else (rng.choice(odd),) + mid + (
            rng.choice(odd),)
        base = (rng.randrange(-2, 3), rng.randrange(-1, 2), 1, 0)
        diff[g] = diff[g] + NCPoly({(word, base): rng.choice((1, -1, 3))})
    return dga._replace(diff=diff)


def _column_against_symbolic(dga, rng):
    """d(d(g)) e_n for every generator g by `_d_squared` at a random
    superdiagonal point, at the default and a tiny block size, checked
    against the last column of the symbolic d(d(g)) there; returns it."""
    gens = dga.generators
    degree, apply = dga_module._d_squared(dga)
    n = dga_module._superdiagonal_dim(degree)
    point, mats = _superdiagonal_point(rng, gens, n)
    scalars = tuple(rng.randrange(1, P) for _ in range(4))
    want = [ref_eval(differential(dga, dga.diff[g]), mats, scalars, n)[:, n - 1].tolist()
            for g in gens]
    for block in (dga_module._BLOCK, 2):
        with mock.patch.object(dga_module, "_BLOCK", block):
            assert _as_ints(apply(point, scalars)) == want, block
    return want


def test_vector_pass_matches_symbolic_d_squared():
    rng = random.Random(5)
    for b in (UNKNOT, TREFOIL, FIG8):
        for flavor in FLAVORS:
            true = build_dga(b, flavor)
            for dga in (true, _scrambled(true, rng)):
                column = _column_against_symbolic(dga, rng)
                assert any(map(any, column)) == (dga is not true), (b, flavor)


A12, C11, C22, E11 = gen("a", 1, 2), gen("c", 1, 1), gen("c", 2, 2), gen("e", 1, 1)


def _word(*letters, coeff=1):
    return NCPoly({(tuple(map(int, letters)), (0, 0, 0, 0)): coeff})


def _hand_dga(diff):
    return dga_module.DgaPresentation(
        braid=UNKNOT, flavor="minus", sl=0, generators=list(diff), diff=diff,
        phi_l=None, phi_r=None)


def test_column_pass_hand_cases():
    rng = random.Random(7)
    # d(c11) = 3 + a12 and d(c22) = 3 have constant terms, the excess -1.
    # d(e11) = c11 a a a - a c11 a a (a = a12) has d^2 = 0 and degree 4, so
    # n = 5, and its words 3 a^3 + a^4 of d^2 cancel, a^4 of length n - 1
    base = {A12: NCPoly(), C11: _word(coeff=3) + _word(A12), C22: _word(coeff=3)}
    true = _word(C11, A12, A12, A12) - _word(A12, C11, A12, A12)
    dga = _hand_dga({**base, E11: true})
    assert dga_module._d_squared(dga)[0] == 4
    assert not any(map(any, _column_against_symbolic(dga, rng)))
    assert verify_d_squared_sampled(dga) == []
    # adding c22 a^l adds 3 a^l, of total length l, to d(d(e11)): one
    # nonzero entry, at row n - 1 - l, for each l up to n - 1
    for length in range(5):
        dga = _hand_dga({**base, E11: true + _word(C22, *[A12] * length)})
        assert dga_module._d_squared(dga)[0] == 4
        column = _column_against_symbolic(dga, rng)
        assert [k for k, x in enumerate(column[-1]) if x] == [4 - length]
        assert verify_d_squared_sampled(dga) == [E11]
    # without a c11 a a: d(d(e11)) = 3 a^3 + a^4, at rows 1 and 0
    dga = _hand_dga({**base, E11: _word(C11, A12, A12, A12)})
    column = _column_against_symbolic(dga, rng)
    assert [k for k, x in enumerate(column[-1]) if x] == [0, 1]
    assert verify_d_squared_sampled(dga) == [E11]
    # a d^2 made of the constant alone: d(e11) = c22, n = 1
    dga = _hand_dga({**base, E11: _word(C22)})
    assert _column_against_symbolic(dga, rng)[-1] == [3]
    assert verify_d_squared_sampled(dga) == [E11]
    # no hot letter, and no generator at all
    assert verify_d_squared_sampled(_hand_dga({A12: NCPoly(), E11: _word(A12)})) == []
    assert verify_d_squared_sampled(_hand_dga({})) == []


# the five braids of the benchmark's identity workload, and the sampling
# dimension, degree + 1, of each one's d^2 check
IDENTITY_DIMS = {"1 -2 1 -2": 9, "-2 -2 1 2 3 -2 -2": 15,
                 "-1 -1 -1 3 -2 1 1": 21, "3 2 -1 1 2 -1 2": 33,
                 "-1 3 2 -1 -2 3 3": 31}


def test_sampling_degree_bounds_every_d_squared_word():
    rng = random.Random(9)
    for b in (UNKNOT, TREFOIL, FIG8):
        for flavor in FLAVORS:
            true = build_dga(b, flavor)
            for dga in (true, _scrambled(true, rng)):
                degree, _ = dga_module._d_squared(dga)
                longest = max((len(word) for g in dga.generators
                               for word, _ in differential(
                                   dga, dga.diff[g]).terms), default=0)
                assert degree >= longest, (b, flavor)
    for word, dim in IDENTITY_DIMS.items():
        degree, _ = dga_module._d_squared(build_dga(parse_braid(word)))
        assert dga_module._superdiagonal_dim(degree) == dim, word
    # degree 61 is the largest the d^2 check admits, as with dense points
    assert dga_module._superdiagonal_dim(61) == 62
    with pytest.raises(DgaError, match="too large for sampling"):
        dga_module._superdiagonal_dim(62)


def test_trie_steps_are_exact_at_max_dim():
    # the balanced extremes +-h, h = (p - 1) / 2, at the largest dimension,
    # n = _MAX_SUPERDIAGONAL.  Every dense product of the factorization check
    # sums at most n - 1 products of two residues (see Exactness); full
    # matrices of +-h make each of these sum n terms of +-h^2
    n, h = dga_module._MAX_SUPERDIAGONAL, (P - 1) // 2
    assert (n - 1) * (P / 2 + 2) ** 2 < 2 ** 52
    x, y = LETTERS[:2]
    mats = np.stack([np.full((n, n), h), np.full((n, n), -h)]).astype(float)
    # a sigma image's word of length 2 beside one of length 1
    image = NCPoly.generator("a", 1, 2) - NCPoly.generator(
        "a", 1, 2) * NCPoly.generator("a", 2, 1)
    assert _as_ints(dga_module._sigma_value(image, dict(zip((x, y), mats)))) == \
        [[(h + n * h * h) % P] * n] * n
    # the lhs walk from e_N: x y e_N is x times a column of -h
    trie = dga_module._Trie(dga_module._Terms(
        [NCPoly({((x, y), (0, 0, 0, 0)): 1})], {x: 0, y: 1}))
    assert _as_ints(_dense_column(trie, mats, (1, 1, 1, 1))) == [[-n * h * h % P] * n]
    # a 3 x 3 block product with the column blocks of two block vectors,
    # each entry the sum of three reduced products of n - 1 odd terms; not
    # reduced first, that odd sum would pass 2^53 and round
    blocks = np.full((3, 3, n, n), h - 1, dtype=float)
    column = np.full((2, 3, 3, n), 1 - h, dtype=float)
    column[..., 0] = 0
    assert 3 * (n - 1) * (h - 1) ** 2 > 2 ** 53
    assert _as_ints(dga_module._block_matvec(blocks, column)) == \
        [[[[-3 * (n - 1) * (h - 1) ** 2 % P] * n] * 3] * 3] * 2
    # the column step sums two products per entry, (-1)^|x| t s_e and D(x) u,
    # so 2 (p / 2 + 2)^2 < 2^52 bounds it at any dimension.  At n, node 0
    # holds +h everywhere under the even letter 0 (t = h), node 1 holds -h
    # under the odd letter 1 (t = -h), every D(x) entry is h, and a state of
    # width n reaches rows past both ends
    assert 2 * (P / 2 + 2) ** 2 < 2 ** 52
    t = np.stack([np.full(n - 1, h), np.full(n - 1, -h)]).astype(float)
    step, rows = dga_module._column_step(
        t, np.full((2, n, n), h, dtype=float), np.array([1.0, -1.0]), n + 1)
    state = np.full((2, n + 1), h, dtype=np.float32)
    state[1] = -h
    for depth in (1, 2, n // 2, n - 1, n):
        assert rows[depth].tolist() == [n - depth - j if depth + j <= n else n
                                        for j in range(n)]
        want = []
        for sign, tx, v in ((1, h, h), (-1, -h, -h)):
            # t s_e off row n - 1 of X, D(x) u inside the column; then u
            want.append([(sign * tx * v * (0 <= n - depth - j < n - 1)
                          + h * v * (0 <= n - depth - j < n)) % P for j in range(n)]
                        + [tx * v * (depth < n) % P])
        assert _as_ints(step(state, np.array([0, 1]), depth)) == want, depth
    # the hot trie's step at the extremes: the diagonal of x y is t[x] t[y]
    got = _from_diagonals(trie.superdiagonal(t, (1, 1, 1, 1)))[0]
    assert _as_ints(np.diagonal(got, 2)) == [-h * h % P] * (n - 2)
    assert not (got - np.diag(np.diagonal(got, 2), 2)).any()
    ends = np.array([2.0 ** 53 - 1, 1 - 2.0 ** 53])
    assert _as_ints(dga_module._modp(ends)) == [(2 ** 53 - 1) % P, (1 - 2 ** 53) % P]


# the first 2 x 2 matrices of `_rand_point` (recorded before residues were
# balanced) and, per trial, the scalars and the first row of the point t of
# the trefoil's sampled d^2 check, mod P, for seeds 0 and 1 (recorded when
# the check moved to one column, with no vector drawn)
PINNED_DRAWS = {
    0: ([[[2885581, 10448830], [609452, 15140482]],
         [[11179093, 6106932], [4742714, 2667770]]],
        [((13664487, 15472783, 9064455, 3409162),
          [2885581, 10448830, 609452, 15140482, 11179093, 6106932]),
         ((6209918, 13989589, 16450340, 1946932),
          [12459890, 10961223, 6971282, 1525159, 7213687, 10741774])]),
    1: ([[[6664693, 12015690], [15821535, 6372912]],
         [[8829892, 2606289], [4994108, 3140489]]],
        [((2902583, 6159316, 9207316, 14809786),
          [6664693, 12015690, 15821535, 6372912, 8829892, 2606289]),
         ((11292972, 1182014, 1396438, 14563934),
          [16415399, 10308568, 11213419, 16494672, 15501711, 2276729])]),
}


@pytest.mark.parametrize("seed", sorted(PINNED_DRAWS))
def test_sampled_draws_are_pinned(monkeypatch, seed):
    point, trials = PINNED_DRAWS[seed]
    assert _as_ints(dga_module._rand_point(random.Random(seed), (2, 2, 2))) == point
    real, seen = dga_module._d_squared, []

    def spy(dga):
        degree, apply = real(dga)

        def recorded(point, scalars):
            seen.append((scalars, _as_ints(point)[0]))
            return apply(point, scalars)
        return degree, recorded

    monkeypatch.setattr(dga_module, "_d_squared", spy)
    assert verify_d_squared_sampled(build_dga(TREFOIL), seed) == []
    assert seen == trials


# per trial, the scalars and the first row of the point t (N = 8) of the
# trefoil's sampled factorization check, mod P, for seeds 0 and 1
PINNED_PHI_DRAWS = {
    0: [((5088744, 16236990, 7995971, 6007072),
         [2885581, 10448830, 609452, 15140482, 11179093, 6106932, 4742714]),
        ((15263010, 8934936, 16488405, 11830828),
         [5801599, 4448120, 8001043, 15457497, 3352694, 10973466, 2524787])],
    1: [((13232583, 3522458, 1574703, 8184877),
         [6664693, 12015690, 15821535, 6372912, 8829892, 2606289, 4994108]),
        ((3837994, 9917909, 15859011, 1715088),
         [4310952, 11562214, 16036786, 13271693, 13226630, 8457846, 2410885])],
}


@pytest.mark.parametrize("seed", sorted(PINNED_PHI_DRAWS))
def test_sampled_phi_factorization_draws_are_pinned(monkeypatch, seed):
    real, seen = dga_module._phi_factorization, []

    def spy(b):
        dim, apply = real(b)

        def recorded(point, scalars):
            assert point.shape == (2, dim - 1)
            seen.append((scalars, _as_ints(point)[0]))
            return apply(point, scalars)
        return dim, recorded

    monkeypatch.setattr(dga_module, "_phi_factorization", spy)
    assert verify_phi_factorization_sampled(TREFOIL, seed) == []
    assert seen == PINNED_PHI_DRAWS[seed]


def test_substituting_lone_generators_shares_the_images():
    for b in (TREFOIL, FIG8, parse_braid("-2 -2 1 2 3 -2 -2")):
        images = phi_images(b)
        A = structured_matrices(b).A
        for i, j, e in A.substitute(images).entries():
            if i == j:
                assert e == A.at(i, i)
                continue
            a = NCPoly.generator("a", i, j)
            assert e is images[gen("a", i, j)]
            assert e == apply_phi(b, a)
            # 2 a takes the general path, through `collect`
            assert (a * 2).substitute(images) == e * 2
        # the sum of lone generators takes the general path
        assert (A.at(1, 2) + A.at(2, 1)).substitute(images) == \
            images[gen("a", 1, 2)] + images[gen("a", 2, 1)]


def test_hat_matrices_coincide_at_units():
    m = structured_matrices(TREFOIL)

    # set U = V = m = 1 by dropping their exponents
    def strip(p):
        out = NCPoly.zero()
        for (word, b), c in p.terms.items():
            out += NCPoly({(word, (b[0], 0, 0, 0)): c})
        return out

    for i in range(1, 3):
        for j in range(1, 3):
            assert strip(m.Ahat.at(i, j)) == strip(m.Acheck.at(i, j))


def test_prop_27_identity_and_b_differentials():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(2, 4)
        b = rand_knot(rng, n, rng.randrange(2, 6))
        m = structured_matrices(b)
        from xverse.phi import phi_matrices
        phi_l, phi_r = phi_matrices(b)
        phiAhat = m.Ahat.map(lambda p: apply_phi(b, p))
        phiAcheck = m.Acheck.map(lambda p: apply_phi(b, p))
        dC = m.Ahat - m.Lam @ phi_l @ m.Acheck
        dD = m.Acheck - m.Ahat @ phi_r @ m.LamInv
        lhs = m.Ahat - m.Lam @ phiAhat @ m.LamInv
        rhs = dC + (m.Lam @ phi_l) @ dD
        assert lhs == rhs
        lhs2 = m.Acheck - m.Lam @ phiAcheck @ m.LamInv
        rhs2 = dD + dC @ (phi_r @ m.LamInv)
        assert lhs2 == rhs2
        # the b-row differentials equal the same combination
        dga = build_dga(b, "minus")
        dBhat = m.Ahat - m.Lam @ phiAhat @ m.LamInv
        dBcheck = m.Acheck - m.Lam @ phiAcheck @ m.LamInv
        # applying the Leibniz differential to Bhat/Bcheck entries matches
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                bh = m.Bhat.at(i, j)
                bc = m.Bcheck.at(i, j)
                assert differential(dga, bh.specialize("minus", dga.sl)) == \
                    dBhat.at(i, j).specialize("minus", dga.sl)
                assert differential(dga, bc.specialize("minus", dga.sl)) == \
                    dBcheck.at(i, j).specialize("minus", dga.sl)


def test_lam_override_validation():
    w = braid_stats(TREFOIL).writhe
    good = [(1, 1, -w), (1, 0, 0)]
    assert degree0_matrices(TREFOIL, good).Lam == degree0_matrices(TREFOIL).Lam
    with pytest.raises(DgaError, match="det Lam mismatch"):
        degree0_matrices(TREFOIL, [(1, 0, 0), (1, 0, 0)])
    with pytest.raises(DgaError):
        degree0_matrices(TREFOIL, [(2, 1, -w), (1, 0, 0)])
    with pytest.raises(DgaError, match="Lam override needs 2 entries"):
        degree0_matrices(TREFOIL, [(1, 1, -3)])


_braid = st.integers(2, 4).flatmap(lambda n: st.lists(
    st.sampled_from([s * k for k in range(1, n) for s in (1, -1)]),
    max_size=6).map(lambda letters: BraidWord(n, tuple(letters))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(b=_braid, dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_push_matches_references(b, dim, seed):
    avars = a_variables(b.strands)
    images = phi_images(b)
    assert list(images) == avars
    for a in avars:
        assert images[a] == apply_phi(b, NCPoly.generator("a", a.row, a.col))
    # a bound, not the degree: sigma_1 sigma_1^-1 folds to 2, its images
    # have degree 1
    assert dga_module._phi_degree_bound(b) >= max(
        len(word) for p in images.values() for word, _ in p.terms)
    rng = random.Random(seed)
    point, mats = _random_point(rng, avars, dim)
    scalars = tuple(rng.randrange(1, P) for _ in range(4))
    pushed = push(b, dict(zip(avars, point)), dga_module._sigma_value)
    assert _as_ints(np.array([pushed[a] for a in avars])) == [
        ref_eval(images[a], mats, scalars, dim).tolist() for a in avars]
