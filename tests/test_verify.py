import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xverse.verify
from xverse.augment import PRIMES, augmentation_number
from xverse.braid import BraidWord, braid_stats, parse_braid
from xverse.verify import (CHECKS, CheckSpec, _check_jobs, reproduce_table,
                           run_check, TABLE_ROWS)

TREFOIL = parse_braid("1 1 1")
FIG8 = parse_braid("1 -2 1 -2")
M76 = parse_braid("1 -2 1 -2 -3 2 3 3 3")


def test_all_checks_pass_on_trefoil():
    for check in CHECKS:
        spec = CheckSpec(TREFOIL, check, samples=3, seed=1)
        report = run_check(spec)
        assert report.passed, (check, report.cases)
        assert report.cases


def test_checks_pass_on_four_strand_braid():
    for check in ("conjugation", "mirror", "doublehat_stab", "lam_override"):
        spec = CheckSpec(M76, check, samples=2, seed=4)
        assert run_check(spec).passed


def test_seed_determinism():
    a = run_check(CheckSpec(TREFOIL, "rescale", samples=4, seed=9))
    b = run_check(CheckSpec(TREFOIL, "rescale", samples=4, seed=9))
    c = run_check(CheckSpec(TREFOIL, "rescale", samples=4, seed=10))
    assert a.cases == b.cases
    assert [d for d, _, _ in a.cases] != [d for d, _, _ in c.cases]


def _direct(args):
    b, flavor, p, l0, m0, u0, v0, override = args
    return augmentation_number(b, flavor, p, l0, m0, u0=u0, v0=v0,
                               lam_override=override).count


@pytest.mark.parametrize("check", CHECKS)
def test_each_distinct_query_counted_once(check, monkeypatch):
    """run_check counts every distinct query once and reports what
    counting each pair directly reports."""
    calls = []

    def recording(b, flavor, prime, lam0, mu0, u0=None, v0=None,
                  lam_override=None, **kwargs):
        calls.append((b.letters, b.strands, flavor, prime, lam0, mu0, u0,
                      v0, repr(lam_override)))
        return augmentation_number(b, flavor, prime, lam0, mu0, u0=u0, v0=v0,
                                   lam_override=lam_override, **kwargs)

    monkeypatch.setattr(xverse.verify, "augmentation_number", recording)
    for b in (TREFOIL, FIG8):
        spec = CheckSpec(b, check, samples=3, seed=1, grid=((1, 1), (2, 1)))
        calls.clear()
        report = run_check(spec)
        jobs = _check_jobs(spec)
        sides = [(a[0].letters, a[0].strands, *a[1:7], repr(a[7]))
                 for _, left, right in jobs for a in (left, right)
                 if a is not None]
        assert len(calls) == len(set(sides))
        assert set(calls) == set(sides)
        if check not in ("mirror", "op_swap", "doublehat_stab"):
            assert len(sides) > len(calls)  # the memo saved counts
        direct = [(desc, _direct(left), 0 if right is None else _direct(right))
                  for desc, left, right in jobs]
        assert report.cases == sorted(direct, key=lambda c: c[0])


@st.composite
def knots_and_points(draw):
    """A knot on 2 or 3 strands of at most 6 letters, a prime and a grid
    point (lam0, mu0) with both entries nonzero mod p."""
    n = draw(st.sampled_from((2, 3)))
    letters = draw(st.lists(st.integers(1, n - 1).flatmap(
        lambda k: st.sampled_from((k, -k))), max_size=6))
    b = BraidWord(n, tuple(letters))
    assume(braid_stats(b).is_knot)
    p = draw(st.sampled_from(PRIMES))
    point = (draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1)))
    return b, p, point, draw(st.integers(0, 2 ** 16))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(knots_and_points())
def test_markov_and_mirror_invariance_at_random_points(case):
    """Conjugation, positive stabilization and the transverse mirror keep
    every hat count, at any prime and nonzero grid point."""
    b, p, point, seed = case
    for check in ("conjugation", "stab_pos", "mirror"):
        report = run_check(CheckSpec(b, check, prime=p, grid=(point,),
                                     samples=2, seed=seed))
        assert report.passed, (check, report.cases)
        assert report.cases


@pytest.mark.parametrize("check", CHECKS)
def test_default_grid_is_nonzero_at_p2(check):
    """Every check runs at p = 2 on the default grid, which is (1, 1)
    there because 2 is 0 in F_2."""
    report = run_check(CheckSpec(TREFOIL, check, prime=2, samples=2))
    assert report.passed, report.cases
    assert report.cases
    assert all(desc.endswith(("@(1,1)", "@(1,1,1,1)"))
               for desc, _, _ in report.cases)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check(CheckSpec(TREFOIL, "flype"))
    with pytest.raises(ValueError):
        run_check(CheckSpec(TREFOIL, "mirror", samples=0))
    with pytest.raises(ValueError):
        run_check(CheckSpec(TREFOIL, "mirror", grid=()))


def test_grid_points_infinity():
    spec = CheckSpec(TREFOIL, "op_swap", grid=((2, 1, 1, 2), (1, 2)))
    report = run_check(spec)
    assert report.passed
    assert len(report.cases) == 2
    with pytest.raises(ValueError):
        run_check(CheckSpec(TREFOIL, "op_swap", grid=((1, 2, 1),)))


def test_table_subset():
    report = reproduce_table(rows=["m72", "9_44"])
    assert report.passed
    assert [r.name for r in report.rows] == ["m(7_2)", "9_44"]
    assert report.rows[0].computed == [0, 5]
    assert report.rows[1].computed == [5, 0, 0]


def test_table_row_key_tolerance():
    for spelling in ("M(7_2)", "m72", "m(7_2)"):
        report = reproduce_table(rows=[spelling])
        assert [r.name for r in report.rows] == ["m(7_2)"]


def test_table_selection_names_known_rows():
    # an empty selection checks nothing, so it is an error, not a pass
    with pytest.raises(ValueError, match="at least one row"):
        reproduce_table(rows=[])
    for rows in ([""], ["m72", "nosuchrow"]):
        with pytest.raises(ValueError, match="unknown table row"):
            reproduce_table(rows=rows)


def test_table_budget_recorded_not_fatal():
    report = reproduce_table(rows=["m72"], budget=10)
    row = report.rows[0]
    assert not row.passed
    assert not report.passed
    assert None in row.computed
    assert row.errors


@pytest.mark.parametrize("budget", [-1, 2.5])
def test_bad_budget_rejected_before_counting(monkeypatch, budget):
    def unreachable(*args, **kwargs):
        raise AssertionError("counted")
    monkeypatch.setattr(xverse.verify, "augmentation_number", unreachable)
    with pytest.raises(ValueError, match=f"got {budget!r}"):
        run_check(CheckSpec(TREFOIL, "mirror"), budget=budget)
    with pytest.raises(ValueError, match=f"got {budget!r}"):
        reproduce_table(rows=["m72"], budget=budget)


def test_table_rows_cover_reference():
    assert len(TABLE_ROWS) == 10
    assert sum(len(entries) for _, _, entries in TABLE_ROWS) == 21
