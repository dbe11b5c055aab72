import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from xverse.cli import main

TREFOIL_POLY = ("L^2*m + L^2 - L*m^4*U^3 - L*m^3*U^2 + 2*L*m^2*U^2"
                " - 2*L*m^2*U - L*m*U - L*U + m^4*U^3 + m^3*U^2")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_braid_json(capsys):
    code, out, _ = run(capsys, "braid", "--braid", "1 -1")
    assert code == 0
    assert json.loads(out) == {"writhe": 0, "strands": 2, "sl": -2,
                               "knot": False}
    code, out, _ = run(capsys, "braid", "--braid", "1 -1", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "writhe": 0, "strands": 2,
                               "sl": -2, "knot": False}


def test_dga_unknot_text(capsys):
    code, out, _ = run(capsys, "dga", "--braid", "", "--strands", "1")
    assert code == 0
    lines = out.splitlines()
    assert "d(c11) = -1 - m*U + L*V + L*m" in lines
    assert "d(d11) = L^-1 + L^-1*m*U - V - m" in lines
    assert "d(e11) = -c11 - L*d11" in lines
    assert "d(f11) = -L^-1*c11 - d11" in lines


def test_dga_json_includes_phi(capsys):
    code, out, _ = run(capsys, "dga", "--braid", "1", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["phi_l"][0][1] == "-1"
    assert payload["phi_r"][0][1] == "1"
    assert payload["phi_r"][1][0] == "-1"


@pytest.mark.parametrize("braid, digest", [
    ("1", "6dbff4f18077fc6d31e3399caa85604e15d704ba9a3942f1f5d753b1c3573184"),
    ("1 -2 1 -2",
     "462d178a295215f32566a4eb9e6b0f233797d1da1d2025788658589c3860aa73"),
    ("-2 -2 1 2 3 -2 -2",
     "c5ad012cc4f83b59fdbb2cf3489f73f12c6d8410282bc21d948c386946559707"),
])
def test_dga_json_bytes_are_pinned(capsys, braid, digest):
    """The JSON output, phi_l and phi_r included, is byte for byte the
    one these digests were taken from."""
    code, out, _ = run(capsys, "dga", "--braid", braid, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("braid, extra, flavor, digest", [
    ("1 -2 1 -2", ("--reduced",), "minus",
     "9feaa05d70d1b21af8f726be99258428f3c7726f2a3689cdb9cb3b5da326dce3"),
    ("1 -2 1 -2", ("--reduced",), "hat",
     "1f4798eae2b5e1d07817c396e017f0c3faeb9b59d3dbecf4cba0f0643e31989c"),
    ("1 -2 1 -2", ("--reduced",), "doublehat",
     "5bea4c064400899c740b7f3b33296989bbbc79ff1bd5e2af02c0ae65e91bebae"),
    ("1 -2 1 -2", ("--reduced",), "infinity",
     "533513b5dc590f6652bd1e627f79ebe523cb7f95b8f32faef400ce6d01464561"),
    ("-2 -2 1 2 3 -2 -2", ("--split", "3"), "minus",
     "4ee01a53d04e38c78751f571c3bbb47e09f4b4b1ae3d32a6eb7be654de0423c2"),
    ("-2 -2 1 2 3 -2 -2", ("--split", "3"), "hat",
     "f9cbf3d1608c4056811d4db363f455ad6f4b994455b9dcf57706cfa928c33a68"),
    ("-2 -2 1 2 3 -2 -2", ("--split", "3"), "doublehat",
     "651e585eae91dd0f56abf5347cb8a47410f3881ad0b2b9f0d289e7523b899104"),
    ("-2 -2 1 2 3 -2 -2", ("--split", "3"), "infinity",
     "d880187f15be026b4e94a9806a5cd05ee36403eb7bd73ab95cfccbbfa37e6c34"),
    ("1 1 1", ("--reduced",), "minus",
     "c764750c4ebf380bb4682bd225aeb751a0fc3aa2c24d4963eba4e08fb8e6f23d"),
    ("1 1 1", ("--reduced",), "hat",
     "5e7733e507b2c44845d7823e7e6b22577476787406e57f9edb1949523bc3d1b7"),
    ("1 1 1", ("--reduced",), "doublehat",
     "c0d006812bf1d192526eb92d12ec1e80d2165010a31a8bd16bbfd85509f401fa"),
    ("1 1 1", ("--reduced",), "infinity",
     "5a773cc1f5af153d6fe2c54b624736936c22119d6727ff55a9a085d5db9c93ef"),
    ("-1 -1 -1", ("--reduced",), "minus",
     "1334d928a7a76649651d66b074020ea594d178f9f552973209c3f07d32360a40"),
    ("-1 -1 -1", ("--reduced",), "hat",
     "076270325b12d9e3b4bf7ab1d84803d15cc17d5a88631d2aea5515aef7a43e59"),
    ("-1 -1 -1", ("--reduced",), "doublehat",
     "96a7b52dd3e37897d6d8e6bcfd6b7510e1ce8fb59fb7300c53c6c38179837727"),
    ("-1 -1 -1", ("--reduced",), "infinity",
     "8a1882e96fffeb52bf2148ba32abe6dc8889f70750313dc2edc690bf2bddd1cd"),
    ("1 1 1 1 1", ("--reduced",), "minus",
     "44cc224f19567d1f7ac66ff189022ef7b588766f17397b7251676e0e555e5cf6"),
    ("1 1 1 1 1", ("--reduced",), "hat",
     "34b768965eefd0eaadbf3cffd3b1302c9ae0fe31d88574de41507c573509aa5e"),
    ("1 1 1 1 1", ("--reduced",), "doublehat",
     "d32db2df146c403a2f0d65df7db2221d0df070d66585080fe958ee7055b5e238"),
    ("1 1 1 1 1", ("--reduced",), "infinity",
     "fea1e002611d255af3ff24750810932aedfe2b56b3d26a29760c6e7e3d134342"),
    ("-2 -2 1 2 3 -2 -2", ("--reduced",), "minus",
     "a97afc4c8debae1983a495f822685067256af0f8dcc848e93321bb3f7eb70823"),
    ("-2 -2 1 2 3 -2 -2", ("--reduced",), "hat",
     "40e577b766fff25233e16174ab8ed8c3d60f4d956d26761055680eedb98b198f"),
    ("-2 -2 1 2 3 -2 -2", ("--reduced",), "doublehat",
     "08134b1cf10256ac96c08da0d2a9ee377f7d771fba11aad3af1a155951b3f703"),
    ("-2 -2 1 2 3 -2 -2", ("--reduced",), "infinity",
     "7de329b27d91db2c569cffb8c5a2d7fb0ca2b02d7532d101582f7bebf879a860"),
])
def test_ht0_json_bytes_are_pinned(capsys, braid, extra, flavor, digest):
    """The HT0 relations (Phi by substitution, every flavor's
    specialization, and the linear elimination of --reduced) print byte
    for byte as when these digests were taken."""
    code, out, _ = run(capsys, "ht0", "--braid", braid, *extra,
                       "--flavor", flavor, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ht0_reduced(capsys):
    code, out, _ = run(capsys, "ht0", "--braid", "-1", "--reduced")
    assert code == 0
    assert "rel[0] = 1 + m*U + V*a12" in out
    assert "rel[1] = L*V + L*m + U*a12" in out


def test_aug_count_json(capsys):
    code, out, _ = run(capsys, "aug", "count", "--braid", "1 1 1",
                       "--prime", "3", "--lam", "1", "--mu", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["flavor"] == "hat"
    assert payload["prime"] == 3


def test_aug_count_byte_identical(capsys):
    argv = ("aug", "count", "--braid", "1 -2 1 -2", "--prime", "3",
            "--lam", "2", "--mu", "1", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_aug_count_budget_exit_code(capsys):
    code, out, err = run(capsys, "aug", "count", "--braid",
                         "3 3 -2 3 2 -1 2 1 1", "--prime", "3",
                         "--lam", "2", "--mu", "1", "--budget", "50")
    assert code == 3
    assert err.count("budget exceeded") == 1
    assert out == ""


def test_aug_poly_trefoil(capsys):
    code, out, _ = run(capsys, "aug", "poly", "--braid", "1 1 1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == TREFOIL_POLY
    assert lines[1] == "note: repeated factors are not removed"


def test_commands_load_neither_sympy_nor_dataclasses():
    """`aug poly`, `aug count`, `table` and `verify` run on the package's
    own arithmetic: sympy, a test-only dependency, is never imported.  The
    records are named tuples, so neither `dataclasses` nor the `inspect`
    it pulls in is loaded either, and numpy is imported only when a sampled
    check runs."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from xverse.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(["aug", "poly", "--braid", "1 1 1"]),
                     main(["aug", "count", "--braid", "1 1 1", "--prime",
                           "3", "--lam", "1", "--mu", "2"]),
                     main(["table", "--rows", "m72"]),
                     main(["verify", "--braid", "1 1 1", "--check", "mirror",
                           "--prime", "2", "--seed", "0"])]
        print(json.dumps({"codes": codes, "lines": out.getvalue().splitlines(),
                          "loaded": [m for m in ("sympy", "dataclasses",
                                                 "inspect", "numpy")
                                     if m in sys.modules]}))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["codes"] == [0, 0, 0, 0]
    assert got["lines"][0] == TREFOIL_POLY
    assert got["lines"].count("pass") == 2  # table, then verify
    assert got["lines"][-1] == "pass"
    assert got["loaded"] == []


def test_aug_compare_verdicts(capsys):
    code, out, _ = run(capsys, "aug", "compare",
                       "--braid-a", "3 3 -2 3 2 1 1 2 -1",
                       "--braid-b", "3 3 -2 3 2 -1 2 1 1",
                       "--prime", "3", "--lam", "2", "--mu", "1")
    assert code == 0
    assert "verdict: distinct transverse knots" in out
    code, out, _ = run(capsys, "aug", "compare",
                       "--braid-a", "1 1 1", "--braid-b", "1 1 1",
                       "--prime", "3", "--grid")
    assert code == 0
    assert "verdict: indistinguishable on tested grid" in out


N12_591 = ("3 2 3 2 -1 3 2 1 3 2 1 2 1 -4",
           "-2 -3 -1 -2 4 3 4 3 2 1 2 1 2 1 4 3 4 3")
BUDGET_1E5 = ("--prime", "3", "--lam", "1", "--mu", "1", "--budget", "100000")


def test_aug_count_picks_the_cut(capsys):
    """aug count cuts a long word where table does; counting this
    18-letter word whole (--split 0) takes over a minute of relation
    building and more than this budget."""
    code, out, _ = run(capsys, "aug", "count", "--braid", N12_591[1],
                       *BUDGET_1E5)
    assert code == 0
    assert out == "count = 1\n"


def test_aug_compare_12n_591(capsys):
    code, out, _ = run(capsys, "aug", "compare", "--braid-a", N12_591[0],
                       "--braid-b", N12_591[1], *BUDGET_1E5)
    assert code == 0
    assert out.splitlines() == ["(1,1): 0 vs 1",
                                "verdict: distinct transverse knots"]


def test_verify_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--braid", "1 1 1", "--check", "mirror"])
    assert exc.value.code == 2


def test_verify_mirror(capsys):
    code, out, _ = run(capsys, "verify", "--braid", "1 1 1",
                       "--check", "mirror", "--seed", "0")
    assert code == 0
    assert out.splitlines()[-1] == "pass"


def test_verify_deterministic_output(capsys):
    argv = ("verify", "--braid", "1 1 1", "--check", "rescale",
            "--seed", "5", "--samples", "3", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


@pytest.mark.parametrize("check, grid, digest", [
    ("conjugation", "1,1;2,1;1,2;2,2",
     "b6858ad3ffeb0fdf03a201fd979536bf597f25a0ba16231b71ae7bdbedd60aed"),
    ("stab_pos", "1,1;2,1;1,2;2,2",
     "08b8c53c0a21048c21317e308b0275e2b114041331e29deed449f5a0450ec365"),
    ("stab_neg_infinity", "1,1,1,1;2,1,1,2;1,2,2,1;2,2,2,2",
     "6cfaca69015bafcda79b6d7f6353ea9c070896115c990a3422b4b6f5c4bc38fd"),
    ("mirror", "1,1;2,1;1,2;2,2",
     "1a34dada251e8647578af13835206e2f85a174d2109c89f7ddee38965b30fc64"),
    ("op_swap", "1,1,1,1;2,1,1,2;1,2,2,1;2,2,2,2",
     "f6cc7f02140096d7409f5d4281bbba54d970263d37a716e15d63bef888765196"),
    ("rescale", "1,1,1,1;2,1,1,2;1,2,2,1;2,2,2,2",
     "355688b23e5d7cf0850d4feb8546680ac9fbc5439bd58f53c597c3e98b374f3b"),
    ("doublehat_stab", "1,1;2,1;1,2;2,2",
     "44a12850a1a26d08f2a84edb9443f8a68d23b15279d59bf8be25d98949221c7f"),
    ("lam_override", "1,1;2,1;1,2;2,2",
     "0e12e3076283720ea7ab17b409202658531e14a8ae5c9b5b65fd6fe8c0df3ee8"),
])
def test_verify_json_bytes_are_pinned(capsys, check, grid, digest):
    """Each check's cases (the moves, their random draws, the grid points
    and the counts) print byte for byte as when these digests were
    taken, on the benchmark's grids."""
    code, out, _ = run(capsys, "verify", "--braid", "1 1 1 2 -1 2",
                       "--check", check, "--grid", grid, "--seed", "0",
                       "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_subset(capsys):
    code, out, _ = run(capsys, "table", "--rows", "m72,9_44", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["name"] for r in payload["rows"]] == ["m(7_2)", "9_44"]


def test_check_d2_and_lemma29(capsys):
    code, out, _ = run(capsys, "check", "d2", "--braid", "1 -2 1 -2")
    assert code == 0
    assert out.splitlines()[-1] == "pass"
    code, out, _ = run(capsys, "check", "lemma29", "--braid", "1 -2 1 -2")
    assert code == 0
    assert out.splitlines()[-1] == "pass"


def test_usage_errors_exit_2(capsys):
    for argv in (["braid"],
                 ["braid", "--braid", "1 0"],
                 ["braid", "--braid", "1 x"],
                 ["aug", "count", "--braid", "1", "--prime", "9",
                  "--lam", "1", "--mu", "1"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--budget", "-1"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--threads", "2"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--no-elim"],
                 ["aug", "poly", "--braid", "1 1 1", "--budget", "5"],
                 ["ht0", "--braid", "1 1 1", "--split", "7"],
                 ["table", "--prime", "5"],
                 ["table", "--rows", "m72,nosuchrow"],
                 ["table", "--rows", ""],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--grid", "3,1"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--grid", "1,1;3,1"],
                 ["verify", "--braid", "1 1", "--check", "mirror",
                  "--seed", "0"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--samples", "0"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--threads", "2"],
                 ["aug", "compare", "--braid-a", "1 1", "--braid-b", "1",
                  "--prime", "3"],
                 ["aug", "compare", "--braid-a", "1", "--braid-b", "1",
                  "--prime", "3", "--lam", "3"],
                 ["aug", "compare", "--braid-a", "1", "--braid-b", "1",
                  "--prime", "3", "--grid", "--lam", "1"],
                 ["aug", "compare", "--braid-a", "1", "--braid-b", "1",
                  "--prime", "3", "--grid", "--mu", "2"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--u0", "2", "--v0", "2"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--flavor", "doublehat",
                  "--v0", "1"],
                 ["check", "lemma29", "--braid", "1 -2 1 -2",
                  "--flavor", "hat"],
                 ["verify", "--braid", "1 1 1", "--check", "conjugation",
                  "--grid", "2,1,2,2", "--seed", "0"],
                 ["verify", "--braid", "1 1 1", "--check", "op_swap",
                  "--grid", "1,1,1,1;2,1,3,1", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_library_usage_error_names_the_command(capsys):
    """A ValueError from the library is reported with the usage line of
    the command that ran, as argparse's own errors for it are."""
    with pytest.raises(SystemExit) as exc:
        main(["aug", "count", "--braid", "1", "--prime", "3", "--lam", "1",
              "--mu", "1", "--budget", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: xverse aug count")
    assert "budget must be an integer >= 0, got -1" in err


@pytest.mark.parametrize("usage_error", [
    ["ht0", "--braid", "1 1 1", "--flavor", "tilde"],
    ["ht0", "--braid", "1 1 1", "--split", "7"],
])
def test_one_parser_per_process_prints_the_same_usage(capsys, usage_error):
    """The parser is built once per process; a command run in between
    leaves the usage text of an error unchanged."""
    errs = []
    for argv in (usage_error, ["ht0", "--braid", "1 1 1", "--json"],
                 usage_error):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        errs.append((code, capsys.readouterr().err))
    assert errs[0][0] == errs[2][0] == 2 and errs[1] == (0, "")
    assert errs[0] == errs[2] and errs[0][1].startswith("usage: xverse")


def test_zero_grid_point_rejected_before_counting(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("counted before the grid was checked")

    monkeypatch.setattr("xverse.verify.augmentation_number", never)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--braid", "1 1 1", "--check", "mirror", "--seed",
              "0", "--grid", "1,1;3,1"])
    assert exc.value.code == 2
    assert "lam0 and mu0 must be nonzero in the field" in \
        capsys.readouterr().err


@pytest.mark.parametrize("check, grid, message", [
    ("conjugation", "2,1,2,2", "the conjugation check fixes (U, V)"),
    ("op_swap", "1,1,1,1;2,1,3,1", "infinity flavor needs invertible u0, v0"),
])
def test_off_flavor_grid_point_rejected_before_counting(monkeypatch, capsys,
                                                        check, grid, message):
    """A hat check refuses a point that sets (U, V), and an infinity check
    a point with u0 or v0 zero in the field, before the first count."""
    def never(*args, **kwargs):
        raise AssertionError("counted before the grid was checked")

    monkeypatch.setattr("xverse.verify.augmentation_number", never)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--braid", "1 1 1", "--check", check, "--grid", grid,
              "--seed", "0"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_budget_exit_code(capsys):
    """The first count over the budget stops the check with exit 3 and
    one message."""
    code, out, err = run(capsys, "verify", "--braid", "1 1 1",
                         "--check", "conjugation", "--seed", "0",
                         "--budget", "1")
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: 3 > 1 incremental evaluations\n"


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_bad_budget_env_exit_2(monkeypatch, capsys, value):
    """A negative or non-integer XVERSE_BUDGET is a usage error, as
    --budget -1 is, not a budget that fails every count."""
    monkeypatch.setenv("XVERSE_BUDGET", value)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--rows", "m72"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"XVERSE_BUDGET must be an integer >= 0, got {value!r}" in out.err


def test_unknown_table_row_named(capsys):
    # an empty --rows names the one row ''
    for rows, name in (("m72,nosuchrow", "'nosuchrow'"), ("", "''")):
        with pytest.raises(SystemExit):
            main(["table", "--rows", rows])
        assert f"unknown table row {name}" in capsys.readouterr().err


def test_internal_errors_propagate(monkeypatch, capsys):
    """Only input errors become exit 2; a fault inside the program
    surfaces as its own exception."""
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    for name, argv in (("build_dga", ["dga", "--braid", "1 1 1"]),
                       ("ht0_relations", ["ht0", "--braid", "1 1 1"]),
                       ("augmentation_polynomial_index2",
                        ["aug", "poly", "--braid", "1 1 1"])):
        monkeypatch.setattr(f"xverse.cli.{name}", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            main(argv)
