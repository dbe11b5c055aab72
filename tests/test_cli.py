import json

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
                         "--lam", "2", "--mu", "1", "--no-elim",
                         "--budget", "50")
    assert code == 3
    assert err.count("budget exceeded") == 1
    assert out == ""


def test_aug_poly_trefoil(capsys):
    code, out, _ = run(capsys, "aug", "poly", "--braid", "1 1 1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == TREFOIL_POLY
    assert lines[1] == "note: repeated factors are not removed"


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
                 ["aug", "count", "--braid", "1", "--prime", "9",
                  "--lam", "1", "--mu", "1"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--budget", "-1"],
                 ["aug", "count", "--braid", "1", "--prime", "3",
                  "--lam", "1", "--mu", "1", "--threads", "0"],
                 ["ht0", "--braid", "1 1 1", "--split", "7"],
                 ["table", "--prime", "5"],
                 ["table", "--rows", "m72,nosuchrow"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--grid", "3,1"],
                 ["verify", "--braid", "1 1", "--check", "mirror",
                  "--seed", "0"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--samples", "0"],
                 ["verify", "--braid", "1 1 1", "--check", "mirror",
                  "--seed", "0", "--threads", "0"],
                 ["aug", "compare", "--braid-a", "1 1", "--braid-b", "1",
                  "--prime", "3"],
                 ["aug", "compare", "--braid-a", "1", "--braid-b", "1",
                  "--prime", "3", "--lam", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_unknown_table_row_named(capsys):
    with pytest.raises(SystemExit):
        main(["table", "--rows", "m72,nosuchrow"])
    assert "'nosuchrow'" in capsys.readouterr().err


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
