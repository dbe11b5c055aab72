"""The CLI contract of `xverse.cli` as a property: argv drawn for every
subcommand from a small grammar of good and bad tokens exits 0, 2 or 3 and
nothing else, reports a usage error with the usage block of the command
that ran and one error line, reports a budget overrun in one line, prints
`"schema": 1` under `--json`, and prints the same bytes when run again."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xverse.cli import main

# short braids, knots first: a 3-strand word, the empty word, letter 0, a link
_BRAIDS = ["1 1 1", "-1", "1 -2 1 -2", "1 2", "", "0", "1 -1"]


def _opt(flag, values):
    """The tokens of an optional flag: absent, or the flag and a value."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _req(flag, values):
    """The tokens of a flag that the command needs: the flag and a value."""
    return st.sampled_from(values).map(lambda v: [flag, v])


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _braid_args():
    """--braid and --strands, or (a usage error) no --braid at all."""
    return st.tuples(st.one_of(_req("--braid", _BRAIDS), st.just([])),
                     _opt("--strands", ["1", "3"])).map(lambda t: t[0] + t[1])


# each list starts with good values, as hypothesis favours the first
_FLAVOR = _opt("--flavor", ["minus", "hat", "doublehat", "infinity", "sharp"])
_BUDGET = _opt("--budget", ["10", "0", "-1"])
_SPLIT = _opt("--split", ["1", "0", "-1", "99"])
_PRIME = _req("--prime", ["3", "2", "4", "11"])
_SCALAR = ["1", "2", "0"]


def _command(path, *parts):
    """argv of one subcommand: its path, then its option groups."""
    return st.tuples(*parts).map(lambda groups: (path, list(path) + sum(groups, [])))


_ARGV = st.one_of(
    _command(("braid",), _braid_args(), _switch("--json")),
    _command(("dga",), _braid_args(), _FLAVOR, _switch("--json")),
    _command(("ht0",), _braid_args(), _FLAVOR, _SPLIT, _switch("--reduced"),
             _switch("--json")),
    _command(("aug", "count"), _braid_args(), _FLAVOR, _PRIME,
             _req("--lam", _SCALAR), _req("--mu", _SCALAR),
             _opt("--u0", _SCALAR), _opt("--v0", _SCALAR), _SPLIT, _BUDGET,
             _switch("--json")),
    _command(("aug", "poly"), _braid_args(), _switch("--json")),
    _command(("aug", "compare"), _req("--braid-a", _BRAIDS),
             _req("--braid-b", ["1 1 1", "-1", "1 -1"]), _PRIME,
             _opt("--lam", _SCALAR), _opt("--mu", _SCALAR), _BUDGET,
             _switch("--json")),
    _command(("verify",), _braid_args(),
             _req("--check", ["mirror", "op_swap", "conjugation", "lam_override",
                              "nope"]), _PRIME, _opt("--samples", ["0", "1"]),
             _req("--seed", ["0", "1"]),
             _opt("--grid", ["2,1", "2,1,1,1", "1,1,0,1", ";", "1"]), _BUDGET,
             _switch("--json")),
    _command(("table",), _req("--rows", ["m72", "", "nope"]), _BUDGET,
             _switch("--json")),
    _command(("check",), st.sampled_from([["d2"], ["lemma29"], ["d3"], []]),
             _braid_args(), _FLAVOR, _switch("--json")),
)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call of `main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _case(*argv):
    """An explicit example of `_ARGV`: (command path, argv)."""
    path = argv[:2] if argv[0] == "aug" else argv[:1]
    return example(drawn=(path, list(argv)))


_COUNT = ("aug", "count", "--braid", "1 1 1", "--prime", "3", "--lam", "1", "--mu", "2")
_VERIFY = ("verify", "--braid", "1 1 1", "--seed", "0")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drawn=_ARGV)
@_case(*_COUNT, "--json")
@_case(*_COUNT, "--budget", "0")
@_case(*_COUNT, "--budget", "10")
@_case(*_COUNT, "--budget", "-1")
@_case(*_COUNT, "--split", "-1")
@_case(*_COUNT, "--split", "99")
@_case("aug", "count", "--braid", "1 -1", "--prime", "11", "--lam", "1", "--mu", "1")
@_case("aug", "poly", "--braid", "1 2", "--json")
@_case("dga", "--braid", "", "--strands", "1", "--json")
@_case("braid", "--braid", "0")
@_case(*_VERIFY, "--check", "conjugation", "--samples", "0")
@_case(*_VERIFY, "--check", "conjugation", "--grid", ";")
@_case(*_VERIFY, "--check", "op_swap", "--grid", "1,1,0,1")
@_case(*_VERIFY, "--check", "op_swap", "--grid", "2,1,1,1", "--json")
@_case(*_VERIFY, "--check", "mirror", "--prime", "4")
@_case("table", "--rows", "m72", "--budget", "10", "--json")
@_case("check", "lemma29", "--braid", "1 -2 1 -2", "--json")
def test_cli_contract(drawn):
    path, argv = drawn
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    lines = err.splitlines()
    if code == 2:
        assert err.startswith("usage: xverse " + " ".join(path)), (argv, err)
        errors = [line for line in lines if line.startswith("xverse ")
                  and ": error: " in line]
        assert errors == lines[-1:], (argv, err)
    elif code == 3:
        assert len(lines) == 1 and "budget exceeded" in lines[0], (argv, err)
    elif "--json" in argv:
        assert json.loads(out)["schema"] == 1, (argv, out)
    assert _run(argv) == (code, out, err), argv
