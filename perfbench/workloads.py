"""The four benchmark workloads: fixed op lists and the correctness gate.

One op is one call into xverse.  CLI ops call ``xverse.cli.main`` in
process with stdout captured; identity ops call the sampled checkers of
``xverse.dga`` directly.  Every op has a pinned expectation, and
``verdict`` compares an op's output with it.

The module imports xverse only inside the op callables, so the parent
process (run.py) can use the op lists without loading the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("table", "checks", "poly", "identity")


# the five sample braids of the criterion-7 property suite
CHECK_BRAIDS = ("1 1 1", "1 -2 1 -2", "-1 -1 -1", "1 1 1 2 -1 2",
                "-2 1 -2 1 1 1")
CHECKS = ("conjugation", "stab_pos", "stab_neg_infinity", "mirror",
          "op_swap", "rescale", "doublehat_stab", "lam_override")
INFINITY_CHECKS = ("stab_neg_infinity", "op_swap", "rescale")
GRID = "1,1;2,1;1,2;2,2"
GRID4 = "1,1,1,1;2,1,1,2;1,2,2,1;2,2,2,2"

# T(2,7) (35 s per op) is left out for run length; it takes T(2,5)'s path
POLY_BRAIDS = ("1", "-1", "1 1 1", "-1 -1 -1", "1 1 1 1 1",
               "-1 -1 -1 -1 -1")

# graded by DGA size, from 274 to 35k differential terms.  A fixed list,
# because random B4 draws are heavy-tailed (seed 0 draws a 289k-term
# braid within 7 picks).  The 61k-term "3 2 3 -1 2 -1 -3" (half of a
# pass on its own) and the 128k-term criterion-7 braid take the same dim^3
# path as the last two entries; they are left out so that a run holds at
# least two passes
IDENTITY_BRAIDS = ("1 -2 1 -2", "-2 -2 1 2 3 -2 -2", "-1 -1 -1 3 -2 1 1",
                   "3 2 -1 1 2 -1 2", "-1 3 2 -1 -2 3 3")

OK = "ok"
FAILED = "failed"  # the op raised or hit the budget; not a wrong answer


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    expect: Any


def _cli(argv: list[str]):
    import xverse.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = xverse.cli.main(argv)
    return rc, buf.getvalue()


def _identity(word: str, seed: int):
    from xverse import dga
    from xverse.braid import parse_braid
    b = parse_braid(word)
    phi_fail = dga.verify_phi_factorization_sampled(b, seed=seed)
    d2_fail = dga.verify_d_squared_sampled(dga.build_dga(b, "minus"),
                                           seed=seed)
    return list(phi_fail), [str(g) for g in d2_fail]


def load_expected() -> dict:
    return json.loads((Path(__file__).parent / "expected.json").read_text())


def ops(workload: str, seed: int, expected: dict | None = None) -> list[Op]:
    """The op list of one pass.

    The workload seed orders the table and checks ops and seeds the
    identity samples; none of these changes the work done.  The verify
    seeds are fixed at the op index, as in the criterion-7 suite, because
    the random Markov moves they draw change the work of a pass (1.24M to
    1.62M evaluations over six seeds).  poly keeps its listed order: its
    ops share sympy's process-wide cache, so order could change their
    cost."""
    expected = expected or load_expected()
    rng = random.Random(seed)
    if workload == "table":
        out = [Op(row, lambda row=row: _cli(["table", "--rows", row, "--json"]),
                  counts)
               for row, counts in expected["table"].items()]
        rng.shuffle(out)
        return out
    if workload == "checks":
        out = []
        for b in CHECK_BRAIDS:
            for check in CHECKS:
                grid = GRID4 if check in INFINITY_CHECKS else GRID
                argv = ["verify", f"--braid={b}", "--check", check,
                        f"--grid={grid}", "--samples", "5",
                        "--seed", str(len(out)), "--json"]
                out.append(Op(f"{check}[{b}]",
                              lambda argv=argv: _cli(argv), True))
        rng.shuffle(out)
        return out
    if workload == "poly":
        return [Op(w, lambda w=w: _cli(["aug", "poly", f"--braid={w}", "--json"]),
                   expected["poly"][w])
                for w in POLY_BRAIDS]
    if workload == "identity":
        return [Op(w, lambda w=w, s=seed + i: _identity(w, s), ([], []))
                for i, w in enumerate(IDENTITY_BRAIDS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def verdict(workload: str, op: Op, out) -> str:
    """OK, FAILED, or a one-line description of the mismatch."""
    if workload == "identity":
        return OK if tuple(out) == op.expect else f"identity failures {out}"
    rc, text = out
    if rc == 3:  # budget exceeded
        return FAILED
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(text)
    if workload == "table":
        (row,) = payload["rows"]
        if row["errors"]:
            return FAILED
        got = row["computed"]
    elif workload == "checks":
        got = payload["passed"]
    else:
        got = payload["poly"]
    return OK if got == op.expect else f"expected {op.expect!r}, got {got!r}"
