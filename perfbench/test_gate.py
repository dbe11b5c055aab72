"""Tests of the benchmark itself: the correctness gate, the span recorder
and the metric arithmetic.

    python3 -m pytest perfbench/test_gate.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from spans import WRAPS, Recorder, self_times  # noqa: E402
from workloads import OK, load_expected, ops, verdict  # noqa: E402

EXPECTED = load_expected()


def _op(workload, name, expected=EXPECTED, seed=0):
    (op,) = [o for o in ops(workload, seed, expected) if o.name == name]
    return op


def test_pinned_outputs_pass_the_gate():
    for workload, name in (("table", "9_44"), ("poly", "1 1 1"),
                           ("checks", "mirror[1 1 1]"),
                           ("identity", "1 -2 1 -2")):
        op = _op(workload, name)
        assert verdict(workload, op, op.call()) == OK, (workload, name)


@pytest.mark.parametrize("workload,name,corrupt", [
    ("table", "9_44", lambda e: e["table"]["9_44"].__setitem__(0, 4)),
    ("poly", "-1 -1 -1",
     lambda e: e["poly"].__setitem__("-1 -1 -1", "L*m + L - m*U - 1")),
])
def test_corrupted_expectation_trips_the_gate(workload, name, corrupt):
    bad = copy.deepcopy(EXPECTED)
    corrupt(bad)
    op = _op(workload, name, bad)
    assert verdict(workload, op, op.call()) != OK


def test_wrong_check_and_identity_outputs_trip_the_gate():
    op = _op("checks", "mirror[1 1 1]")
    rc, text = op.call()
    payload = json.loads(text)
    payload["passed"] = False
    assert verdict("checks", op, (rc, json.dumps(payload))) != OK
    op = _op("identity", "1 -2 1 -2")
    assert verdict("identity", op, ([], ["c12"])) != OK


def test_mismatch_exits_nonzero_without_metrics(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(
        "__pycache__", "test_*.py"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = json.loads((bench / "expected.json").read_text())
    expected["poly"]["1 1 1"] = expected["poly"]["-1 -1 -1"]
    (bench / "expected.json").write_text(json.dumps(expected))
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "poly", "--seconds", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False and last["metrics"] == {}
    assert "MISMATCH poly op 1 1 1" in proc.stdout


def test_without_source_tree_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "table", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_restores_every_name():
    import importlib
    before = [getattr(importlib.import_module(m), n) for m, n, _, _ in WRAPS]
    with Recorder().installed():
        during = [getattr(importlib.import_module(m), n)
                  for m, n, _, _ in WRAPS]
    after = [getattr(importlib.import_module(m), n) for m, n, _, _ in WRAPS]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_traced_pass_counts_repeat_and_self_times_add_up():
    first = worker.run_pass("poly", 0, trace=True)
    second = worker.run_pass("poly", 0, trace=True)
    assert first["mismatches"] == [] and first["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["counts"]["augment.resultants"] > 0
    assert first["counts"]["ht0.terms"] > 0
    layers = self_times(first["spans"])
    assert set(layers) == {"cli", "augment.poly", "augment.resultant", "ht0"}
    ops_s = sum(b - a for a, b in first["intervals"])
    assert sum(layers.values()) == pytest.approx(ops_s, rel=0.02)


def test_self_time_subtracts_direct_children_only():
    spans = [["cli", 0.0, 10.0, -1, 0],
             ["verify", 1.0, 9.0, 0, 0],
             ["augment.solve", 2.0, 5.0, 1, 0],
             ["augment.build", 2.5, 4.0, 2, 0],
             ["augment.solve", 6.0, 7.0, 1, 0]]
    assert self_times(spans) == {"cli": 2.0, "verify": 4.0,
                                 "augment.solve": 2.5, "augment.build": 1.5}


def test_speed_factor_uses_samples_inside_or_nearest():
    sampler = worker.SpeedSampler()
    ref = worker.PROBE_REF_S
    sampler.samples = [(i * 0.02, ref if i < 50 else 2 * ref)
                       for i in range(100)]
    assert sampler.factor(0.1, 0.5) == pytest.approx(1.0)
    assert sampler.factor(1.5, 1.9) == pytest.approx(0.5)
    # shorter than MIN_SAMPLES periods: the nearest samples stand in
    assert sampler.factor(0.101, 0.102) == pytest.approx(1.0)


def test_tail_has_ten_ops_beyond_on_forty():
    value, beyond = run._tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
