"""The xverse benchmark.

    python3 perfbench/run.py [--workload table|checks|poly|identity|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree that holds ``src/xverse``.  Each pass of
a workload runs in a fresh interpreter (worker.py), which models one CLI
session: it pays the set-up, then runs the workload's fixed op list once on
the default settings.  Passes repeat until ``--seconds`` would be exceeded
(at least one).  Every op's output is checked against a pinned value; on
any mismatch the run reports no metrics and exits 1.

``--trace 0`` prints the end-to-end metrics: median pass wall time, the
median and p75 op latency over all ops of the run, the median set-up time
of at least seven fresh interpreters, and the median peak RSS of a pass.
``--trace 1`` alternates untraced and traced passes (one untraced and two
traced at least), prints the per-layer self times and exact counts of the
traced passes, and fails if a count differs between two traced passes.

Times are reported in seconds at reference speed: each measured interval
times the speed factor worker.py samples during it.  The measured times
are printed beside them and kept in the run record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run,
spans included, is written to ``.perfbench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNT_METRICS, TIME_METRICS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
TAIL_PERCENTILE = 75
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _schedule(trace: bool):
    if not trace:
        return itertools.repeat(False), 1
    return itertools.chain((False, True, True),
                           itertools.cycle((False, True))), 3


def _passes(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> list[dict]:
    """Run passes until the next one would end after ``seconds``."""
    schedule, minimum = _schedule(trace)
    start = time.monotonic()
    longest = 0.0
    passes = []
    for traced in schedule:
        elapsed = time.monotonic() - start
        if len(passes) >= minimum and elapsed + longest > seconds:
            break
        t = time.monotonic()
        args = ["--workload", workload, "--seed", str(seed)]
        result = _worker(args + ["--trace"] * traced, deadline)
        result["traced"] = traced
        passes.append(result)
        longest = max(longest, time.monotonic() - t)
    return passes


def _tail(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    xs = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank


def _scaled(p: dict) -> list[float]:
    """A pass's op latencies at reference speed."""
    return [t * f for t, f in zip(p["latencies_s"], p["speed"])]


def _end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, str]:
    lat = [x for p in passes for x in _scaled(p)]
    tail, beyond = _tail(lat)
    med = statistics.median
    metrics = {
        "wall_s": (med(sum(_scaled(p)) for p in passes), "s"),
        "op_p50_ms": (med(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (med(s["setup_s"] * s["setup_speed"] for s in setups),
                    "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }
    note = (f"times at reference speed; measured wall_s "
            f"{med(sum(p['latencies_s']) for p in passes):.4f} s, setup_s "
            f"{med(s['setup_s'] for s in setups):.4f} s, median speed factor "
            f"{med(f for p in passes for f in p['speed']):.3f}; "
            f"op_tail_ms is p{TAIL_PERCENTILE} of n={len(lat)} ops, "
            f"{beyond} beyond it; setup_s is the median of {len(setups)}")
    return metrics, note


def _per_layer(passes: list[dict]) -> tuple[dict, str]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            raise BenchError(f"exact counts differ between passes: "
                             f"{counts} vs {p['counts']}")
    selfs = [self_times(p["spans"], p["speed"]) for p in traced]
    metrics = {}
    for name, layer in TIME_METRICS.items():
        metrics[name] = (statistics.median(s.get(layer, 0.0) for s in selfs),
                         "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    calls = counts["verify.count_calls"]
    metrics["verify.useful_ratio"] = (
        counts["verify.distinct_counts"] / calls if calls else 0.0, "ratio")
    traced_wall = statistics.median(sum(_scaled(p)) for p in traced)
    metrics["trace.overhead_frac"] = (
        traced_wall / statistics.median(sum(_scaled(p)) for p in plain) - 1,
        "frac")
    metrics["trace.attributed_frac"] = (statistics.median(
        sum(s.values()) / sum(_scaled(p)) for s, p in zip(selfs, traced)),
        "frac")
    note = (f"{len(traced)} traced and {len(plain)} untraced passes; "
            f"traced wall_s {traced_wall:.4f} s; "
            f"verify.useful_ratio = {counts['verify.distinct_counts']}"
            f" / {calls} calls")
    return metrics, note


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    passes = _passes(workload, seed, seconds, trace, deadline)
    mismatches = [m for p in passes for m in p["mismatches"]]
    setups = list(passes)
    while not (trace or mismatches) and len(setups) < SETUP_SAMPLES:
        setups.append(_worker(["--workload", workload, "--seed", str(seed),
                               "--setup-only"], deadline))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics, note = (None, "") if mismatches else (
        _per_layer(passes) if trace else _end_to_end(passes, setups))
    env = {"workload": workload, "seed": seed, "trace": int(trace),
           "passes": len(passes), "nproc": len(os.sched_getaffinity(0)),
           **passes[0]["env"], "git_commit": _git_commit(),
           "src_sha256": _src_digest()}
    return {"workload": workload, "correct": not mismatches,
            "mismatches": mismatches, "attempted": attempted,
            "failed": failed, "metrics": metrics, "note": note, "env": env,
            "setups": setups[len(passes):], "passes": passes}


def _report(rec: dict) -> None:
    print(f"workload {rec['workload']}: {rec['env']['passes']} passes, "
          f"{rec['attempted']} ops, {rec['failed']} failed "
          f"(fail_frac {rec['failed'] / rec['attempted']:.4f})")
    for m in rec["mismatches"]:
        print(f"  MISMATCH {m}")
    for name, (value, unit) in (rec["metrics"] or {}).items():
        print(f"  {name:24s} {value:.6g} {unit}")
    if rec["note"]:
        print(f"  ({rec['note']})")
    print(f"  env {json.dumps(rec['env'])}")


def _save(rec: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / (f"{rec['workload']}-seed{rec['env']['seed']}"
                  f"-trace{rec['env']['trace']}.json")
    path.write_text(json.dumps(rec))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xverse" / "cli.py").is_file():
        print(f"error: no xverse source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for w in names:
            rec = run_workload(w, args.seed, args.seconds, bool(args.trace),
                               time.monotonic() + HARD_LIMIT_S)
            _report(rec)
            _save(rec)
            records.append(rec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in records)
    metrics = {}
    if correct:
        for r in records:
            prefix = "" if len(names) == 1 else f"{r['workload']}:"
            for name, (value, unit) in r["metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
