"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

Times the set-up a CLI user pays on every invocation (``import
xverse.cli``, one count, one unknot polynomial), then runs the workload's
op list once, with the span recorder installed when ``--trace`` is given.
Prints one JSON object on stdout; the ops' own output is captured and
checked against the pinned values.

On a shared host the speed of the machine drifts by a fifth or more over
tens of seconds.  A speed sampler therefore times a small fixed kernel
every 50 ms throughout, and every timed interval (the set-up, each op)
gets a speed factor: the kernel's reference time over its mean time
during the interval.  Multiplied by the factor, a time reads in seconds
at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_REF_S = 0.0008  # speed_probe on the reference machine (x86-64, 3.11)
PROBE_PERIOD_S = 0.02
MIN_SAMPLES = 5


def speed_probe() -> float:
    """Time a fixed kernel of dict and small-integer arithmetic, the
    operations that dominate xverse's own code."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(4_000):
        d[i & 1023] = d.get(i & 1023, 0) + i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Runs speed_probe from a SIGALRM handler every PROBE_PERIOD_S of
    wall time while the block is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), speed_probe()))

    def factor(self, start: float, end: float) -> float:
        """Reference over mean probe time in [start, end], or over the
        MIN_SAMPLES samples nearest to it when it holds fewer."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            near = sorted(self.samples,
                          key=lambda s: max(start - s[0], s[0] - end))
            inside = [d for _, d in near[:MIN_SAMPLES]]
        return PROBE_REF_S * len(inside) / sum(inside)


def _setup() -> None:
    sys.path.insert(0, str(SRC))
    import xverse.cli
    from xverse.augment import (augmentation_number,
                                augmentation_polynomial_index2)
    from xverse.braid import parse_braid
    augmentation_number(parse_braid("1 1 1"), "hat", 3, 1, 1)
    augmentation_polynomial_index2(parse_braid("1"))
    used = Path(xverse.cli.__file__).resolve()
    if not used.is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported xverse from {used}, not from {SRC}")


def _openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _env() -> dict:
    import platform
    import numpy
    import sympy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "openblas_threads": _openblas_threads()}


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run the op list once and check it.  Returns the op intervals,
    failures and mismatches, and the spans and counts when traced."""
    from spans import Recorder
    from workloads import FAILED, OK, ops, verdict
    op_list = ops(workload, seed)
    rec = Recorder() if trace else None
    intervals, outputs = [], []
    with rec.installed() if trace else contextlib.nullcontext():
        for i, op in enumerate(op_list):
            if rec is not None:
                rec.op = i
            start = time.perf_counter()
            try:
                out = op.call()
            except (Exception, SystemExit) as e:  # counted as failed
                out = e
            intervals.append((start, time.perf_counter()))
            outputs.append(out)
    failed, mismatches = 0, []
    for op, out in zip(op_list, outputs):
        if isinstance(out, BaseException):
            failed += 1
            print(f"op {op.name} raised {type(out).__name__}: {out}",
                  file=sys.stderr)
            continue
        try:
            v = verdict(workload, op, out)
        except (KeyError, ValueError, TypeError) as e:
            v = f"unreadable output: {type(e).__name__}: {e}"
        if v == FAILED:
            failed += 1
        elif v != OK:
            mismatches.append(f"{workload} op {op.name}: {v}")
    result = {"intervals": intervals, "attempted": len(op_list),
              "failed": failed, "mismatches": mismatches}
    if rec is not None:
        result["spans"] = rec.spans
        result["counts"] = rec.exact_counts()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        _setup()
        end = time.perf_counter()
        result = {"setup_s": end - start,
                  "setup_speed": sampler.factor(start, end)}
        if not args.setup_only:
            result.update(run_pass(args.workload, args.seed, args.trace))
    if not args.setup_only:
        intervals = result.pop("intervals")
        result["latencies_s"] = [b - a for a, b in intervals]
        result["speed"] = [sampler.factor(a, b) for a, b in intervals]
        # read before _env, which imports numpy even where no op does
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["env"] = _env()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
