"""One workload in one fresh process: set-up, check window, timed loop.

    python3 -I -S perfbench/child.py setup   WORKLOAD SEED
    python3 -I -S perfbench/child.py measure WORKLOAD SEED SECONDS TRACE

``perfbench/run.py`` starts this; it prints one JSON object on stdout.
``setup`` times importing ibaka, loading and validating the curve and
building the inputs.  ``measure`` does the same, then runs the check window
(the first operations of the input stream, hashed into the run digest),
then the timed closed loop, timing the reference kernel of ``reference.py``
between operations.  With TRACE=1 the check window is traced for
exact per-operation counts, and the timed phase is split into an untraced
half and a traced half for the per-layer times and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
import sys
import time
from array import array

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import workloads  # noqa: E402

SPAN_DIR = HERE / "out"
# The reference kernel runs once per REFERENCE_INTERVAL_S of the timed phase,
# between operations, and REFERENCE_SETUP_RUNS times after set-up.
REFERENCE_INTERVAL_S = 0.1
REFERENCE_SETUP_RUNS = 5


def load(name: str, seed: int, tracer=None):
    """Set up a workload; returns it and the set-up time in seconds."""
    start = time.perf_counter()
    import ibaka

    if not pathlib.Path(ibaka.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"ibaka imported from {ibaka.__file__}, not from this checkout")
    if tracer is not None:
        tracer.install("ibaka")
    workload = workloads.Workload(name, seed, ROOT)
    return workload, time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set size of this process image (VmHWM), in KiB.

    Not ru_maxrss: after exec that keeps the peak of the parent that started
    this process, which here is larger than the workload's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Loop:
    """Runs operations of the input stream and checks each one."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, i: int, digest=None) -> int:
        """Run operation i; returns its duration in ns, or -1 if it failed."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            check = self.workload.run_op(i)
            elapsed = time.perf_counter_ns() - start
            report = check()
        except Exception as exc:  # any failure of the program counts against the run
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return -1
        if digest is not None:
            digest.update(len(report).to_bytes(8, "big"))
            digest.update(report)
        return elapsed

    def check_window(self, tracer=None) -> str:
        digest = hashlib.sha256()
        for i in range(self.workload.check_ops):
            if tracer is not None:
                tracer.op = i
            self.run(i, digest)
        self.next_op = self.workload.check_ops
        return digest.hexdigest()

    def timed(self, seconds: float, tracer=None) -> dict:
        """Closed loop for `seconds`, with reference-kernel runs interleaved.

        Returns the per-op ns of the correct operations, raw and scaled by
        the kernel's local time (the median of the runs just before and
        after the op), the wall seconds spent in operations (the phase minus
        the kernel runs) and the kernel times.
        """
        latencies = array("q")
        kernel_at = array("l")
        kernel_s = []
        start = time.perf_counter()
        deadline = start + seconds
        next_kernel = start
        while (now := time.perf_counter()) < deadline:
            if now >= next_kernel:
                kernel_s.append(reference.time_kernel())
                next_kernel = time.perf_counter() + REFERENCE_INTERVAL_S
            if tracer is not None:
                tracer.op = self.next_op
            elapsed = self.run(self.next_op)
            self.next_op += 1
            if elapsed >= 0:
                latencies.append(elapsed)
                kernel_at.append(len(kernel_s) - 1)
        local = [reference.REFERENCE_S / statistics.median(kernel_s[max(0, k - 1):k + 2])
                 for k in range(len(kernel_s))]
        return {
            "latencies": latencies.tolist(),
            "norm_latencies": [lat * local[k] for lat, k in zip(latencies, kernel_at)],
            "wall_s": time.perf_counter() - start - sum(kernel_s),
            "kernel_s": kernel_s,
        }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
    workload, setup_s = load(name, seed, tracer)
    loop = Loop(workload)
    result = {
        "workload": name,
        "seed": seed,
        "curve": workload.curve_name,
        "setup_s": setup_s,
    }
    if tracer is None:
        result["setup_kernel_s"] = reference.median_kernel_s(REFERENCE_SETUP_RUNS)
        result["digest"] = loop.check_window()
        # Read after a fixed number of operations, so that it does not depend
        # on how many operations the timed phase completes.
        result["peak_rss_kb"] = peak_rss_kb()
        result.update(loop.timed(seconds))
    else:
        setup_trace = tracer.snapshot()
        tracer.reset()
        tracer.recording = True
        result["digest"] = loop.check_window(tracer)
        tracer.recording = False
        counts = tracer.snapshot()
        tracer.uninstall()
        plain = loop.timed(seconds / 2)
        tracer.install("ibaka")
        tracer.reset()
        traced = loop.timed(seconds / 2, tracer)
        tracer.uninstall()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{name}.jsonl")
        result.update(
            setup_trace=setup_trace,
            counts=counts,
            check_ops=workload.check_ops,
            times=tracer.snapshot(),
            traced_ops=len(traced["latencies"]),
            traced_op_ns=sum(traced["latencies"]),
            traced_wall_s=traced["wall_s"],
            traced_kernel_s=statistics.mean(traced["kernel_s"]),
            untraced_ops=len(plain["latencies"]),
            untraced_wall_s=plain["wall_s"],
            untraced_kernel_s=statistics.mean(plain["kernel_s"]),
        )
    result["attempted"] = loop.attempted
    result["failures"] = loop.failures
    return result


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        _, setup_s = load(name, seed)
        result = {"setup_s": setup_s,
                  "setup_kernel_s": reference.median_kernel_s(REFERENCE_SETUP_RUNS)}
    elif mode == "measure":
        result = measure(name, seed, float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
