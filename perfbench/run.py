"""The ibaka benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --stability RUNS [--workload NAME] [--seed N] [--seconds S]

Run from the root of a checkout; stdlib only.  Each workload runs in its own
fresh child process (``child.py``), one at a time, after SETUP_PROBES other
fresh processes that only time set-up.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and unit,
with sample counts.  The exit status is 1 when an operation fails or the
digest of the default seed differs from the one recorded in
``digests.json``, and 2 when the benchmark cannot run at all.

``--stability`` runs a workload (all of them when no ``--workload`` is
given) RUNS times with seeds N, N+1, ... and prints the median and the
quartile spread of each end-to-end metric, as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from workloads import CHECK_OPS, CURVE_FILE, NAMES  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
# Fresh processes that only time set-up, half before and half after the
# measuring process, so they sample the machine at two times; setup_s is the
# median of these and the measuring process's own set-up.  One more probe
# runs first, untimed, so a cold bytecode cache is not counted.
SETUP_PROBES = 8
# Every invocation ends within this many seconds, whatever the children do.
DEADLINE_S = 170
# End-to-end metrics of an untraced run, with their units.  The time metrics
# are normalized to the reference kernel's speed (see reference.py).
END_TO_END = {
    "throughput_norm_ops_s": "ops/s",
    "latency_p50_norm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# p90 is printed only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100

# Digest of the check window's report bytes for DEFAULT_SEED, recorded from
# the program as it was when the benchmark was defined.
DIGESTS = json.loads((HERE / "digests.json").read_text())


def environment() -> str:
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"loadavg_at_start={load}")


def _child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, "-I", "-S", str(HERE / "child.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def end_to_end(child: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    """The bounded end-to-end metrics, and lines that also show the raw figures.

    Time metrics are scaled to the speed at which the reference kernel takes
    REFERENCE_S: throughput by the mean kernel time of the timed phase, each
    latency by the kernel's time around that operation, and each set-up time
    by the median kernel time of its own process.
    """
    latencies = sorted(child["latencies"])
    if not latencies:
        raise RuntimeError("no operation completed in the timed phase")
    n, kernel = len(latencies), child["kernel_s"]
    throughput = n / child["wall_s"]
    p50_ms = percentile(latencies, 0.5) / 1e6
    setup_s = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        "throughput_norm_ops_s": throughput * statistics.mean(kernel) / REFERENCE_S,
        "latency_p50_norm_ms": percentile(sorted(child["norm_latencies"]), 0.5) / 1e6,
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_S / s["setup_kernel_s"] for s in setups),
        "peak_rss_mb": child["peak_rss_kb"] / 1024,
    }
    notes = {
        "throughput_norm_ops_s": f"raw throughput_ops_s={throughput:.6g}: {n} ops "
                                 f"in {child['wall_s']:.3f} s, curve={child['curve']}",
        "latency_p50_norm_ms": f"raw latency_p50_ms={p50_ms:.6g}, samples={n}",
        "setup_s": f"raw median {setup_s:.6g} s, median of {len(setups)} fresh processes",
        "peak_rss_mb": "VmHWM of the measuring process after the check window",
    }
    lines = [f"{name} {metrics[name]:.6g} {unit} ({notes[name]})"
             for name, unit in END_TO_END.items()]
    if n >= P90_MIN_SAMPLES:
        lines.append(f"latency_p90_ms {percentile(latencies, 0.9) / 1e6:.6g} ms "
                     f"(raw, samples={n})")
    else:
        lines.append(f"latency_p90_ms not reported: {n} samples, fewer than {P90_MIN_SAMPLES}")
    lines.append(f"reference kernel mean {statistics.mean(kernel) * 1e3:.4g} ms, median "
                 f"{statistics.median(kernel) * 1e3:.4g} ms over {len(kernel)} runs "
                 f"(scale {REFERENCE_S * 1e3:g} ms)")
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, lines


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines to print."""
    deadline = time.monotonic() + DEADLINE_S
    lines = [f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)} {environment()}"]
    setups = []

    def probe(count):
        for _ in range(count):
            setups.append(_child(["setup", workload, str(seed)], deadline))

    if not trace:
        _child(["setup", workload, str(seed)], deadline)
        probe(SETUP_PROBES // 2)
    child = _child(["measure", workload, str(seed), repr(seconds), str(int(trace))], deadline)
    if not trace:
        probe(SETUP_PROBES - SETUP_PROBES // 2)
        setups.append(child)
    failures = child["failures"]
    attempted = child["attempted"]
    digest_ok = seed != DEFAULT_SEED or child["digest"] == DIGESTS[workload]
    lines.append(
        f"digest {child['digest']} over the first {CHECK_OPS[workload]} ops"
        + ("" if seed != DEFAULT_SEED else
           f" ({'matches' if digest_ok else 'DIFFERS FROM'} the recorded {DIGESTS[workload]})")
    )
    lines += [f"FAILED {failure}" for failure in failures[:10]]
    lines.append(f"ops_failed_ratio {len(failures) / attempted:.6f} "
                 f"(failed={len(failures)} attempted={attempted})")
    if trace:
        metrics = layers.per_layer(child)
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics, metric_lines = end_to_end(child, setups)
        lines += metric_lines
    result = {
        "correct": not failures and digest_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def stability(names, seed: int, runs: int, seconds: float) -> bool:
    """Run each workload `runs` times on successive seeds; print the spreads."""
    print(f"# stability runs={runs} seconds={seconds:g} {environment()}", flush=True)
    all_correct = True
    for workload in names:
        values: dict[str, list[float]] = {}
        for k in range(runs):
            result, _ = run_once(workload, seed + k, seconds, trace=False)
            all_correct &= result["correct"]
            print(f"{workload} seed={seed + k} correct={result['correct']} " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {name} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={(q3 - q1) / median:.4f}", flush=True)
    return all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", type=int, metavar="RUNS")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    missing = [p for p in ("src/ibaka/__init__.py", str(CURVE_FILE)) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of ibaka, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if args.stability is not None:
            if args.stability < 4:
                parser.error("--stability needs at least 4 runs for quartiles")
            names = [args.workload] if args.workload else list(NAMES)
            return 0 if stability(names, args.seed, args.stability, args.seconds) else 1
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
