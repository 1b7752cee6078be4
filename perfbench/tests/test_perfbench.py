"""Checks on the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_op(name, index):
    """Calls and events of operation `index` of a workload, default seed."""
    workload = workloads.Workload(name, run.DEFAULT_SEED, ROOT)
    tracer = Tracer()
    tracer.install("ibaka")
    try:
        workload.run_op(index)()
    finally:
        tracer.uninstall()
    return tracer.calls, tracer.events


def test_one_honest_exchange_counts():
    calls, events = traced_op("exchange-secp256k1", 0)
    assert calls["group.Curve.mul"] == 15
    assert (events["ibs.h1"], events["ibs.h2"], events["ibs.h3"]) == (4, 4, 2)
    assert calls["ibs.verify_signature"] == 2
    assert events["ibs.verify_signature.accepted"] == 2


def test_fixed_unmodified_replay_never_verifies_a_signature():
    assert workloads.ATTACK_ROWS[2][:3] == ("replay", "FIXED", False)
    calls, events = traced_op("attack-secp256k1", 2)
    assert calls["ibs.verify_signature"] == 0
    assert events["protocol.verify_message.raised.StaleTimestamp"] == 1


def test_fixed_rewrite_replay_never_derives_a_key():
    assert workloads.ATTACK_ROWS[1][:3] == ("replay", "FIXED", True)
    calls, events = traced_op("attack-secp256k1", 1)
    assert calls["protocol.derive_session_key"] == 0
    assert calls["ibs.verify_signature"] == 1
    assert events["protocol.verify_message.raised.BadSignature"] == 1


def test_uninstall_restores_the_program():
    import ibaka
    from ibaka import cli, group, protocol

    before = (group.mod_inverse, group.Curve.__dict__["add"], protocol.verify_signature,
              cli.decode_message, ibaka.run_honest_exchange,
              ibaka.sim.Adversary.__dict__["rewrite_timestamp"])
    tracer = Tracer()
    tracer.install("ibaka")
    assert protocol.verify_signature is not before[2]
    tracer.uninstall()
    after = (group.mod_inverse, group.Curve.__dict__["add"], protocol.verify_signature,
             cli.decode_message, ibaka.run_honest_exchange,
             ibaka.sim.Adversary.__dict__["rewrite_timestamp"])
    assert after == before


def _child(*args):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", str(BENCH / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    first = _child("measure", "exchange-toy", str(run.DEFAULT_SEED), "0.2", "1")
    second = _child("measure", "exchange-toy", str(run.DEFAULT_SEED), "0.2", "1")
    assert first["failures"] == second["failures"] == []
    assert first["counts"]["calls"] == second["counts"]["calls"]
    assert first["counts"]["events"] == second["counts"]["events"]
    assert first["digest"] == second["digest"] == run.DIGESTS["exchange-toy"]
    for name, (value, _) in layers.per_layer(first).items():
        if layers.METRICS[name][0] in ("calls/op", "events/op", "bytes/op"):
            assert value == layers.per_layer(second)[name][0], name


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_digest_matches_the_recorded_one(name):
    result = _child("measure", name, str(run.DEFAULT_SEED), "0.01", "0")
    assert result["failures"] == []
    assert result["digest"] == run.DIGESTS[name]


def test_benchmark_json_names_what_the_benchmark_reports():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: (unit, better) for name, (unit, better, _) in layers.METRICS.items()}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange-toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
