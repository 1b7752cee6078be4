"""Per-layer metrics from a traced run.

Counts come from the check window, a fixed set of operations, so they are
exact and repeat bit-for-bit for a given seed.  Times come from the traced
half of the timed phase.  Both are per operation.  A ``self_ms`` metric is
span time minus the time of child spans; a plain ``ms`` metric includes the
children.  Span names are ``module.function`` or ``module.Class.method``.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

SCRIPT_SPANS = (
    "sim.run_*", "sim.Party.*", "sim.Transcript.record", "sim.LogicalClock.*",
    "sim.tamper_field",
)
REPORT_SPANS = (
    "sim.ExchangeResult.*", "sim.AttackReport.*", "sim.Transcript.to_dicts",
    "sim.TranscriptEvent.*",
)


def _sum(table: dict, patterns) -> float:
    return sum(v for k, v in table.items() if any(fnmatchcase(k, p) for p in patterns))


def calls(*patterns, unit="calls/op"):
    return unit, "lower", lambda r: _sum(r["counts"]["calls"], patterns) / r["check_ops"]


def events(event, unit="events/op"):
    return unit, "lower", lambda r: r["counts"]["events"].get(event, 0) / r["check_ops"]


def self_ms(*patterns):
    return "ms/op", "lower", lambda r: _sum(r["times"]["self_ns"], patterns) / 1e6 / r["traced_ops"]


def total_ms(*patterns):
    return "ms/op", "lower", lambda r: _sum(r["times"]["total_ns"], patterns) / 1e6 / r["traced_ops"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scalar_accept(r):
    c = r["counts"]["calls"]
    return _ratio(c.get("rand.DeterministicRandom.scalar", 0),
                  c.get("rand.DeterministicRandom.random_bytes", 0))


def _verify_accept(r):
    return _ratio(r["counts"]["events"].get("ibs.verify_signature.accepted", 0),
                  r["counts"]["calls"].get("ibs.verify_signature", 0))


def _validate_ms(r):
    return _sum(r["setup_trace"]["total_ns"], ("group.validate_params",)) / 1e6


def _overhead(r):
    """Traced over untraced throughput, each scaled by its reference-kernel time."""
    traced = r["traced_ops"] / r["traced_wall_s"] * r["traced_kernel_s"]
    untraced = r["untraced_ops"] / r["untraced_wall_s"] * r["untraced_kernel_s"]
    return _ratio(traced, untraced)


def _coverage(r):
    return _ratio(r["times"]["root_ns"], r["traced_op_ns"])


# name -> (unit, better, value from the child's traced result)
METRICS = {
    "group.mod_inverse.calls": calls("group.mod_inverse"),
    "group.mod_inverse.self_ms": self_ms("group.mod_inverse"),
    "group.add.calls": calls("group.Curve.add"),
    "group.add.self_ms": self_ms("group.Curve.add"),
    "group.mul.calls": calls("group.Curve.mul"),
    "group.mul.self_ms": self_ms("group.Curve.mul"),
    "group.is_on_curve.calls": calls("group.Curve.is_on_curve"),
    "group.codec.calls": calls("group.Curve.encode_point", "group.Curve.decode_point"),
    "group.codec.self_ms": self_ms("group.Curve.encode_point", "group.Curve.decode_point"),
    "group.validate_params.ms": ("ms", "lower", _validate_ms),
    "group.self_ms": self_ms("group.*"),
    "rand.scalar.calls": calls("rand.DeterministicRandom.scalar"),
    "rand.random_bytes.calls": calls("rand.DeterministicRandom.random_bytes"),
    "rand.scalar.accept_ratio": ("ratio", "higher", _scalar_accept),
    "rand.self_ms": self_ms("rand.*"),
    "ibs.keygen.self_ms": self_ms("ibs.pkg_setup", "ibs.extract_key"),
    "ibs.sign.self_ms": self_ms("ibs.sign"),
    "ibs.verify_signature.calls": calls("ibs.verify_signature"),
    "ibs.verify_signature.self_ms": self_ms("ibs.verify_signature"),
    "ibs.verify_signature.accept_ratio": ("ratio", "higher", _verify_accept),
    "ibs.h1.calls": events("ibs.h1", "calls/op"),
    "ibs.h2.calls": events("ibs.h2", "calls/op"),
    "ibs.h3.calls": events("ibs.h3", "calls/op"),
    "ibs.hash_fields.self_ms": self_ms("ibs.hash_fields"),
    "ibs.self_ms": self_ms("ibs.*"),
    "protocol.build_message.self_ms": self_ms("protocol.build_message"),
    "protocol.verify_message.calls": calls("protocol.verify_message"),
    "protocol.verify_message.self_ms": self_ms("protocol.verify_message"),
    "protocol.verify_message.rejected_stale":
        events("protocol.verify_message.raised.StaleTimestamp"),
    "protocol.verify_message.rejected_bad_signature":
        events("protocol.verify_message.raised.BadSignature"),
    "protocol.derive_session_key.calls": calls("protocol.derive_session_key"),
    "protocol.derive_session_key.self_ms": self_ms("protocol.derive_session_key"),
    "protocol.decode_message.calls": calls("protocol.decode_message"),
    "protocol.wire.self_ms": self_ms("protocol.encode_message", "protocol.decode_message"),
    "protocol.self_ms": self_ms("protocol.*"),
    "sim.script.self_ms": self_ms(*SCRIPT_SPANS),
    "sim.adversary.self_ms": self_ms("sim.Adversary.*"),
    "sim.transcript.events": calls("sim.Transcript.record", unit="events/op"),
    "sim.report.self_ms": self_ms(*REPORT_SPANS),
    "sim.report.bytes": events("sim.report.bytes", "bytes/op"),
    "sim.self_ms": self_ms("sim.*"),
    "cli.main.self_ms": self_ms("cli.main"),
    "cli.build_parser.ms": total_ms("cli.build_parser"),
    "cli.self_ms": self_ms("cli.*"),
    "trace.overhead_ratio": ("ratio", "higher", _overhead),
    "trace.coverage_ratio": ("ratio", "higher", _coverage),
}


def per_layer(result: dict) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    return {name: (fn(result), unit) for name, (unit, _, fn) in METRICS.items()}
