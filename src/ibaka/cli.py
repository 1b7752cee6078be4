"""Command-line front end: honest demos, attack scripts, self-tests, keygen.

Every run is deterministic: the same argument vector produces byte-identical
output.  Exit status 0 on success (and a matching --expect), 1 when an
--expect does not match or a selftest check fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .group import Curve, TOY_CURVE, load_curve_file, validate_params
from .ibs import Variant, extract_key, pkg_setup, sign, verify_signature
from .protocol import (
    DEFAULT_WINDOW,
    BadSignature,
    MalformedMessage,
    StaleTimestamp,
    build_message,
    decode_message,
    encode_message,
)
from .rand import DeterministicRandom
from .sim import (
    MessageOrder,
    Outcome,
    run_ephemeral_compromise_attack,
    run_honest_exchange,
    run_replay_attack,
)
from . import sim


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("must fit in an unsigned 64-bit integer")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


# Every attack script, by its command-line kind.
_ATTACKS = {"replay": run_replay_attack, "ephemeral": run_ephemeral_compromise_attack}

# Every option, declared once; subcommands pick theirs by name in help order.
_OPTIONS = {
    "variant": dict(choices=[v.value for v in Variant], default=Variant.FLAWED.value,
                    help="protocol variant (default: flawed)"),
    "seed": dict(type=_u64, default=1, help="run seed (default: 1)"),
    "window": dict(type=_non_negative, default=DEFAULT_WINDOW,
                   help="freshness window in ticks (default: %(default)s)"),
    "delay": dict(type=_non_negative, default=sim.DEFAULT_DELAY,
                  help="ticks between interception and replay (default: %(default)s)"),
    "id": dict(default=sim.SERVER_ID, help="identity to extract"),
    "curve": dict(default="TOY", help="TOY or path to a curve-parameter file (default: TOY)"),
    "output": dict(default=None, help="write the report to a file"),
    "expect": dict(choices=["succeeded", "defeated"],
                   help="exit 1 unless the attack outcome matches"),
}


def _add_options(parser, *names):
    """Add the named _OPTIONS."""
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibaka",
        description="Two-message authenticated key agreement demos and attacks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run one honest exchange")
    demo.set_defaults(handler=_cmd_demo)
    _add_options(demo, "variant", "seed", "window", "curve", "output")

    attack = commands.add_parser("attack", help="run a man-in-the-middle script")
    attack.set_defaults(handler=_cmd_attack)
    attack.add_argument("kind", choices=_ATTACKS)
    _add_options(attack, "variant", "seed", "window", "delay", "curve", "output", "expect")

    selftest = commands.add_parser("selftest", help="run the invariant suites")
    selftest.set_defaults(handler=_cmd_selftest)
    _add_options(selftest, "output")

    keygen = commands.add_parser(
        "keygen", help="PKG setup plus key extraction, written as a key file"
    )
    keygen.set_defaults(handler=_cmd_keygen)
    _add_options(keygen, "seed", "id", "curve")
    keygen.add_argument("--output", default=None, help="write the key file here")
    return parser


def _resolve_curve(choice: str) -> Curve:
    if choice == "TOY":
        return TOY_CURVE
    return load_curve_file(choice)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _cmd_demo(args) -> int:
    curve = _resolve_curve(args.curve)
    result = run_honest_exchange(
        args.seed, Variant(args.variant), MessageOrder.SERVER_FIRST,
        window=args.window, curve=curve,
    )
    _emit(result.to_json(), args.output)
    return 0


def _cmd_attack(args) -> int:
    curve = _resolve_curve(args.curve)
    report = _ATTACKS[args.kind](
        args.seed, Variant(args.variant), args.delay, window=args.window, curve=curve
    )
    _emit(report.to_json(), args.output)
    if args.expect is not None and report.outcome.name.lower() != args.expect:
        print(
            f"expectation mismatch: outcome {report.outcome.name}, "
            f"expected {args.expect.upper()}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_keygen(args) -> int:
    if args.id and args.id.splitlines() != [args.id]:
        # A line break in the identity would forge extra key-file lines.
        raise ValueError(f"identity {args.id!r} must be one line of text")
    curve = _resolve_curve(args.curve)
    rng = DeterministicRandom(args.seed)
    master = pkg_setup(curve, rng)
    keys = extract_key(master, args.id, rng)
    lines = [
        "# extracted identity key; demo storage only, the private key is in the clear",
        f"id = {keys.identity}",
        f"s = {keys.secret}",
        f"rx = {keys.R.x}",
        f"ry = {keys.R.y}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _check(condition: bool):
    """A selftest assertion that still runs under python -O."""
    if not condition:
        raise AssertionError


def _selftest_checks():
    """Small deterministic versions of the library invariants."""
    curve = TOY_CURVE

    def group_laws():
        points = curve.points()
        _check(len(points) == curve.q)
        for u in points:
            for v in points:
                _check(curve.add(u, v) == curve.add(v, u))
        for u in points:
            _check(curve.add(u, curve.negate(u)).is_identity)

    def scalar_mul_oracle():
        """mul(k, u) against repeated add for every point and 0 <= k < 2q, on
        TOY and on the a = 0 curve y^2 = x^3 + 3 over F_79; that covers every
        path for 0 < k < q: the generator table read with k itself on TOY and
        with the endomorphism split's halves on the F_79 curve, and the
        split for other points; and the double-and-add loop for
        q <= k < 2q."""
        for c in (curve, validate_params(79, 0, 3, 1, 2, 97)):
            for u in c.points():
                running = c.mul(0, u)
                _check(running.is_identity)
                for k in range(1, 2 * c.q):
                    running = c.add(running, u)
                    _check(c.mul(k, u) == running)

    def point_codec():
        for u in curve.points():
            _check(curve.decode_point(curve.encode_point(u)) == u)

    def signature_round_trip():
        for variant in Variant:
            for seed in range(1, 51):
                rng = DeterministicRandom(seed)
                master = pkg_setup(curve, rng)
                keys = extract_key(master, sim.SERVER_ID, rng)
                y = rng.scalar(curve.q)
                Y = curve.mul(y, curve.gen)
                sig, _ = sign(keys, sim.CLIENT_ID, Y, 100, variant, rng)
                _check(verify_signature(
                    curve, sig, keys.identity, sim.CLIENT_ID, Y, 100,
                    master.public, variant,
                ))

    def honest_exchanges():
        for variant in Variant:
            for order in MessageOrder:
                for seed in range(1, 6):
                    result = run_honest_exchange(seed, variant, order)
                    _check(result.keys_equal)

    def replay_matrix():
        for seed in range(1, 6):
            _check(run_replay_attack(seed, Variant.FLAWED).outcome is Outcome.SUCCEEDED)
            fixed = run_replay_attack(seed, Variant.FIXED)
            _check(fixed.outcome is Outcome.DEFEATED)
            _check(fixed.reason == BadSignature.__name__)
            stale = run_replay_attack(seed, Variant.FIXED, rewrite_timestamp=False)
            _check(stale.reason == StaleTimestamp.__name__)

    def ephemeral_matrix():
        for seed in range(1, 6):
            flawed = run_ephemeral_compromise_attack(seed, Variant.FLAWED)
            _check(flawed.keys_match and flawed.outcome is Outcome.SUCCEEDED)
            fixed = run_ephemeral_compromise_attack(seed, Variant.FIXED)
            _check(not fixed.keys_match and fixed.outcome is Outcome.DEFEATED)

    def message_codec():
        for seed in range(1, 26):
            rng = DeterministicRandom(seed)
            master = pkg_setup(curve, rng)
            keys = extract_key(master, sim.SERVER_ID, rng)
            msg, _ = build_message(keys, sim.CLIENT_ID, 100, Variant.FIXED, rng)
            wire = encode_message(curve, msg)
            _check(decode_message(curve, wire) == msg)
            try:
                decode_message(curve, wire[:-1])
            except MalformedMessage:
                pass
            else:
                raise AssertionError("truncated message accepted")

    return [
        ("group-laws", group_laws),
        ("scalar-mul-oracle", scalar_mul_oracle),
        ("point-codec", point_codec),
        ("signature-round-trip", signature_round_trip),
        ("honest-exchanges", honest_exchanges),
        ("replay-matrix", replay_matrix),
        ("ephemeral-matrix", ephemeral_matrix),
        ("message-codec", message_codec),
    ]


def _cmd_selftest(args) -> int:
    lines = []
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError:
            lines.append(f"FAIL {name}")
            failures += 1
        else:
            lines.append(f"PASS {name}")
    total = len(lines)
    lines.append(f"selftest: {total - failures}/{total} passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
