"""Command-line front end: honest demos, attack scripts, self-tests, keygen.

Every run is deterministic: the same argument vector produces byte-identical
output.  Exit status 0 on success (and a matching --expect), 1 when an
--expect does not match or a selftest check fails, 2 on usage or
configuration errors.

`main(argv)` may be called many times in one process, as the tests and the
benchmark's cli-toy workload do.  `build_parser()` builds the argument parser
on its first call (not at import) and returns that one parser afterwards, so a
process builds it once.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import accumulate

from .group import Curve, IDENTITY, TOY_CURVE, _decimal, load_curve_file, validate_params
from .ibs import Variant, verify_signature
from .protocol import (
    DEFAULT_WINDOW,
    MalformedMessage,
    ProtocolError,
    build_message,
    decode_message,
    encode_message,
)
from .sim import MessageOrder, Outcome, run_honest_exchange
from . import sim


def _u64(text: str) -> int:
    """A seed or a tick count: a decimal integer by the curve files' rule (_decimal)
    that fits in an unsigned 64-bit integer, as ticks do on the wire."""
    try:
        value = _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"value {exc}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("must fit in an unsigned 64-bit integer")
    return value


# Every attack script, by its command-line kind: the part of each attack-table
# row's name before its first `-`, in table order.
_ATTACKS = {name.split("-")[0]: run for name, (run, *_) in sim.ATTACK_TABLE.items()}

# The shared options, declared once; subcommands pick theirs by name in help
# order.
_OPTIONS = {
    "variant": dict(choices=[v.value for v in Variant], default=Variant.FLAWED.value,
                    help="protocol variant (default: flawed)"),
    "seed": dict(type=_u64, default=1, help="run seed (default: 1)"),
    "window": dict(type=_u64, default=DEFAULT_WINDOW,
                   help="freshness window in ticks (default: %(default)s)"),
    "delay": dict(type=_u64, default=sim.DEFAULT_DELAY,
                  help="ticks between interception and replay (default: %(default)s)"),
    "id": dict(default=sim.SERVER_ID, help="identity to extract"),
    "curve": dict(default="TOY", help="TOY or path to a curve-parameter file (default: TOY)"),
    "output": dict(default=None, help="write to this file instead of stdout"),
    "expect": dict(choices=[o.name.lower() for o in Outcome],
                   help="exit 1 unless the attack outcome matches"),
}


def _add_options(parser, *names):
    """Add the named _OPTIONS."""
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


@cache
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
    _add_options(keygen, "seed", "id", "curve", "output")
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
    result = run_honest_exchange(args.seed, Variant(args.variant), window=args.window, curve=curve)
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
    _, _, [keys] = sim._extracted(args.seed, _resolve_curve(args.curve), args.id)
    lines = [
        "# extracted identity key; demo storage only, the private key is in the clear",
        f"id = {keys.identity}",
        f"s = {keys.secret}",
        f"rx = {keys.R.x}",
        f"ry = {keys.R.y}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _selftest_checks():
    """Small deterministic versions of the library invariants, in run order;
    each returns True when its invariant holds and False at its first failing
    case, and prints under its function's name with `_` written as `-`.  Each
    attack kind in _ATTACKS gets one check, named `<kind>-matrix`."""
    curve = TOY_CURVE

    def multiples(c, u, n):
        # 0*u, 1*u, ..., (n-1)*u by the add oracle; with cofactor 1 the first
        # q multiples of the generator are every point of c.
        return list(accumulate([u] * (n - 1), c.add, initial=IDENTITY))

    def group_laws():
        points = multiples(curve, curve.gen, curve.q)
        return (len(set(points)) == curve.q
                and curve.add(points[-1], curve.gen).is_identity
                and all(curve.add(u, v) == curve.add(v, u) for u in points for v in points)
                and all(curve.add(u, curve.negate(u)).is_identity for u in points))

    def scalar_mul_oracle():
        """mul(k, u) against repeated add for every point and 0 <= k < 2q, on
        TOY and on the a = 0 curve y^2 = x^3 + 3 over F_79; that covers every
        path for 0 < k < q: the generator table read with k itself on TOY and
        with the endomorphism split's halves on the F_79 curve, and the
        split for other points; and the double-and-add loop for
        q <= k < 2q."""
        return all(c.mul(k, u) == ku for c in (curve, validate_params(79, 0, 3, 1, 2, 97))
                   for u in multiples(c, c.gen, c.q)
                   for k, ku in enumerate(multiples(c, u, 2 * c.q)))

    def point_codec():
        return all(curve.decode_point(curve.encode_point(u)) == u
                   for u in multiples(curve, curve.gen, curve.q))

    def signed_messages(variant, seeds):
        # Per seed, the PKG and the server's message to the client on the
        # clock's first tick: the seeded set-up, then build_message.
        for seed in seeds:
            rng, master, [keys] = sim._extracted(seed, curve, sim.SERVER_ID)
            msg, _ = build_message(keys, sim.CLIENT_ID, sim.START_TICKS, variant, rng)
            yield master, msg

    def signature_round_trip():
        return all(verify_signature(curve, msg.sig, sim.SERVER_ID, sim.CLIENT_ID, msg.Y,
                                    sim.START_TICKS, master.public, variant)
                   for variant in Variant
                   for master, msg in signed_messages(variant, range(1, 51)))

    def honest_exchanges():
        return all(run_honest_exchange(seed, variant, order).keys_equal
                   for variant in Variant for order in MessageOrder for seed in range(1, 6))

    def attack_matrix(kind):
        # Every attack-table row of one command-line kind, which starts its name.
        def check():
            return all(run(s, variant, **options).verdict == verdict
                       for name, (run, variant, options, verdict) in sim.ATTACK_TABLE.items()
                       if name.startswith(kind + "-") for s in range(1, 6))
        check.__name__ = f"{kind}-matrix"
        return check

    def message_codec():
        # Each message decodes to itself, and without its last byte not at all.
        for _, msg in signed_messages(Variant.FIXED, range(1, 26)):
            wire = encode_message(curve, msg)
            if decode_message(curve, wire) == msg:
                try:
                    decode_message(curve, wire[:-1])
                except MalformedMessage:
                    continue
            return False
        return True

    return [group_laws, scalar_mul_oracle, point_codec, signature_round_trip,
            honest_exchanges, *map(attack_matrix, _ATTACKS), message_codec]


def _cmd_selftest(args) -> int:
    lines = []
    failures = 0
    for check in _selftest_checks():
        name = check.__name__.replace("_", "-")
        try:
            passed = check()
        except Exception as exc:
            # A check that raises fails; the other checks still run.
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            passed = False
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}")
        failures += not passed
    total = len(lines)
    lines.append(f"selftest: {total - failures}/{total} passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except (OSError, ValueError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
