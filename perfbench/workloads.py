"""Workload definitions: seeded inputs, one operation each, and its check.

Every workload is a closed loop with one caller.  Its inputs are a fixed
list built from the workload seed; operation ``i`` uses ``inputs[i % len]``.
The program under test only ever sees the generated seed, variant, order,
delay, role or argument vector, never the workload seed itself.

``ibaka`` is imported inside ``Workload.__init__`` so that the import is part of the
measured set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib

# Inputs per run.  The secp256k1 workloads never wrap within a run; the TOY
# ones wrap after a few seconds, which repeats program inputs but not state,
# since every operation builds its own parties.
INPUT_COUNT = 4096

# The first CHECK_OPS[w] operations of every run form the check window: their
# report bytes are hashed into the run digest, and in a traced run they give
# the exact per-operation counts.  Each is a whole number of input cycles.
CHECK_OPS = {
    "exchange-secp256k1": 6,
    "attack-secp256k1": 10,
    "exchange-toy": 60,
    "cli-toy": 16,
}

NAMES = tuple(CHECK_OPS)

CURVE_FILE = pathlib.Path("tests") / "data" / "secp256k1.txt"

# Attack delays lie strictly beyond the freshness window, as in the paper's
# attack table; below it the unmodified replay would not be stale.
MAX_EXTRA_DELAY = 2000

# Rows of the attack table: (attack, variant, rewrite timestamp, outcome, reason).
ATTACK_ROWS = (
    ("replay", "FLAWED", True, "SUCCEEDED", None),
    ("replay", "FIXED", True, "DEFEATED", "BadSignature"),
    ("replay", "FIXED", False, "DEFEATED", "StaleTimestamp"),
    ("ephemeral", "FLAWED", True, "SUCCEEDED", None),
    ("ephemeral", "FIXED", True, "DEFEATED", "BadSignature"),
)

CLI_COMMANDS = ("demo", "replay", "ephemeral", "keygen")


class OpFailed(Exception):
    """An operation returned a wrong verdict, unequal keys or a bad status."""


def draw(seed: int, index: int, label: str, bound: int) -> int:
    """Deterministic integer in [0, bound) for one input field."""
    digest = hashlib.sha256(f"{seed}:{index}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % bound


class Workload:
    """A loaded workload: curve, inputs and the operation to run on them."""

    def __init__(self, name: str, seed: int, root: pathlib.Path):
        if name not in CHECK_OPS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.check_ops = CHECK_OPS[name]
        import ibaka
        from ibaka import cli, group, sim

        self.ibaka, self.cli, self.sim = ibaka, cli, sim
        if name.endswith("secp256k1"):
            self.curve = group.load_curve_file(root / CURVE_FILE)
            self.curve_name = "secp256k1"
        else:
            self.curve = group.TOY_CURVE
            self.curve_name = "TOY"
        self.inputs = [self._make_input(i) for i in range(INPUT_COUNT)]
        self._op = getattr(self, "_op_" + name.split("-")[0])

    def _make_input(self, i: int):
        ibaka, seed = self.ibaka, self.seed
        program_seed = draw(seed, i, "seed", 1 << 32)
        if self.name.startswith("exchange"):
            variant = tuple(ibaka.Variant)[i % 2]
            order = tuple(ibaka.MessageOrder)[(i // 2) % 3]
            return program_seed, variant, order
        delay = ibaka.DEFAULT_WINDOW + 1 + draw(seed, i, "delay", MAX_EXTRA_DELAY)
        if self.name.startswith("attack"):
            row = ATTACK_ROWS[i % len(ATTACK_ROWS)]
            role = (ibaka.Role.SERVER, ibaka.Role.CLIENT)[i % 2]
            return program_seed, row, delay, role
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        variant = ("flawed", "fixed")[(i // len(CLI_COMMANDS)) % 2]
        if command == "demo":
            argv = ["demo", "--variant", variant, "--seed", str(program_seed)]
        elif command == "keygen":
            identity = ("server-1", "sensor-7")[(i // len(CLI_COMMANDS)) % 2]
            argv = ["keygen", "--seed", str(program_seed), "--id", identity]
        else:
            expect = "succeeded" if variant == "flawed" else "defeated"
            argv = [
                "attack", command, "--variant", variant, "--seed", str(program_seed),
                "--delay", str(delay), "--expect", expect,
            ]
        return argv

    def run_op(self, i: int):
        """Run operation i; returns a thunk that checks the result.

        The call into the program is all that happens before the return, so
        the caller can time it alone and check afterwards.  The thunk returns
        the report bytes, or raises ``OpFailed``.
        """
        return self._op(self.inputs[i % INPUT_COUNT])

    def _op_exchange(self, inp):
        program_seed, variant, order = inp
        result = self.sim.run_honest_exchange(program_seed, variant, order, curve=self.curve)
        text = result.to_json()

        def check():
            if not result.keys_equal:
                raise OpFailed("honest session keys differ")
            return text.encode()

        return check

    def _op_attack(self, inp):
        program_seed, row, delay, role = inp
        attack, variant_name, rewrite, outcome, reason = row
        variant = self.ibaka.Variant[variant_name]
        if attack == "replay":
            report = self.sim.run_replay_attack(
                program_seed, variant, delay, curve=self.curve,
                rewrite_timestamp=rewrite, impersonate=role,
            )
        else:
            report = self.sim.run_ephemeral_compromise_attack(
                program_seed, variant, delay, curve=self.curve, impersonate=role,
            )
        text = report.to_json()

        def check():
            if report.outcome.name != outcome or report.reason != reason:
                raise OpFailed(
                    f"{attack}/{variant_name}/rewrite={rewrite}: got "
                    f"{report.outcome.name}({report.reason}), expected {outcome}({reason})"
                )
            if attack == "ephemeral" and report.keys_match != (outcome == "SUCCEEDED"):
                raise OpFailed("attacker key match disagrees with the outcome")
            return text.encode()

        return check

    def _op_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.main(argv)

        def check():
            text = out.getvalue()
            if status != 0:
                raise OpFailed(f"{' '.join(argv)}: exit {status}: {err.getvalue().strip()}")
            if argv[0] == "demo" and '"keys_equal": true' not in text:
                raise OpFailed("demo session keys differ")
            if argv[0] == "keygen" and not text.startswith("# extracted identity key"):
                raise OpFailed("keygen printed no key file")
            return text.encode()

        return check
