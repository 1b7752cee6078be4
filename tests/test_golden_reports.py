"""Golden attack-report digests: the report bytes of every attack-table row.

Each line of golden/attack_reports.txt pins one attack-table row and one
impersonated role on the toy curve.  To regenerate after a deliberate change
to the report format, run

    PYTHONPATH=src python -m tests.test_golden_reports > tests/golden/attack_reports.txt

and say why in the change description.
"""

import hashlib
from pathlib import Path

from ibaka.ibs import Variant
from ibaka.sim import Role, run_ephemeral_compromise_attack, run_replay_attack

GOLDEN_FILE = Path(__file__).parent / "golden" / "attack_reports.txt"
SEEDS = range(1, 51)

HEADER = """\
# SHA-256 of the attack reports on the toy curve (p=17, a=2, b=2, gen=(5,1), q=19).
# Rule per line: concatenate runner(seed, variant, **options).to_json() for
# seed = 1..50 in order, with the default delay and window and the given
# impersonated role, encode as UTF-8, hash with SHA-256.
# Regenerated and compared on every test run; never edit by hand.
"""

# row name -> (runner, variant, extra keyword options)
ROWS = {
    "replay-flawed": (run_replay_attack, Variant.FLAWED, {}),
    "replay-fixed": (run_replay_attack, Variant.FIXED, {}),
    "replay-fixed-no-rewrite": (
        run_replay_attack, Variant.FIXED, {"rewrite_timestamp": False},
    ),
    "ephemeral-flawed": (run_ephemeral_compromise_attack, Variant.FLAWED, {}),
    "ephemeral-fixed": (run_ephemeral_compromise_attack, Variant.FIXED, {}),
}


def report_digest(row: str, role: Role) -> str:
    runner, variant, options = ROWS[row]
    text = "".join(
        runner(seed, variant, impersonate=role, **options).to_json() for seed in SEEDS
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_lines() -> list[str]:
    return [
        f"row={row} impersonate={role.name} sha256={report_digest(row, role)}"
        for row in ROWS
        for role in Role
    ]


def test_attack_report_digests_match_golden_file():
    expected = [
        line for line in GOLDEN_FILE.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(expected) == len(ROWS) * len(Role)
    assert golden_lines() == expected


if __name__ == "__main__":
    print(HEADER + "\n".join(golden_lines()))
