"""Golden report digests: the report bytes of every attack-table row and of
every honest-exchange message order.

Each line of golden/attack_reports.txt pins one attack-table row and one
impersonated role on the toy curve; each line of golden/exchange_reports.txt
pins one variant and one message order.  To regenerate both files after a
deliberate change to the report format, run

    PYTHONPATH=src python -m tests.test_golden_reports

and say why in the change description.
"""

import hashlib
from pathlib import Path

from ibaka.ibs import Variant
from ibaka.sim import (
    MessageOrder,
    Role,
    run_ephemeral_compromise_attack,
    run_honest_exchange,
    run_replay_attack,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = range(1, 51)

ATTACK_HEADER = """\
# SHA-256 of the attack reports on the toy curve (p=17, a=2, b=2, gen=(5,1), q=19).
# Rule per line: concatenate runner(seed, variant, **options).to_json() for
# seed = 1..50 in order, with the default delay and window and the given
# impersonated role, encode as UTF-8, hash with SHA-256.
# Regenerated and compared on every test run; never edit by hand.
"""

EXCHANGE_HEADER = """\
# SHA-256 of the honest-exchange reports on the toy curve (p=17, a=2, b=2, gen=(5,1), q=19).
# Rule per line: concatenate run_honest_exchange(seed, variant, order).to_json()
# for seed = 1..50 in order, with the default window, encode as UTF-8, hash
# with SHA-256.
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


def _digest(reports) -> str:
    text = "".join(report.to_json() for report in reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(row: str, role: Role) -> str:
    runner, variant, options = ROWS[row]
    return _digest(runner(seed, variant, impersonate=role, **options) for seed in SEEDS)


def attack_lines() -> list[str]:
    return [
        f"row={row} impersonate={role.name} sha256={report_digest(row, role)}"
        for row in ROWS
        for role in Role
    ]


def exchange_lines() -> list[str]:
    return [
        f"variant={variant.name} order={order.name} sha256="
        + _digest(run_honest_exchange(seed, variant, order) for seed in SEEDS)
        for variant in Variant
        for order in MessageOrder
    ]


# golden file name -> (header, line builder)
GOLDEN = {
    "attack_reports.txt": (ATTACK_HEADER, attack_lines),
    "exchange_reports.txt": (EXCHANGE_HEADER, exchange_lines),
}


def golden_file_lines(name: str) -> list[str]:
    return [
        line for line in (GOLDEN_DIR / name).read_text().splitlines()
        if line and not line.startswith("#")
    ]


def test_attack_report_digests_match_golden_file():
    expected = golden_file_lines("attack_reports.txt")
    assert len(expected) == len(ROWS) * len(Role)
    assert attack_lines() == expected


def test_exchange_report_digests_match_golden_file():
    expected = golden_file_lines("exchange_reports.txt")
    assert len(expected) == len(Variant) * len(MessageOrder)
    assert exchange_lines() == expected


if __name__ == "__main__":
    for name, (header, lines) in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(header + "\n".join(lines()) + "\n")
