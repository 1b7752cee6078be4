"""The attack table's README labels, and golden digests of every row's reports
and of every honest-exchange message order.

`ibaka.sim.ATTACK_TABLE` is the one attack table; the golden test checks each
row's verdict on every report it hashes.  `LABELS` gives each row its README
label, and the README's table is rendered from the two.  Each line of
golden/attack_reports.txt pins one row and one impersonated role on the toy
curve, each line of golden/exchange_reports.txt one variant and one message
order.  After a deliberate change to the reports or the table, regenerate both
files and the README's table with

    PYTHONPATH=src python -m tests.test_golden_reports

and say why in the change description.
"""

import hashlib
from pathlib import Path

from ibaka.ibs import Variant
from ibaka.sim import ATTACK_TABLE, MessageOrder, Role, Verdict, run_honest_exchange

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SEEDS = range(1, 51)

ATTACK_HEADER = """\
# SHA-256 of the attack reports on the toy curve (p=17, a=2, b=2, gen=(5,1), q=19).
# Rule per line: concatenate runner(seed, variant, impersonate=role, **options).to_json()
# for seed = 1..50 in order, with the row's options (the default delay and
# window where the row names none), encode as UTF-8, hash with SHA-256.
# Regenerated and compared on every test run; never edit by hand.
"""

EXCHANGE_HEADER = """\
# SHA-256 of the honest-exchange reports on the toy curve (p=17, a=2, b=2, gen=(5,1), q=19).
# Rule per line: concatenate run_honest_exchange(seed, variant, order).to_json()
# for seed = 1..50 in order, with the default window, encode as UTF-8, hash
# with SHA-256.
# Regenerated and compared on every test run; never edit by hand.
"""

REWRITTEN = "replay with rewritten timestamp (delay > window)"
UNCHANGED = "replay without rewriting (delay > window)"
EPHEMERAL = "replay + compromised ephemeral `y` (delay > window)"
IN_WINDOW = "replay + compromised ephemeral `y` (delay 0)"

# ATTACK_TABLE row name -> README label
LABELS = {
    "replay-flawed": REWRITTEN,
    "replay-fixed": REWRITTEN,
    "replay-fixed-no-rewrite": UNCHANGED,
    "ephemeral-flawed": EPHEMERAL,
    "ephemeral-fixed": EPHEMERAL,
    "replay-flawed-no-rewrite": UNCHANGED,
    "ephemeral-flawed-in-window": IN_WINDOW,
    "ephemeral-fixed-in-window": IN_WINDOW,
}

# a verdict's last three fields (victim_derives, attacker_derives, keys_match) -> README words
KEYS_TEXT = {
    (False, False, False): "no key derived",
    (True, False, False): "victim derives a key",
    (True, True, True): "attacker gets the victim's key",
}


def verdict_of(report) -> Verdict:
    """The report's verdict; each derived key has one DERIVE_KEY event, in order."""
    keys = [key for key in (report.victim_key, report.attacker_key) if key is not None]
    assert [e.payload for e in report.transcript.events if e.action == "DERIVE_KEY"] == keys
    return report.verdict


def checked_reports(row: str, role: Role, seeds=SEEDS) -> list:
    """The row's reports for one impersonated role, each checked against its verdict."""
    run, variant, options, verdict = ATTACK_TABLE[row]
    reports = [run(seed, variant, impersonate=role, **options) for seed in seeds]
    for seed, report in zip(seeds, reports):
        assert verdict_of(report) == verdict, f"{row} impersonate={role.name} seed={seed}"
    return reports


def _digest(reports) -> str:
    text = "".join(report.to_json() for report in reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def attack_lines() -> list[str]:
    return [
        f"row={row} impersonate={role.name} sha256={_digest(checked_reports(row, role))}"
        for row in ATTACK_TABLE for role in Role
    ]


def exchange_lines() -> list[str]:
    return [
        f"variant={variant.name} order={order.name} sha256="
        + _digest(run_honest_exchange(seed, variant, order) for seed in SEEDS)
        for variant in Variant for order in MessageOrder
    ]


def _cell(verdict: Verdict) -> str:
    name = f"DEFEATED({verdict.reason})" if verdict.reason else "SUCCEEDED"
    return f"`{name}`: {KEYS_TEXT[verdict[1:]]}"


def readme_table() -> list[str]:
    """The README's attack table: one line per label, FLAWED and FIXED cells."""
    cells = {}
    for row, (_, variant, _, verdict) in ATTACK_TABLE.items():
        cells.setdefault(LABELS[row], {})[variant] = _cell(verdict)
    lines = [["attack", "FLAWED", "FIXED"]]
    lines += [[label, cell[Variant.FLAWED], cell[Variant.FIXED]] for label, cell in cells.items()]
    widths = [max(map(len, column)) for column in zip(*lines)]
    lines.insert(1, ["-" * width for width in widths])
    return ["| " + " | ".join(map(str.ljust, line, widths)) + " |" for line in lines]


def readme_parts() -> tuple[list[str], list[str], list[str]]:
    """The README's lines before, in and after its one table."""
    lines = README.read_text(encoding="utf-8").split("\n")
    table = [i for i, line in enumerate(lines) if line.startswith("|")]
    start, end = table[0], table[-1] + 1
    assert table == list(range(start, end)), "the README holds one table"
    return lines[:start], lines[start:end], lines[end:]


# golden file name -> (header, line builder)
GOLDEN = {
    "attack_reports.txt": (ATTACK_HEADER, attack_lines),
    "exchange_reports.txt": (EXCHANGE_HEADER, exchange_lines),
}


def golden_file_lines(name: str) -> list[str]:
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def test_attack_report_digests_match_golden_file():
    expected = golden_file_lines("attack_reports.txt")
    assert len(expected) == len(ATTACK_TABLE) * len(Role)
    assert attack_lines() == expected


def test_exchange_report_digests_match_golden_file():
    expected = golden_file_lines("exchange_reports.txt")
    assert len(expected) == len(Variant) * len(MessageOrder)
    assert exchange_lines() == expected


def test_readme_attack_table_is_rendered_from_rows():
    assert list(LABELS) == list(ATTACK_TABLE)
    assert readme_parts()[1] == readme_table()


if __name__ == "__main__":
    for name, (header, lines) in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(header + "\n".join(lines()) + "\n")
    before, _, after = readme_parts()
    README.write_text("\n".join(before + readme_table() + after), encoding="utf-8")
