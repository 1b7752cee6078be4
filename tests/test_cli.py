import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from ibaka import cli
from ibaka.cli import main
from ibaka.group import IDENTITY, TOY_CURVE, Curve, load_curve_file
from ibaka.ibs import Variant
from ibaka.protocol import DEFAULT_WINDOW, BadSignature, MalformedMessage
from ibaka import sim
from ibaka.sim import ATTACK_TABLE
from conftest import SECP256K1_FILE, TOY_FILE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_default_demo(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        doc = json.loads(out)
        assert doc["keys_equal"] is True
        assert doc["variant"] == "FLAWED"
        assert doc["server_key_hex"] == doc["client_key_hex"]

    def test_fixed_demo_shows_equal_keys(self, capsys):
        code, out, _ = run(capsys, "demo", "--variant", "fixed", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["keys_equal"] is True

    def test_demo_with_curve_file(self, capsys, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text(TOY_FILE)
        code, out, _ = run(capsys, "demo", "--curve", str(path))
        assert code == 0
        assert json.loads(out)["keys_equal"] is True


# The attack-table rows the command line can express: every option but --delay is fixed.
CLI_ROWS = [row for row, (_, _, options, _) in ATTACK_TABLE.items() if set(options) <= {"delay"}]


class TestAttack:
    @pytest.mark.parametrize("row", CLI_ROWS)
    def test_prints_the_row_report(self, capsys, row):
        """`ibaka attack` prints the row's report; --expect passes on its outcome only."""
        runner, variant, options, verdict = ATTACK_TABLE[row]
        argv = ["attack", row.split("-")[0], "--variant", variant.value, "--seed", "7"]
        argv += ["--delay", str(options["delay"])] if options else []
        assert run(capsys, *argv) == (0, runner(7, variant, **options).to_json(), "")
        for outcome in sim.Outcome:
            code, _, err = run(capsys, *argv, "--expect", outcome.name.lower())
            matches = (outcome is sim.Outcome.DEFEATED) == (verdict.reason is not None)
            assert (code, "mismatch" in err) == (0 if matches else 1, not matches), outcome

    def test_replay_fixed_expected_defeat(self, capsys):
        code, out, _ = run(
            capsys, "attack", "replay",
            "--variant", "fixed", "--seed", "7", "--expect", "defeated",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "DEFEATED"
        assert doc["reason"] == "BadSignature"

    def test_expectation_mismatch_exits_1(self, capsys):
        code, out, err = run(
            capsys, "attack", "replay",
            "--variant", "fixed", "--seed", "7", "--expect", "succeeded",
        )
        assert code == 1
        assert "mismatch" in err

    def test_delay_inside_window_is_config_error(self, capsys):
        code, _, err = run(capsys, "attack", "replay", "--delay", "5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("kind", ["replay", "ephemeral"])
    def test_delay_at_the_edge_of_the_tick_range(self, capsys, tmp_path, kind):
        """The clock starts at tick 100: a delay of 2^64 - 101 puts the last
        event on tick 2^64 - 1, and one tick more is a configuration error."""
        code, out, _ = run(capsys, "attack", kind, "--delay", str((1 << 64) - 101))
        assert code == 0
        assert json.loads(out)["events"][-1]["time"] == (1 << 64) - 1
        path = tmp_path / "report.json"
        argv = ["attack", kind, "--delay", str((1 << 64) - 100), "--output", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: timestamp ticks outside unsigned 64-bit range\n")
        assert not path.exists()


class TestDeterminismAndOutput:
    def test_same_argv_same_bytes(self, capsys):
        argv = ("attack", "ephemeral", "--variant", "flawed", "--seed", "4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ("attack", "replay", "--variant", "fixed", "--seed", "2")
        _, stdout_text, _ = run(capsys, *argv)
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_bytes() == stdout_text.encode("utf-8")

    def test_every_command_prints_one_output_option(self, capsys):
        """--output is declared once, so each command's help shows the same
        line for it, up to the column its help text starts in."""
        lines = set()
        for command in ("demo", "attack", "selftest", "keygen"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            lines.update(" ".join(line.split()) for line in out.splitlines()
                         if line.lstrip().startswith("--output"))
        assert lines == {"--output OUTPUT write to this file instead of stdout"}


@pytest.fixture(scope="class")
def selftest_run():
    """(exit status, stdout) of one unpatched selftest, shared by the tests
    that read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selftest"])
    return code, out.getvalue()


class TestSelftest:
    def test_all_checks_pass(self, selftest_run):
        code, out = selftest_run
        assert code == 0
        assert out == (
            "PASS group-laws\n"
            "PASS scalar-mul-oracle\n"
            "PASS point-codec\n"
            "PASS signature-round-trip\n"
            "PASS honest-exchanges\n"
            "PASS replay-matrix\n"
            "PASS ephemeral-matrix\n"
            "PASS message-codec\n"
            "selftest: 8/8 passed\n"
        )

    def test_every_table_row_has_an_attack_check(self, selftest_run):
        """The CLI's attack kinds are the table's row-name prefixes in first-seen
        order, each kind runs its rows' runner, and the selftest checks each kind."""
        kinds = list(dict.fromkeys(row.split("-")[0] for row in ATTACK_TABLE))
        assert list(cli._ATTACKS) == kinds
        for row, (runner, *_) in ATTACK_TABLE.items():
            assert cli._ATTACKS[row.split("-")[0]] is runner
        _, out = selftest_run
        assert [line for line in out.splitlines() if line.endswith("-matrix")] == [
            f"PASS {kind}-matrix" for kind in kinds]

    @pytest.mark.parametrize("row, check", [
        ("replay-flawed-no-rewrite", "replay-matrix"),
        ("ephemeral-fixed-in-window", "ephemeral-matrix"),
    ])
    def test_a_wrong_table_verdict_fails_its_check(self, capsys, monkeypatch, row, check):
        """Each attack check reads its rows' verdicts from the table and runs them."""
        runner, variant, options, verdict = ATTACK_TABLE[row]
        wrong = verdict._replace(keys_match=not verdict.keys_match)
        monkeypatch.setitem(ATTACK_TABLE, row, (runner, variant, options, wrong))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL {check}"]
        assert out.endswith("selftest: 7/8 passed\n")

    @pytest.mark.parametrize("check", [
        "group-laws", "scalar-mul-oracle", "point-codec", "signature-round-trip", "message-codec",
    ])
    def test_a_broken_invariant_fails_its_check(self, capsys, monkeypatch, check):
        """Each check catches the fault its invariant names, and only that one."""
        mul, decode_point, decode_message = Curve.mul, Curve.decode_point, cli.decode_message

        def accepts_truncated(curve, wire):
            try:
                return decode_message(curve, wire)
            except MalformedMessage:
                return None

        breaks = {
            # x + (-x) = 0 is the only group law that reads `negate`.
            "group-laws": (Curve, "negate", lambda self, u: u),
            # (q + 1)*u = u on the double-and-add path.
            "scalar-mul-oracle": (Curve, "mul", lambda self, k, u:
                                  IDENTITY if k == self.q + 1 else mul(self, k, u)),
            # The identity's encoding read as the generator.
            "point-codec": (Curve, "decode_point", lambda self, data:
                            self.gen if data == b"\x00" else decode_point(self, data)),
            "signature-round-trip": (cli, "verify_signature", lambda *args: False),
            "message-codec": (cli, "decode_message", accepts_truncated),
        }
        monkeypatch.setattr(*breaks[check])
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL {check}"]
        assert out.endswith("selftest: 7/8 passed\n")

    def test_a_whole_wire_that_decodes_to_another_message_fails_message_codec(
        self, capsys, monkeypatch
    ):
        """message-codec compares each decoded message with the one encoded: a
        decoder that shifts t fails it, though it still rejects a truncated wire."""
        decode_message = cli.decode_message

        def shifts_t(curve, wire):
            msg = decode_message(curve, wire)
            return msg._replace(t=msg.t + 1)

        monkeypatch.setattr(cli, "decode_message", shifts_t)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL message-codec"]
        assert out.endswith("selftest: 7/8 passed\n")

    def test_a_check_that_raises_fails_and_the_report_is_written(
        self, capsys, monkeypatch, tmp_path
    ):
        """A check that raises is a FAIL with its error on stderr; the other
        checks still run, and the report is written."""
        def raises(*args, **kwargs):
            raise BadSignature("signature by 'server-1' does not verify")

        monkeypatch.setattr(cli, "run_honest_exchange", raises)
        path = tmp_path / "selftest.txt"
        code, out, err = run(capsys, "selftest", "--output", str(path))
        assert (code, out) == (1, "")
        report = path.read_text(encoding="utf-8")
        assert [line for line in report.splitlines() if line.startswith("FAIL")] == [
            "FAIL honest-exchanges"
        ]
        assert report.endswith("selftest: 7/8 passed\n")
        assert err == "honest-exchanges: BadSignature: signature by 'server-1' does not verify\n"


class TestKeygen:
    def test_key_file_fields(self, capsys):
        # A header line, then the four fields in this order.
        code, out, _ = run(capsys, "keygen", "--seed", "5", "--id", "sensor-7")
        assert code == 0
        header, *lines = out.splitlines()
        assert header.startswith("# extracted identity key")
        assert [line.split(" = ")[0] for line in lines] == ["id", "s", "rx", "ry"]

    @pytest.mark.parametrize("curve_arg", ["TOY", str(SECP256K1_FILE)], ids=["TOY", "secp256k1"])
    def test_fields_are_the_library_draws(self, capsys, curve_arg):
        # keygen's key is the seeded set-up's draw for --id alone.
        code, out, _ = run(capsys, "keygen", "--seed", "5", "--id", "sensor-7",
                           "--curve", curve_arg)
        assert code == 0
        curve = TOY_CURVE if curve_arg == "TOY" else load_curve_file(curve_arg)
        _, _, [keys] = sim._extracted(5, curve, "sensor-7")
        fields = dict(l.split(" = ") for l in out.splitlines() if not l.startswith("#"))
        assert fields == {
            "id": "sensor-7", "s": str(keys.secret), "rx": str(keys.R.x), "ry": str(keys.R.y),
        }

    @pytest.mark.parametrize("curve_arg", ["TOY", str(SECP256K1_FILE)], ids=["TOY", "secp256k1"])
    def test_keys_are_the_simulators_server_keys(self, capsys, curve_arg):
        # keygen and the simulator share one seeded set-up, server key first.
        code, out, _ = run(capsys, "keygen", "--seed", "5", "--id", "server-1",
                           "--curve", curve_arg)
        assert code == 0
        curve = TOY_CURVE if curve_arg == "TOY" else load_curve_file(curve_arg)
        keys = sim._setup(5, Variant.FIXED, DEFAULT_WINDOW, curve)[1].keys
        fields = dict(l.split(" = ") for l in out.splitlines() if not l.startswith("#"))
        assert fields == {
            "id": "server-1", "s": str(keys.secret), "rx": str(keys.R.x), "ry": str(keys.R.y),
        }

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "keygen", "--seed", "5")
        _, b, _ = run(capsys, "keygen", "--seed", "5")
        assert a == b

    def test_written_file(self, capsys, tmp_path):
        path = tmp_path / "key.txt"
        code, _, _ = run(capsys, "keygen", "--seed", "5", "--output", str(path))
        assert code == 0
        assert "id = server-1" in path.read_text()

    def test_written_file_is_utf8(self, capsys, tmp_path):
        """A non-ASCII identity reaches the file as UTF-8, byte for byte as on stdout."""
        argv = ("keygen", "--id", "sensor-é")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "key.txt"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        written = path.read_bytes()
        assert b"\nid = sensor-\xc3\xa9\n" in written
        assert written == out.encode("utf-8")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_bad_variant(self, capsys):
        assert run(capsys, "demo", "--variant", "patched")[0] == 2

    def assert_not_u64(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"argument {argv[-2]}: must fit in an unsigned 64-bit integer" in err, argv

    def test_seed_out_of_range(self, capsys):
        self.assert_not_u64(capsys, "demo", "--seed", "-1")
        self.assert_not_u64(capsys, "demo", "--seed", str(1 << 64))

    def test_negative_ticks(self, capsys):
        self.assert_not_u64(capsys, "demo", "--window", "-1")
        self.assert_not_u64(capsys, "attack", "replay", "--delay", "-1")

    def test_integer_options_fit_in_u64(self, capsys):
        """A tick count is an unsigned 64-bit integer, as ticks are on the wire."""
        self.assert_not_u64(capsys, "demo", "--window", str(1 << 64))
        self.assert_not_u64(capsys, "attack", "replay", "--delay", str(1 << 64))
        assert run(capsys, "demo", "--window", str((1 << 64) - 1))[0] == 0

    def test_integer_options_take_only_decimal_digits(self, capsys):
        """int() alone would take hex, '_', '+', spaces and non-ASCII digits,
        and argparse would name the private type function in its error."""
        cases = [
            ("demo", "--seed", "0x10"), ("demo", "--window", "abc"),
            ("demo", "--seed", "1_0"), ("demo", "--seed", " +10"),
            ("demo", "--seed", "\u0661\u0660"), ("attack", "replay", "--delay", "1_000"),
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"argument {argv[-2]}: value is not a decimal integer" in err, argv
            assert "invalid" not in err and "_u64" not in err and "_non_negative" not in err
        # All digits but past int()'s 4,300-digit limit: argparse would report
        # int()'s ValueError with the private type function's name.
        too_long = "1" * 5000
        for argv in [("demo", "--seed", too_long), ("demo", "--window", too_long),
                     ("attack", "replay", "--delay", too_long)]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv[:-1]
            assert f"argument {argv[-2]}: value is too long (5000 digits)" in err, argv[:-1]
            assert "invalid" not in err and "_u64" not in err and "_non_negative" not in err

    def test_missing_curve_file(self, capsys):
        code, _, err = run(capsys, "demo", "--curve", "/does/not/exist")
        assert code == 2
        assert "error:" in err

    def test_invalid_curve_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p = 16\na = 2\nb = 2\ngx = 5\ngy = 1\nq = 19\n")
        code, _, err = run(capsys, "demo", "--curve", str(path))
        assert code == 2
        assert "prime" in err

    def test_curve_file_byte_that_is_not_utf8(self, capsys, tmp_path):
        """A 0xff in q's value is a malformed value on its line, not a codec error."""
        path = tmp_path / "bad.txt"
        path.write_bytes(b"p = 17\na = 2\nb = 2\ngx = 5\ngy = 1\nq = 1\xff9\n")
        code, out, err = run(capsys, "demo", "--curve", str(path))
        assert (code, out) == (2, "")
        assert "line 6: value for 'q' is not a decimal integer" in err and "codec" not in err

    def test_cofactor_curve_file(self, capsys, tmp_path):
        # 24 points on y^2 = x^3 + 1 over F_23; (0, 1) generates only 3 of them.
        path = tmp_path / "cofactor.txt"
        path.write_text("p = 23\na = 0\nb = 1\ngx = 0\ngy = 1\nq = 3\n")
        code, _, err = run(capsys, "demo", "--curve", str(path))
        assert code == 2
        assert "error:" in err

    def test_bad_identity_for_keygen(self, capsys):
        code, _, err = run(capsys, "keygen", "--id", "")
        assert code == 2
        assert "non-empty" in err

    def test_identity_that_is_not_utf8_for_keygen(self, capsys, tmp_path):
        """An argv byte that is not UTF-8 arrives as a lone surrogate, which
        no identity can encode; it is an invalid identity, not a codec error."""
        path = tmp_path / "key.txt"
        code, out, err = run(capsys, "keygen", "--id", "\udcff", "--output", str(path))
        assert (code, out) == (2, "")
        assert "identity must be valid UTF-8 text" in err and "codec" not in err
        assert not path.exists()

    def test_multi_line_identity_for_keygen(self, capsys, tmp_path):
        """A line break in --id would forge a second `s = ` key-file line."""
        path = tmp_path / "key.txt"
        for identity in ["a\ns = 1", "a\rs = 1", "a\u2028s = 1", "a\n"]:
            code, out, err = run(capsys, "keygen", "--id", identity, "--output", str(path))
            assert (code, out) == (2, ""), repr(identity)
            assert "one line" in err
            assert not path.exists()

    def test_zero_window_demo_is_config_error(self, capsys, tmp_path):
        """Each delivery takes one tick, so window 0 makes the honest peer
        reject a stale message: a configuration error, not a traceback."""
        assert run(capsys, "demo", "--window", "0") == (2, "", "error: t=100 older than 101-0\n")
        path = tmp_path / "report.json"
        assert run(capsys, "demo", "--window", "0", "--output", str(path))[0] == 2
        assert not path.exists()


# Usage errors, help at the top level and for each command, an --expect
# mismatch, a configuration error and one successful run of each command,
# with the exit status each must give.
PARSER_CASES = [
    (2, ["bogus"]), (2, ["demo", "--variant", "patched"]), (2, ["demo", "--seed", "0x10"]),
    (2, ["attack"]),
    (0, ["--help"]), (0, ["demo", "--help"]), (0, ["attack", "--help"]), (0, ["keygen", "--help"]),
    (1, ["attack", "replay", "--variant", "fixed", "--seed", "7", "--expect", "succeeded"]),
    (2, ["demo", "--window", "0"]),
    (0, ["demo"]), (0, ["attack", "ephemeral", "--variant", "fixed", "--expect", "defeated"]),
    (0, ["selftest"]), (0, ["keygen", "--seed", "5"]),
]

IMPORT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ibaka.cli
print(ibaka.cli.build_parser.cache_info().currsize)
"""


class TestParserReuse:
    """`build_parser` builds the parser on its first call, and `main` reuses it."""

    def test_one_build_per_process(self, capsys):
        cli.build_parser.cache_clear()
        argvs = [["demo"], ["attack", "replay"], ["attack", "ephemeral"], ["keygen"], ["bogus"]]
        assert [run(capsys, *argv)[0] for argv in argvs] == [0, 0, 0, 0, 2]
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", IMPORT_SCRIPT, src],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_reuse_changes_no_byte(self, capsys, monkeypatch):
        """Exit status, stdout and stderr through a new parser per call equal
        those through the reused one, in either order.  The selftest runs its
        first check only: the command's parsing is what is under test."""
        checks = cli._selftest_checks
        monkeypatch.setattr(cli, "_selftest_checks", lambda: checks()[:1])
        with monkeypatch.context() as fresh_per_call:
            fresh_per_call.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [run(capsys, *argv) for _, argv in PARSER_CASES]
        assert [code for code, _, _ in fresh] == [code for code, _ in PARSER_CASES]
        assert all(out.startswith("usage: ibaka") for _, out, _ in fresh[4:8])
        # Build the reused parser under other streams: it must print to the
        # streams of each call, not to those of its first call.
        cli.build_parser.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser()
        assert [run(capsys, *argv) for _, argv in PARSER_CASES] == fresh
        assert [run(capsys, *argv) for _, argv in reversed(PARSER_CASES)] == fresh[::-1]
