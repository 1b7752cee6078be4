import json

from ibaka.cli import main

TOY_FILE = "p = 17\na = 2\nb = 2\ngx = 5\ngy = 1\nq = 19\n"


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


class TestAttack:
    def test_replay_flawed_expected_success(self, capsys):
        code, out, _ = run(
            capsys, "attack", "replay",
            "--variant", "flawed", "--seed", "7", "--expect", "succeeded",
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "SUCCEEDED"

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

    def test_ephemeral_flawed_matches_keys(self, capsys):
        code, out, _ = run(
            capsys, "attack", "ephemeral", "--variant", "flawed", "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["keys_match"] is True
        assert doc["attacker_key_hex"] == doc["victim_key_hex"]

    def test_ephemeral_fixed_defeated(self, capsys):
        code, out, _ = run(
            capsys, "attack", "ephemeral", "--variant", "fixed", "--seed", "9",
            "--expect", "defeated",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["keys_match"] is False
        assert doc["victim_key_hex"] is None

    def test_delay_inside_window_is_config_error(self, capsys):
        code, _, err = run(capsys, "attack", "replay", "--delay", "5")
        assert code == 2
        assert "error:" in err


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


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
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


class TestKeygen:
    def test_key_file_fields(self, capsys):
        code, out, _ = run(capsys, "keygen", "--seed", "5", "--id", "sensor-7")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        fields = dict(line.split(" = ") for line in lines)
        assert fields["id"] == "sensor-7"
        assert 1 <= int(fields["s"]) < 19
        assert 0 <= int(fields["rx"]) < 17
        assert 0 <= int(fields["ry"]) < 17

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "keygen", "--seed", "5")
        _, b, _ = run(capsys, "keygen", "--seed", "5")
        assert a == b

    def test_written_file(self, capsys, tmp_path):
        path = tmp_path / "key.txt"
        code, _, _ = run(capsys, "keygen", "--seed", "5", "--output", str(path))
        assert code == 0
        assert "id = server-1" in path.read_text()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_bad_variant(self, capsys):
        assert run(capsys, "demo", "--variant", "patched")[0] == 2

    def test_seed_out_of_range(self, capsys):
        assert run(capsys, "demo", "--seed", "-1")[0] == 2
        assert run(capsys, "demo", "--seed", str(1 << 64))[0] == 2

    def test_negative_ticks(self, capsys):
        assert run(capsys, "demo", "--window", "-1")[0] == 2
        assert run(capsys, "attack", "replay", "--delay", "-1")[0] == 2

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

    def test_multi_line_identity_for_keygen(self, capsys, tmp_path):
        """A line break in --id would forge a second `s = ` key-file line."""
        path = tmp_path / "key.txt"
        for identity in ["a\ns = 1", "a\rs = 1", "a\u2028s = 1", "a\n"]:
            code, out, err = run(capsys, "keygen", "--id", identity, "--output", str(path))
            assert (code, out) == (2, ""), repr(identity)
            assert "one line" in err
            assert not path.exists()
