import pytest

from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant
from ibaka.protocol import (
    DEFAULT_WINDOW,
    BadSignature,
    MalformedMessage,
    StaleTimestamp,
    decode_message,
    encode_message,
)
from ibaka.sim import (
    Adversary,
    AttackKind,
    AttackReport,
    FieldOutOfRange,
    LogicalClock,
    MessageOrder,
    Outcome,
    Role,
    SERVER_ID,
    TamperField,
    Transcript,
    _setup,
    run_ephemeral_compromise_attack,
    run_honest_exchange,
    run_replay_attack,
    tamper_field,
)
from conftest import seeded_message


class TestHonestExchange:
    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown message order"):
            run_honest_exchange(1, Variant.FLAWED, "SERVER_FIRST")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            run_honest_exchange(1, "FIXED")

    SCHEDULES = {
        MessageOrder.SERVER_FIRST: [
            (100, "SERVER", "SEND"),
            (101, "CLIENT", "VERIFY_OK"),
            (101, "CLIENT", "SEND"),
            (102, "SERVER", "VERIFY_OK"),
            (102, "SERVER", "DERIVE_KEY"),
            (102, "CLIENT", "DERIVE_KEY"),
        ],
        MessageOrder.CLIENT_FIRST: [
            (100, "CLIENT", "SEND"),
            (101, "SERVER", "VERIFY_OK"),
            (101, "SERVER", "SEND"),
            (102, "CLIENT", "VERIFY_OK"),
            (102, "SERVER", "DERIVE_KEY"),
            (102, "CLIENT", "DERIVE_KEY"),
        ],
        MessageOrder.PARALLEL: [
            (100, "SERVER", "SEND"),
            (100, "CLIENT", "SEND"),
            (101, "SERVER", "VERIFY_OK"),
            (101, "CLIENT", "VERIFY_OK"),
            (101, "SERVER", "DERIVE_KEY"),
            (101, "CLIENT", "DERIVE_KEY"),
        ],
    }

    @pytest.mark.parametrize("curve_name", ["toy", "secp256k1"])
    @pytest.mark.parametrize("order", list(MessageOrder), ids=lambda order: order.name)
    def test_event_sequence(self, order, curve_name, request):
        """Each order's exact schedule: who acts at which tick; the server derives first."""
        curve = TOY_CURVE if curve_name == "toy" else request.getfixturevalue("production_curve")
        result = run_honest_exchange(1, Variant.FLAWED, order, curve=curve)
        steps = [(e.time, e.actor, e.action) for e in result.transcript.events]
        assert steps == self.SCHEDULES[order]
        assert result.keys_equal

    def test_transcript_payloads_are_wire_decodable(self):
        result = run_honest_exchange(3, Variant.FIXED, MessageOrder.CLIENT_FIRST)
        for event in result.transcript.events:
            if event.action == "SEND":
                decode_message(TOY_CURVE, event.payload)


def steps(party):
    return [(e.time, e.actor, e.action, e.payload) for e in party.transcript.events]


class TestPartySteps:
    """Each Party step appends exactly one event: its role, its action, its payload."""

    def test_send_records_the_wire(self):
        rng, server, client = _setup(1, Variant.FIXED, 10, TOY_CURVE)
        wire, _ = server.send(client.id, rng)
        assert steps(server) == [(100, "SERVER", "SEND", wire)]

    def test_receive_records_verify_ok(self):
        rng, server, client = _setup(1, Variant.FIXED, 10, TOY_CURVE)
        wire, _ = server.send(client.id, rng)
        assert client.receive(wire).sender_id == SERVER_ID
        assert steps(client)[1:] == [(100, "CLIENT", "VERIFY_OK", wire)]

    @pytest.mark.parametrize("error, delay, hostile", [
        (StaleTimestamp, 11, lambda wire: wire),
        (BadSignature, 0, lambda wire: tamper_field(wire, TamperField.MU, 0, 0x01)),
        (MalformedMessage, 0, lambda wire: wire[:-1]),
    ])
    def test_receive_records_the_failure_and_reraises(self, error, delay, hostile):
        rng, server, client = _setup(1, Variant.FIXED, 10, TOY_CURVE)
        wire, _ = server.send(client.id, rng)
        client.transcript.clock.advance(delay)
        bad = hostile(wire)
        with pytest.raises(error):
            client.receive(bad)
        action = f"VERIFY_FAIL({error.__name__})"
        assert steps(client)[1:] == [(100 + delay, "CLIENT", action, bad)]

    @pytest.mark.parametrize("curve_name", ["toy", "secp256k1"])
    def test_own_wire_reflected_back_fails_the_signature(self, curve_name, request):
        """No step compares the sender id with the receiver's own id: the
        recipient signed into H2 is what rejects a party's own wire."""
        curve = TOY_CURVE if curve_name == "toy" else request.getfixturevalue("production_curve")
        seeds = range(1, 51) if curve_name == "toy" else (1, 2)
        for variant in Variant:
            for seed in seeds:
                rng, server, client = _setup(seed, variant, DEFAULT_WINDOW, curve)
                for party, peer in ((server, client), (client, server)):
                    wire, _ = party.send(peer.id, rng)
                    with pytest.raises(BadSignature):
                        party.receive(wire)
                    failure = (party.role.value, "VERIFY_FAIL(BadSignature)", wire)
                    assert steps(party)[-1][1:] == failure

    def test_derive_records_the_key_and_both_sides_agree(self):
        rng, server, client = _setup(1, Variant.FIXED, 10, TOY_CURVE)
        wire_s, y_s = server.send(client.id, rng)
        wire_c, y_c = client.send(server.id, rng)
        seen_client, seen_server = server.receive(wire_c), client.receive(wire_s)
        server_key = server.derive(seen_client, y_s)
        assert steps(server)[4:] == [(100, "SERVER", "DERIVE_KEY", server_key)]
        client_key = client.derive(seen_server, y_c)
        assert steps(client)[5:] == [(100, "CLIENT", "DERIVE_KEY", client_key)]
        assert server_key == client_key


class TestReplayAttack:
    def test_rewrite_touches_only_the_trailing_timestamp(self):
        report = run_replay_attack(7, Variant.FLAWED, delay=1000)
        events = {e.action: e for e in report.transcript.events}
        original = events["INTERCEPT"].payload
        rewritten = events["REWRITE_TIMESTAMP"].payload
        assert original[:-8] == rewritten[:-8]
        assert int.from_bytes(rewritten[-8:], "big") == 100 + 1000

    def test_attack_script_event_order(self):
        report = run_replay_attack(7, Variant.FLAWED)
        actions = [e.action for e in report.transcript.events]
        assert actions == [
            "SEND", "INTERCEPT", "REWRITE_TIMESTAMP", "REPLAY",
            "VERIFY_OK", "SEND", "DERIVE_KEY",
        ]
        # Impersonating the client to the server is the same script role-swapped.
        mirrored = run_replay_attack(7, Variant.FLAWED, impersonate=Role.CLIENT)
        assert [e.action for e in mirrored.transcript.events] == actions
        assert mirrored.transcript.events[0].actor == "CLIENT"

    def test_delay_within_window_rejected(self):
        with pytest.raises(ValueError):
            run_replay_attack(7, Variant.FLAWED, delay=5, window=10)

    def test_unknown_role_rejected(self):
        # A string role must not silently run the client-impersonation script.
        with pytest.raises(ValueError, match="unknown role"):
            run_replay_attack(1, Variant.FLAWED, impersonate="SERVER")

    def test_unknown_variant_rejected(self):
        # A string variant must not run as FLAWED.
        with pytest.raises(ValueError, match="unknown variant"):
            run_replay_attack(1, "fixed")


class TestEphemeralCompromiseAttack:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_ephemeral_compromise_attack(1, Variant.FIXED, -1)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown role"):
            run_ephemeral_compromise_attack(1, Variant.FIXED, impersonate="CLIENT")

    def test_a_wrong_attacker_key_defeats_the_attack(self, monkeypatch):
        """The victim accepts, but the adversary's key differs from the victim's."""
        honest = run_ephemeral_compromise_attack(7, Variant.FLAWED)
        wrong_key = bytes(byte ^ 0xFF for byte in honest.victim_key)
        monkeypatch.setattr(Adversary, "compute_session_key", lambda *args: wrong_key)
        report = run_ephemeral_compromise_attack(7, Variant.FLAWED)
        assert (report.victim_key, report.attacker_key) == (honest.victim_key, wrong_key)
        assert report.reason == "SessionKeyMismatch"
        assert report.outcome is Outcome.DEFEATED
        assert not report.keys_match
        assert '"outcome": "DEFEATED"' in report.to_json()

    def test_adversary_sees_only_wire_traffic(self):
        # Every byte the adversary captured appeared on the wire as a SEND.
        report = run_ephemeral_compromise_attack(7, Variant.FLAWED)
        sends = [e.payload for e in report.transcript.events if e.action == "SEND"]
        intercepts = [
            e.payload for e in report.transcript.events
            if e.actor == "ADVERSARY" and e.action == "INTERCEPT"
        ]
        assert intercepts
        for captured in intercepts:
            assert captured in sends


class TestAdversaryObject:
    def test_state_is_public_parameters_only(self):
        assert set(vars(Adversary(TOY_CURVE))) == {"curve", "impersonating"}

    @pytest.mark.parametrize("impersonate", list(Role))
    def test_session_key_is_a_function_of_its_inputs(self, impersonate):
        """The victim's key from the original wire, its response and the leaked y."""
        rng, server, client = _setup(5, Variant.FLAWED, DEFAULT_WINDOW, TOY_CURVE)
        impersonated, victim = (server, client) if impersonate is Role.SERVER else (client, server)
        original, y = impersonated.send(victim.id, rng)
        accepted = victim.receive(original)
        response, y_victim = victim.send(accepted.sender_id, rng)
        victim_key = victim.derive(accepted, y_victim)
        adversary = Adversary(TOY_CURVE, impersonating=impersonate)
        assert adversary.compute_session_key(original, response, y) == victim_key
        assert adversary.compute_session_key(original, response, y + 1) != victim_key

    def test_rewrite_requires_the_trailing_field_shape(self):
        with pytest.raises(MalformedMessage):
            Adversary.rewrite_timestamp(b"\x01\x02\x03", 5)
        # Well framed, but the final field has 7 bytes, not 8.
        wire = run_honest_exchange(1, Variant.FLAWED).transcript.events[0].payload
        short_t = wire[:-10] + (7).to_bytes(2, "big") + wire[-8:-1]
        with pytest.raises(MalformedMessage, match="trailing timestamp"):
            Adversary.rewrite_timestamp(short_t, 5)


def bare_report(reason, attacker_key, victim_key):
    return AttackReport(
        AttackKind.EPHEMERAL_COMPROMISE, Variant.FLAWED, reason,
        attacker_key, victim_key, Transcript(LogicalClock()),
    )


class TestAttackReportSerialization:
    def test_keys_match_is_derived_from_the_keys(self):
        assert not bare_report(None, None, None).keys_match
        assert not bare_report(None, None, b"k").keys_match
        assert bare_report(None, b"k", b"k").keys_match
        assert not bare_report(None, b"k", b"j").keys_match

    def test_outcome_follows_from_the_reason(self):
        assert bare_report(None, None, None).outcome is Outcome.SUCCEEDED
        assert bare_report("BadSignature", None, None).outcome is Outcome.DEFEATED
        # Keys that match do not turn a report with a reason into a success.
        assert bare_report("SessionKeyMismatch", b"k", b"k").outcome is Outcome.DEFEATED

class TestTamperField:
    def test_byte_index_out_of_range(self):
        wire = encode_message(TOY_CURVE, seeded_message(21, Variant.FLAWED)[1])
        with pytest.raises(FieldOutOfRange):
            tamper_field(wire, TamperField.MU, 5, 0x01)

    def test_zero_mask_rejected(self):
        wire = encode_message(TOY_CURVE, seeded_message(21, Variant.FLAWED)[1])
        with pytest.raises(ValueError):
            tamper_field(wire, TamperField.MU, 0, 0)


class TestClockAndTranscript:
    def test_clock_only_advances(self):
        clock = LogicalClock()
        clock.advance(5)
        assert clock.now == 105
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_clock_cannot_be_set(self):
        """advance is the only way to move the clock, so it never rewinds."""
        clock = LogicalClock()
        with pytest.raises(AttributeError):
            clock.now = 50
        assert clock.now == 100

    def test_record_stamps_the_clock_time(self):
        clock = LogicalClock()
        transcript = Transcript(clock)
        transcript.record(Role.SERVER, "SEND", b"")
        clock.advance(5)
        transcript.record("ADVERSARY", "REPLAY", b"\x01")
        assert [(e.time, e.actor, e.action) for e in transcript.events] == [
            (100, "SERVER", "SEND"), (105, "ADVERSARY", "REPLAY"),
        ]
