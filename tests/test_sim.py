import json

import pytest

from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant, extract_key, pkg_setup
from ibaka.protocol import (
    DEFAULT_WINDOW,
    BadSignature,
    MalformedMessage,
    StaleTimestamp,
    build_message,
    decode_message,
    encode_message,
    verify_message,
)
from ibaka.rand import DeterministicRandom
from ibaka.sim import (
    Adversary,
    AttackKind,
    AttackReport,
    CLIENT_ID,
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

REPORT_KEYS = [
    "attack", "variant", "outcome", "reason",
    "keys_match", "attacker_key_hex", "victim_key_hex", "events",
]


class TestHonestExchange:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("order", list(MessageOrder))
    def test_keys_agree(self, variant, order):
        for seed in range(1, 11):
            result = run_honest_exchange(seed, variant, order)
            assert result.keys_equal
            assert len(result.server_key) == 32

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown message order"):
            run_honest_exchange(1, Variant.FLAWED, "SERVER_FIRST")

    def test_transcript_deterministic(self):
        a = run_honest_exchange(5, Variant.FIXED, MessageOrder.PARALLEL)
        b = run_honest_exchange(5, Variant.FIXED, MessageOrder.PARALLEL)
        assert a.to_json() == b.to_json()

    def test_server_first_event_sequence(self):
        result = run_honest_exchange(1, Variant.FLAWED, MessageOrder.SERVER_FIRST)
        steps = [(e.actor, e.action) for e in result.transcript.events]
        assert steps == [
            ("SERVER", "SEND"),
            ("CLIENT", "VERIFY_OK"),
            ("CLIENT", "SEND"),
            ("SERVER", "VERIFY_OK"),
            ("SERVER", "DERIVE_KEY"),
            ("CLIENT", "DERIVE_KEY"),
        ]

    def test_parallel_messages_share_a_tick(self):
        result = run_honest_exchange(1, Variant.FLAWED, MessageOrder.PARALLEL)
        sends = [e for e in result.transcript.events if e.action == "SEND"]
        assert len(sends) == 2
        assert sends[0].time == sends[1].time

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
        assert client.receive(wire).peer_id == SERVER_ID
        assert steps(client)[1:] == [(100, "CLIENT", "VERIFY_OK", wire)]

    @pytest.mark.parametrize("error, delay, hostile", [
        (StaleTimestamp, 11, lambda wire: wire),
        (BadSignature, 0, lambda wire: tamper_field(wire, TamperField.MU, 0, 0x01)),
        (MalformedMessage, 0, lambda wire: wire[:-1]),
    ])
    def test_receive_records_the_failure_and_reraises(self, error, delay, hostile):
        rng, server, client = _setup(1, Variant.FIXED, 10, TOY_CURVE)
        wire, _ = server.send(client.id, rng)
        client.clock.advance(delay)
        bad = hostile(wire)
        with pytest.raises(error):
            client.receive(bad)
        action = f"VERIFY_FAIL({error.__name__})"
        assert steps(client)[1:] == [(100 + delay, "CLIENT", action, bad)]

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
    def test_flawed_accepts_replay(self):
        report = run_replay_attack(7, Variant.FLAWED, delay=1000)
        assert report.outcome is Outcome.SUCCEEDED
        assert report.reason is None
        assert report.victim_key is not None
        assert report.attacker_key is None
        assert not report.keys_match

    def test_fixed_rejects_rewritten_replay(self):
        report = run_replay_attack(7, Variant.FIXED, delay=1000)
        assert report.outcome is Outcome.DEFEATED
        assert report.reason == "BadSignature"
        assert report.victim_key is None

    def test_fixed_rejects_unmodified_replay_as_stale(self):
        report = run_replay_attack(7, Variant.FIXED, delay=1000, rewrite_timestamp=False)
        assert report.outcome is Outcome.DEFEATED
        assert report.reason == "StaleTimestamp"

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

    def test_defeated_script_has_no_key_derivation(self):
        report = run_replay_attack(7, Variant.FIXED)
        actions = [e.action for e in report.transcript.events]
        assert actions == [
            "SEND", "INTERCEPT", "REWRITE_TIMESTAMP", "REPLAY",
            "VERIFY_FAIL(BadSignature)",
        ]

    def test_delay_within_window_rejected(self):
        with pytest.raises(ValueError):
            run_replay_attack(7, Variant.FLAWED, delay=5, window=10)

    def test_mirrored_direction(self):
        # Impersonating the client to the server is the same script role-swapped.
        flawed = run_replay_attack(7, Variant.FLAWED, impersonate=Role.CLIENT)
        fixed = run_replay_attack(7, Variant.FIXED, impersonate=Role.CLIENT)
        assert flawed.outcome is Outcome.SUCCEEDED
        assert fixed.reason == "BadSignature"
        first_send = flawed.transcript.events[0]
        assert first_send.actor == "CLIENT"


class TestEphemeralCompromiseAttack:
    def test_flawed_attacker_learns_the_session_key(self):
        report = run_ephemeral_compromise_attack(7, Variant.FLAWED, delay=1000)
        assert report.outcome is Outcome.SUCCEEDED
        assert report.keys_match
        assert report.attacker_key == report.victim_key
        assert report.attacker_key is not None

    def test_fixed_defeated_before_key_derivation(self):
        report = run_ephemeral_compromise_attack(7, Variant.FIXED, delay=1000)
        assert report.outcome is Outcome.DEFEATED
        assert report.reason == "BadSignature"
        assert report.victim_key is None
        assert report.attacker_key is None
        assert not report.keys_match
        assert not any(
            e.action == "DERIVE_KEY" for e in report.transcript.events
        )

    def test_zero_delay_is_strictly_easier(self):
        report = run_ephemeral_compromise_attack(7, Variant.FLAWED, delay=0)
        assert report.outcome is Outcome.SUCCEEDED
        assert report.keys_match
        with pytest.raises(ValueError, match="non-negative"):
            run_ephemeral_compromise_attack(1, Variant.FIXED, -1)

    def test_mirrored_direction(self):
        report = run_ephemeral_compromise_attack(7, Variant.FLAWED, impersonate=Role.CLIENT)
        assert report.keys_match

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
        response, y_victim = victim.send(accepted.peer_id, rng)
        victim_key = victim.derive(accepted, y_victim)
        adversary = Adversary(TOY_CURVE, impersonating=impersonate)
        assert adversary.compute_session_key(original, response, y) == victim_key
        assert adversary.compute_session_key(original, response, y + 1) != victim_key

    def test_rewrite_requires_the_trailing_field_shape(self):
        from ibaka.protocol import MalformedMessage
        with pytest.raises(MalformedMessage):
            Adversary.rewrite_timestamp(b"\x01\x02\x03", 5)
        # Well framed, but the final field has 7 bytes, not 8.
        wire = run_honest_exchange(1, Variant.FLAWED).transcript.events[0].payload
        short_t = wire[:-10] + (7).to_bytes(2, "big") + wire[-8:-1]
        with pytest.raises(MalformedMessage, match="trailing timestamp"):
            Adversary.rewrite_timestamp(short_t, 5)


class TestAttackReportSerialization:
    @pytest.mark.parametrize(
        "runner", [run_replay_attack, run_ephemeral_compromise_attack]
    )
    @pytest.mark.parametrize("variant", list(Variant))
    def test_json_document_shape(self, runner, variant):
        report = runner(3, variant)
        doc = json.loads(report.to_json())
        assert list(doc) == REPORT_KEYS
        assert doc["attack"] in ("REPLAY", "EPHEMERAL_COMPROMISE")
        assert doc["variant"] == variant.name
        assert doc["outcome"] in ("SUCCEEDED", "DEFEATED")
        for event in doc["events"]:
            assert list(event) == ["time", "actor", "action", "payload_hex"]
            bytes.fromhex(event["payload_hex"])

    def test_reports_are_deterministic(self):
        for runner in (run_replay_attack, run_ephemeral_compromise_attack):
            a = runner(11, Variant.FIXED)
            b = runner(11, Variant.FIXED)
            assert a.to_json() == b.to_json()

    def test_keys_match_implies_equal_keys(self):
        for seed in range(1, 20):
            report = run_ephemeral_compromise_attack(seed, Variant.FLAWED)
            if report.keys_match:
                assert report.attacker_key == report.victim_key
                assert report.attacker_key is not None

    def test_keys_match_is_derived_from_the_keys(self):
        def report(attacker_key, victim_key):
            return AttackReport(
                AttackKind.EPHEMERAL_COMPROMISE, Variant.FLAWED, Outcome.DEFEATED, None,
                attacker_key, victim_key, Transcript(LogicalClock()),
            )
        assert not report(None, None).keys_match
        assert not report(None, b"k").keys_match
        assert report(b"k", b"k").keys_match
        assert not report(b"k", b"j").keys_match

    def test_event_times_non_decreasing(self):
        report = run_replay_attack(2, Variant.FLAWED)
        times = [e.time for e in report.transcript.events]
        assert times == sorted(times)


class TestTamperField:
    def wire_and_context(self, variant):
        rng = DeterministicRandom(21)
        master = pkg_setup(TOY_CURVE, rng)
        keys = extract_key(master, SERVER_ID, rng)
        msg, _ = build_message(keys, CLIENT_ID, 100, variant, rng)
        return encode_message(TOY_CURVE, msg), master

    def rejected(self, wire, master, variant, now):
        from ibaka.group import PointNotOnCurve
        from ibaka.protocol import ProtocolError
        try:
            msg = decode_message(TOY_CURVE, wire)
            verify_message(TOY_CURVE, msg, CLIENT_ID, master.public, now, 10, variant)
        except (ProtocolError, PointNotOnCurve):
            return True
        return False

    @pytest.mark.parametrize("variant", list(Variant))
    def test_mu_mutation_rejected(self, variant):
        wire, master = self.wire_and_context(variant)
        mutated = tamper_field(wire, TamperField.MU, 0, 0x01)
        assert self.rejected(mutated, master, variant, now=100)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_sender_mutation_rejected(self, variant):
        wire, master = self.wire_and_context(variant)
        mutated = tamper_field(wire, TamperField.SENDER_ID, 0, 0x04)
        assert self.rejected(mutated, master, variant, now=100)

    def test_timestamp_mutation_accepted_under_flawed_when_fresh(self):
        wire, master = self.wire_and_context(Variant.FLAWED)
        mutated = tamper_field(wire, TamperField.T, 7, 0x0F)
        msg = decode_message(TOY_CURVE, mutated)
        verified = verify_message(
            TOY_CURVE, msg, CLIENT_ID, master.public, msg.t, 10, Variant.FLAWED
        )
        assert verified.peer_id == SERVER_ID

    def test_timestamp_mutation_rejected_under_fixed(self):
        wire, master = self.wire_and_context(Variant.FIXED)
        mutated = tamper_field(wire, TamperField.T, 7, 0x0F)
        assert self.rejected(mutated, master, Variant.FIXED, now=int.from_bytes(mutated[-8:], "big"))

    def test_byte_index_out_of_range(self):
        wire, _ = self.wire_and_context(Variant.FLAWED)
        with pytest.raises(FieldOutOfRange):
            tamper_field(wire, TamperField.MU, 5, 0x01)

    def test_zero_mask_rejected(self):
        wire, _ = self.wire_and_context(Variant.FLAWED)
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
