"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact (zero tolerance); the stated wall-clock budgets
are asserted where given.
"""

import contextlib
import itertools
import time
from pathlib import Path

import pytest

from ibaka.group import IDENTITY, Point, TOY_CURVE
from ibaka.ibs import Variant, _recovered_commitment, sign, verify_signature
from ibaka.protocol import (
    DEFAULT_WINDOW,
    BadSignature,
    MalformedMessage,
    _field_spans,
    decode_message,
    encode_message,
    verify_message,
)
from ibaka.sim import (
    CLIENT_ID,
    MessageOrder,
    Role,
    SERVER_ID,
    TamperField,
    _extracted,
    run_ephemeral_compromise_attack,
    run_honest_exchange,
    run_replay_attack,
    tamper_field,
)
from conftest import rejected, seeded_message
from test_golden_reports import checked_reports

GOLDEN_FILE = Path(__file__).parent / "golden" / "toy_messages.txt"


@contextlib.contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL [criterion {number}] {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nPASS [criterion {number}] {description} ({elapsed:.2f}s)")


def test_criterion_1_group_oracle_equivalence():
    with criterion(1, "scalar_mul equals repeated addition, all k in [0,38), all 19 points"):
        started = time.perf_counter()
        c = TOY_CURVE
        points = [IDENTITY] + [
            Point(x, y) for x in range(c.p) for y in range(c.p)
            if (y * y - (x ** 3 + c.a * x + c.b)) % c.p == 0
        ]
        assert len(points) == 19
        for u in points:
            running = IDENTITY
            for k in range(38):
                assert TOY_CURVE.mul(k, u) == running
                running = TOY_CURVE.add(running, u)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_signature_round_trip():
    with criterion(2, "1000 seeded sign/verify per variant accept with exact X recovery"):
        started = time.perf_counter()
        c = TOY_CURVE
        for variant, seed in itertools.product(Variant, range(1, 1001)):
            rng, master, [keys] = _extracted(seed, c, SERVER_ID)
            Y = c.mul(rng.scalar(c.q), c.gen)
            sig, X = sign(keys, CLIENT_ID, Y, 100, variant, rng)
            assert verify_signature(c, sig, SERVER_ID, CLIENT_ID, Y, 100, master.public, variant)
            assert _recovered_commitment(c, sig, SERVER_ID, master.public) == X
        assert time.perf_counter() - started < 5.0


def test_criterion_3_honest_key_agreement():
    with criterion(3, "100 seeds x 2 variants x 3 message orders all agree on the key"):
        started = time.perf_counter()
        for variant in Variant:
            for order in MessageOrder:
                for seed in range(1, 101):
                    result = run_honest_exchange(seed, variant, order)
                    assert result.server_key == result.client_key
        assert time.perf_counter() - started < 5.0


def test_criterion_4_replay_attack_matrix():
    with criterion(4, "replay: FLAWED 100/100 succeed; FIXED 100/100 rejected as expected"):
        for row in ("replay-flawed", "replay-fixed", "replay-fixed-no-rewrite"):
            checked_reports(row, Role.SERVER, range(1, 101))


def test_criterion_5_ephemeral_compromise_matrix():
    with criterion(5, "compromise: FLAWED 100/100 key match; FIXED 100/100 defeated early"):
        for row in ("ephemeral-flawed", "ephemeral-fixed"):
            checked_reports(row, Role.SERVER, range(1, 101))


def _mutation_for(seed, field_length):
    """Deterministic, seed-varied single-byte mutation inside a field."""
    return seed % field_length, (seed % 255) + 1


def _field_length(wire, field):
    start, end = _field_spans(wire)[field.value]
    return end - start


def _substitutes(msg):
    """Well-formed messages that differ from msg in one signed field: the
    sender, Y, R or mu.  Byte tampers of these fields mostly end in the codec;
    the substitutes decode, so only the signature can reject them.  2*u, not
    u + gen, since u + gen can be the identity."""
    sig = msg.sig
    return [
        msg._replace(sender_id="server-2"),
        msg._replace(Y=TOY_CURVE.mul(2, msg.Y)),
        msg._replace(sig=sig._replace(R=TOY_CURVE.mul(2, sig.R))),
        msg._replace(sig=sig._replace(mu=(sig.mu + 1) % TOY_CURVE.q)),
    ]


def test_criterion_6_binding_tamper_suite():
    bound_fields = (
        TamperField.SENDER_ID, TamperField.Y, TamperField.H,
        TamperField.MU, TamperField.R,
    )
    with criterion(6, "200 messages per variant: tampered or substituted bound fields "
                      "reject, t free only when FLAWED"):
        for variant in Variant:
            for seed in range(1, 201):
                master, msg, _ = seeded_message(seed, variant)
                wire = encode_message(TOY_CURVE, msg)

                for field in bound_fields:
                    index, mask = _mutation_for(seed, _field_length(wire, field))
                    mutated = tamper_field(wire, field, index, mask)
                    assert rejected(mutated, master, variant, now=100), (
                        variant, seed, field,
                    )

                for substitute in _substitutes(msg):
                    decoded = decode_message(TOY_CURVE, encode_message(TOY_CURVE, substitute))
                    with pytest.raises(BadSignature):
                        verify_message(
                            TOY_CURVE, decoded, CLIENT_ID, master.public,
                            100, DEFAULT_WINDOW, variant,
                        )

                index, mask = _mutation_for(seed, 8)
                moved = tamper_field(wire, TamperField.T, index, mask)
                new_t = int.from_bytes(moved[-8:], "big")
                # Verify at the mutated instant so the result is fresh.
                if variant is Variant.FLAWED:
                    decoded = decode_message(TOY_CURVE, moved)
                    verified = verify_message(
                        TOY_CURVE, decoded, CLIENT_ID, master.public,
                        new_t, 10, Variant.FLAWED,
                    )
                    assert verified.sender_id == SERVER_ID
                else:
                    assert rejected(moved, master, variant, now=new_t)


def test_criterion_7_determinism():
    with criterion(7, "same seed reproduces byte-identical transcripts and reports"):
        for seed in (1, 42, 99):
            exchange_a = run_honest_exchange(seed, Variant.FIXED, MessageOrder.PARALLEL)
            exchange_b = run_honest_exchange(seed, Variant.FIXED, MessageOrder.PARALLEL)
            assert exchange_a.to_json() == exchange_b.to_json()

            for variant in Variant:
                replay_a = run_replay_attack(seed, variant)
                replay_b = run_replay_attack(seed, variant)
                assert replay_a.to_json() == replay_b.to_json()

                compromise_a = run_ephemeral_compromise_attack(seed, variant)
                compromise_b = run_ephemeral_compromise_attack(seed, variant)
                assert compromise_a.to_json() == compromise_b.to_json()

            _, msg_a, _ = seeded_message(seed, Variant.FIXED)
            _, msg_b, _ = seeded_message(seed, Variant.FIXED)
            assert encode_message(TOY_CURVE, msg_a) == encode_message(TOY_CURVE, msg_b)


def _load_golden_vectors():
    vectors = []
    for line in GOLDEN_FILE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        entries = dict(part.split("=", 1) for part in line.split())
        vectors.append((int(entries["seed"]), Variant[entries["variant"]], entries["hex"]))
    return vectors


def test_criterion_8_wire_codec():
    with criterion(8, "1000 codec round trips, 50 truncations rejected, golden vectors match"):
        for variant in Variant:
            for seed in range(1, 501):
                _, msg, _ = seeded_message(seed, variant)
                wire = encode_message(TOY_CURVE, msg)
                assert decode_message(TOY_CURVE, wire) == msg

        for seed in range(1, 51):
            _, msg, _ = seeded_message(seed, Variant.FIXED)
            wire = encode_message(TOY_CURVE, msg)
            with pytest.raises(MalformedMessage):
                decode_message(TOY_CURVE, wire[:-1])

        vectors = _load_golden_vectors()
        assert len(vectors) == 20
        for seed, variant, expected_hex in vectors:
            _, msg, _ = seeded_message(seed, variant)
            assert encode_message(TOY_CURVE, msg).hex() == expected_hex
