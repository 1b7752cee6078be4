import hashlib
from itertools import accumulate

import pytest

from ibaka.group import IDENTITY, Point, TOY_CURVE
from ibaka.ibs import Signature, Variant, ticks_to_bytes
from ibaka.protocol import (
    BadSignature,
    FutureTimestamp,
    InvalidPeerPoint,
    MalformedMessage,
    OffCurvePoint,
    StaleTimestamp,
    build_message,
    decode_message,
    derive_session_key,
    encode_message,
    verify_message,
)
from ibaka.rand import DeterministicRandom
from ibaka.sim import CLIENT_ID, SERVER_ID, _extracted
from conftest import seeded_message


def fields_of(wire):
    """Split an encoded message into its six raw fields."""
    assert wire[0] == 0x01
    fields = []
    pos = 1
    for _ in range(6):
        length = int.from_bytes(wire[pos:pos + 2], "big")
        fields.append(wire[pos + 2:pos + 2 + length])
        pos += 2 + length
    assert pos == len(wire)
    return fields


def wire_from(fields):
    out = bytearray([0x01])
    for field in fields:
        out += len(field).to_bytes(2, "big") + field
    return bytes(out)


class TestFreshness:
    """verify_message's window edges, on a FLAWED message stamped t = 100 with
    window 10: t must lie in [now - 10, now + 10]."""

    @staticmethod
    def verify_at(now, window=10, t=100):
        master, msg, _ = seeded_message(11, Variant.FLAWED, now=100)
        return verify_message(
            TOY_CURVE, msg._replace(t=t), CLIENT_ID, master.public, now, window, Variant.FLAWED
        )

    def test_t_past_now_plus_window_is_future(self):
        with pytest.raises(FutureTimestamp, match=r"^t=100 beyond 89\+10$"):
            self.verify_at(89)

    def test_t_at_now_plus_window_verifies(self):
        assert self.verify_at(90).t == 100

    def test_t_at_now_minus_window_verifies(self):
        assert self.verify_at(110).t == 100

    def test_t_before_now_minus_window_is_stale(self):
        with pytest.raises(StaleTimestamp, match=r"^t=100 older than 111-10$"):
            self.verify_at(111)

    def test_negative_window_rejects_every_t(self):
        # now + window < now - window, so no t is fresh: t < now - window = 105
        # is stale, and the rest is future.
        for t in range(90, 111):
            with pytest.raises(StaleTimestamp if t < 105 else FutureTimestamp):
                self.verify_at(100, window=-5, t=t)


class TestBuildAndVerify:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_round_trip_same_clock(self, variant):
        master, msg, _ = seeded_message(11, variant)
        verified = verify_message(
            TOY_CURVE, msg, CLIENT_ID, master.public, 100, 10, variant
        )
        assert verified.sender_id == SERVER_ID
        assert verified is msg

    def test_ephemeral_point_always_valid(self):
        rng, _, [keys] = _extracted(1, TOY_CURVE, SERVER_ID)
        for _ in range(1000):
            msg, y = build_message(keys, CLIENT_ID, 100, Variant.FLAWED, rng)
            assert not msg.Y.is_identity
            assert TOY_CURVE.is_on_curve(msg.Y)
            assert 1 <= y < TOY_CURVE.q

    def test_stale_timestamp(self):
        master, msg, _ = seeded_message(11, Variant.FLAWED, now=100)
        with pytest.raises(StaleTimestamp):
            verify_message(TOY_CURVE, msg, CLIENT_ID, master.public, 200, 10, Variant.FLAWED)

    def test_future_timestamp(self):
        master, msg, _ = seeded_message(11, Variant.FLAWED, now=300)
        with pytest.raises(FutureTimestamp):
            verify_message(TOY_CURVE, msg, CLIENT_ID, master.public, 100, 10, Variant.FLAWED)

    def test_flawed_accepts_any_fresh_rewritten_timestamp(self):
        master, msg, _ = seeded_message(11, Variant.FLAWED, now=100)
        for new_t in (150, 1000, 2 ** 50):
            moved = msg._replace(t=new_t)
            verified = verify_message(
                TOY_CURVE, moved, CLIENT_ID, master.public, new_t, 10, Variant.FLAWED
            )
            assert verified.sender_id == SERVER_ID

    def test_fixed_rejects_rewritten_timestamp(self):
        master, msg, _ = seeded_message(11, Variant.FIXED, now=100)
        for new_t in (101, 150, 1000):
            moved = msg._replace(t=new_t)
            with pytest.raises(BadSignature):
                verify_message(
                    TOY_CURVE, moved, CLIENT_ID, master.public, new_t, 10, Variant.FIXED
                )

    def test_wrong_recipient_rejected(self):
        master, msg, _ = seeded_message(11, Variant.FLAWED)
        with pytest.raises(BadSignature):
            verify_message(TOY_CURVE, msg, "sensor-8", master.public, 100, 10, Variant.FLAWED)

    def test_freshness_checked_before_signature(self):
        # A stale message with a broken signature reports staleness.
        master, msg, _ = seeded_message(11, Variant.FIXED, now=100)
        broken = msg._replace(sig=Signature(b"\x00" * 32, 0, msg.sig.R))
        with pytest.raises(StaleTimestamp):
            verify_message(TOY_CURVE, broken, CLIENT_ID, master.public, 500, 10, Variant.FIXED)


class TestSessionKey:
    def test_both_sides_agree(self):
        rng = DeterministicRandom(6)
        y_server = rng.scalar(TOY_CURVE.q)
        y_client = rng.scalar(TOY_CURVE.q)
        Y_server = TOY_CURVE.mul(y_server, TOY_CURVE.gen)
        Y_client = TOY_CURVE.mul(y_client, TOY_CURVE.gen)
        server_key = derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, y_server, Y_client)
        client_key = derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, y_client, Y_server)
        assert server_key == client_key
        assert len(server_key) == 32

    def test_identity_order_matters(self):
        y = 2
        Y = TOY_CURVE.mul(3, TOY_CURVE.gen)
        a = derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, y, Y)
        b = derive_session_key(TOY_CURVE, CLIENT_ID, SERVER_ID, y, Y)
        assert a != b

    def test_frozen_toy_vector(self):
        # y_server=2, y_client=3: both sides hash the encoding of 6*gen,
        # with 6*gen computed here by repeated addition.
        shared = IDENTITY
        for _ in range(6):
            shared = TOY_CURVE.add(shared, TOY_CURVE.gen)
        point_bytes = TOY_CURVE.encode_point(shared)
        expected = hashlib.sha256(
            b"\x03"
            + len(b"server-1").to_bytes(2, "big") + b"server-1"
            + len(b"sensor-7").to_bytes(2, "big") + b"sensor-7"
            + len(point_bytes).to_bytes(2, "big") + point_bytes
        ).digest()
        Y_client = TOY_CURVE.mul(3, TOY_CURVE.gen)
        Y_server = TOY_CURVE.mul(2, TOY_CURVE.gen)
        assert derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, 2, Y_client) == expected
        assert derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, 3, Y_server) == expected

    def test_identity_peer_rejected(self):
        with pytest.raises(InvalidPeerPoint):
            derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, 2, IDENTITY)

    def test_off_curve_peer_rejected(self):
        with pytest.raises(InvalidPeerPoint):
            derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, 2, Point(0, 0))


class TestWireCodec:
    def test_timestamp_is_the_final_ten_bytes(self):
        _, msg, _ = seeded_message(1, Variant.FLAWED, now=100)
        wire = encode_message(TOY_CURVE, msg)
        assert wire[-10:-8] == (8).to_bytes(2, "big")
        assert int.from_bytes(wire[-8:], "big") == 100

    def test_every_truncation_rejected(self):
        """Every cut is rejected, and one that ends a byte into any of the six
        length prefixes is rejected by the prefix check itself."""
        _, msg, _ = seeded_message(1, Variant.FIXED)
        wire = encode_message(TOY_CURVE, msg)
        prefix_starts = list(accumulate((2 + len(f) for f in fields_of(wire)), initial=1))[:-1]
        for cut in range(len(wire)):
            match = "truncated length prefix" if cut - 1 in prefix_starts else None
            with pytest.raises(MalformedMessage, match=match):
                decode_message(TOY_CURVE, wire[:cut])

    def test_trailing_bytes_rejected(self):
        _, msg, _ = seeded_message(1, Variant.FIXED)
        wire = encode_message(TOY_CURVE, msg)
        with pytest.raises(MalformedMessage):
            decode_message(TOY_CURVE, wire + b"\x00")

    def test_wrong_version_rejected(self):
        _, msg, _ = seeded_message(1, Variant.FIXED)
        wire = encode_message(TOY_CURVE, msg)
        for version in [0x00, 0x02]:
            with pytest.raises(MalformedMessage, match="unsupported version byte"):
                decode_message(TOY_CURVE, bytes([version]) + wire[1:])

    def test_bad_utf8_sender_rejected(self):
        """Invalid bytes, a lone continuation byte and an encoded surrogate
        all fail identity_bytes's UTF-8 rule."""
        _, msg, _ = seeded_message(1, Variant.FIXED)
        fields = fields_of(encode_message(TOY_CURVE, msg))
        for raw_id in [b"\xff\xfe", b"\x80", b"\xed\xa0\x80"]:
            fields[0] = raw_id
            with pytest.raises(MalformedMessage, match="identity must be valid UTF-8 text"):
                decode_message(TOY_CURVE, wire_from(fields))

    def test_empty_sender_rejected(self):
        fields = fields_of(encode_message(TOY_CURVE, seeded_message(1, Variant.FIXED)[1]))
        fields[0] = b""
        with pytest.raises(MalformedMessage):
            decode_message(TOY_CURVE, wire_from(fields))

    def test_identity_points_rejected(self):
        fields = fields_of(encode_message(TOY_CURVE, seeded_message(1, Variant.FIXED)[1]))
        for index in (1, 4):
            mutated = list(fields)
            mutated[index] = b"\x00"
            with pytest.raises(MalformedMessage):
                decode_message(TOY_CURVE, wire_from(mutated))

    def test_off_curve_point_rejected(self):
        fields = fields_of(encode_message(TOY_CURVE, seeded_message(1, Variant.FIXED)[1]))
        for index in (1, 4):
            mutated = list(fields)
            mutated[index] = bytes([0x04, 0x00, 0x00])
            with pytest.raises(OffCurvePoint):
                decode_message(TOY_CURVE, wire_from(mutated))

    def test_mu_out_of_range_rejected(self):
        msg = seeded_message(1, Variant.FIXED)[1]
        fields = fields_of(encode_message(TOY_CURVE, msg))
        fields[3] = bytes([TOY_CURVE.q])
        with pytest.raises(MalformedMessage):
            decode_message(TOY_CURVE, wire_from(fields))
        with pytest.raises(MalformedMessage):
            encode_message(TOY_CURVE, msg._replace(
                sig=msg.sig._replace(mu=TOY_CURVE.q)))

    def test_wrong_mu_width_rejected(self, production_curve):
        # A leading zero byte would otherwise give one message a second encoding.
        for curve in (TOY_CURVE, production_curve):
            rng, _, [keys] = _extracted(5, curve, SERVER_ID)
            msg, _ = build_message(keys, CLIENT_ID, 100, Variant.FIXED, rng)
            fields = fields_of(encode_message(curve, msg))
            for raw_mu in (b"\x00" + fields[3], fields[3][1:]):
                mutated = list(fields)
                mutated[3] = raw_mu
                with pytest.raises(MalformedMessage, match="width"):
                    decode_message(curve, wire_from(mutated))

    def test_wrong_digest_length_rejected(self):
        msg = seeded_message(1, Variant.FIXED)[1]
        fields = fields_of(encode_message(TOY_CURVE, msg))
        fields[2] = fields[2][:31]
        with pytest.raises(MalformedMessage):
            decode_message(TOY_CURVE, wire_from(fields))
        with pytest.raises(MalformedMessage):
            encode_message(TOY_CURVE, msg._replace(
                sig=msg.sig._replace(h=msg.sig.h[:31])))

    def test_wrong_timestamp_width_rejected(self):
        fields = fields_of(encode_message(TOY_CURVE, seeded_message(1, Variant.FIXED)[1]))
        fields[5] = fields[5][:4]
        with pytest.raises(MalformedMessage):
            decode_message(TOY_CURVE, wire_from(fields))
        for ticks in (1 << 64, -1):
            with pytest.raises(ValueError):
                ticks_to_bytes(ticks)

    def test_encode_rejects_identity_ephemeral(self):
        _, msg, _ = seeded_message(1, Variant.FIXED)
        bad = msg._replace(Y=IDENTITY)
        with pytest.raises(MalformedMessage):
            encode_message(TOY_CURVE, bad)

    def test_codec_on_production_curve(self, production_curve):
        rng, master, [keys] = _extracted(5, production_curve, SERVER_ID)
        msg, _ = build_message(keys, CLIENT_ID, 100, Variant.FIXED, rng)
        wire = encode_message(production_curve, msg)
        assert decode_message(production_curve, wire) == msg
        verified = verify_message(
            production_curve, msg, CLIENT_ID, master.public, 100, 10, Variant.FIXED
        )
        assert verified.sender_id == SERVER_ID
