"""Hostile wire input ends as a typed ProtocolError wherever it enters.

The adversary's timestamp rewrite and tamper_field use the codec's own field
parser, so they reject every framing fault that decode_message rejects, and an
off-curve point is a recorded MalformedMessage, not a bare ValueError.
"""

import pytest

from ibaka.group import PointNotOnCurve, TOY_CURVE
from ibaka.ibs import Variant
from ibaka.protocol import MalformedMessage, OffCurvePoint, ProtocolError, _field_spans
from ibaka.sim import Adversary, TamperField, _setup, tamper_field


def seeded_exchange():
    """The seed-1 client and the server's first wire toward it, recorded as its SEND."""
    rng, server, client = _setup(1, Variant.FLAWED, 10, TOY_CURVE)
    wire, _ = server.send(client.id, rng)
    return client, wire


def hostile_wires():
    _, wire = seeded_exchange()
    h_start, _ = _field_spans(wire)[TamperField.H.value]
    return [
        bytes([0x02]) + wire[1:],
        # One byte cut out of the digest; the trailing timestamp stays intact.
        wire[:h_start + 5] + wire[h_start + 6:],
    ]


def test_rewrite_timestamp_rejects_malformed_framing():
    for wire in hostile_wires():
        assert wire[-10:-8] == (8).to_bytes(2, "big")
        with pytest.raises(MalformedMessage):
            Adversary.rewrite_timestamp(wire, 1100)


def test_tamper_field_rejects_malformed_framing():
    for wire in hostile_wires():
        with pytest.raises(MalformedMessage):
            tamper_field(wire, TamperField.MU, 0, 0x01)


def test_off_curve_delivery_is_a_recorded_protocol_error():
    client, wire = seeded_exchange()
    tampered = tamper_field(wire, TamperField.Y, 2, 1)
    with pytest.raises(ProtocolError) as caught:
        client.receive(tampered)
    assert isinstance(caught.value, OffCurvePoint)
    assert isinstance(caught.value, PointNotOnCurve)
    events = client.transcript.events[1:]
    assert [e.action for e in events] == ["VERIFY_FAIL(OffCurvePoint)"]
    assert events[0].payload == tampered
    with pytest.raises(OffCurvePoint):
        client.receive(tampered)
