"""Property tests on TOY_CURVE: the wire codec round-trips, and every
single-byte change to a field the signature binds is rejected.

Runs are derandomized and keep no example database, so each run draws the
same examples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant
from ibaka.protocol import ProtocolError, build_message, decode_message, encode_message
from ibaka.sim import TamperField, _field_spans, _setup, tamper_field

reproducible = settings(derandomize=True, database=None, max_examples=200, deadline=None)

seeds = st.integers(min_value=0, max_value=2 ** 32)
variants = st.sampled_from(Variant)


def server_wire(seed, variant):
    """The client and the server's first encoded message toward it, not yet recorded."""
    rng, server, client = _setup(seed, variant, 10, TOY_CURVE)
    msg, _ = build_message(server.keys, client.id, server.clock.now, variant, rng)
    return client, encode_message(TOY_CURVE, msg)


@reproducible
@given(seed=seeds, variant=variants, t=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_codec_round_trip(seed, variant, t):
    rng, server, client = _setup(seed, variant, 10, TOY_CURVE)
    msg, _ = build_message(server.keys, client.id, t, variant, rng)
    assert decode_message(TOY_CURVE, encode_message(TOY_CURVE, msg)) == msg


def assert_tamper_rejected(data, variant, fields):
    seed = data.draw(seeds, label="seed")
    field = data.draw(st.sampled_from(fields), label="field")
    client, wire = server_wire(seed, variant)
    start, end = _field_spans(wire)[field.value]
    index = data.draw(st.integers(min_value=0, max_value=end - start - 1), label="index")
    mask = data.draw(st.integers(min_value=1, max_value=0xFF), label="mask")
    tampered = tamper_field(wire, field, index, mask)
    # Receive at the tampered message's own instant, so a changed timestamp
    # is judged by the signature and not by the freshness window.
    t_start, t_end = _field_spans(tampered)[TamperField.T.value]
    client.clock.now = int.from_bytes(tampered[t_start:t_end], "big")
    with pytest.raises(ProtocolError):
        client.receive(tampered)


@reproducible
@given(data=st.data())
def test_every_single_byte_tamper_rejected_under_fixed(data):
    assert_tamper_rejected(data, Variant.FIXED, list(TamperField))


@reproducible
@given(data=st.data())
def test_every_single_byte_tamper_except_t_rejected_under_flawed(data):
    bound = [field for field in TamperField if field is not TamperField.T]
    assert_tamper_rejected(data, Variant.FLAWED, bound)
