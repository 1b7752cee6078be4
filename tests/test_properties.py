"""Property tests on TOY_CURVE: the wire codec round-trips, every
single-byte change to a field the signature binds is rejected, and a report
is the text `json.dumps(..., indent=2)` would write.

Runs are derandomized and keep no example database, so each run draws the
same examples.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant
from ibaka.protocol import (
    ProtocolError,
    _field_spans,
    build_message,
    decode_message,
    encode_message,
)
from ibaka import sim
from ibaka.sim import TamperField, _setup, tamper_field

reproducible = settings(derandomize=True, database=None, max_examples=200, deadline=None)

seeds = st.integers(min_value=0, max_value=2 ** 32)
variants = st.sampled_from(Variant)


def server_wire(seed, variant):
    """The client and the server's first wire toward it.  The client's window
    of 2^64 ticks makes every 64-bit t fresh, so a changed timestamp is
    judged by the signature and not by the freshness window."""
    rng, server, client = _setup(seed, variant, 2 ** 64, TOY_CURVE)
    wire, _ = server.send(client.id, rng)
    return client, wire


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


texts = st.text(max_size=8)
# The characters JSON escapes (quotes, backslash, controls) and non-ASCII
# ones, which `json.dumps` writes as \u escapes, in every field at once; the
# example's 0 and 1 would read as False and True to a test by `==`.
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'


def event_dicts(transcript):
    return [{"time": e.time, "actor": e.actor, "action": e.action,
             "payload_hex": e.payload.hex()} for e in transcript.events]


@reproducible
@given(
    doc=st.dictionaries(texts.filter(lambda key: key != "events"),
                        st.one_of(texts, st.none(), st.booleans(), st.integers()), max_size=8),
    events=st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 64 - 1), texts, texts,
                              st.binary(max_size=40)), max_size=8),
)
@example(doc={ESCAPED: ESCAPED, "0": 0, "1": 1, "n": None, "t": True, "f": False},
         events=[(2 ** 64 - 1, ESCAPED, ESCAPED, b"\x00\xff")])
def test_report_text_is_json_dumps_text(doc, events):
    transcript = sim.Transcript(sim.LogicalClock())
    transcript.events = [sim.TranscriptEvent(*event) for event in events]
    expected = json.dumps({**doc, "events": event_dicts(transcript)}, indent=2) + "\n"
    assert sim._report_json(transcript, doc) == expected


@pytest.mark.parametrize("run", [
    lambda: sim.run_honest_exchange(3, Variant.FIXED, sim.MessageOrder.PARALLEL),
    lambda: sim.run_replay_attack(7, Variant.FIXED),
], ids=["ExchangeResult", "AttackReport"])
def test_a_report_is_json_dumps_text(run):
    report = run()
    text = report.to_json()
    doc = json.loads(text)
    assert doc["events"] == event_dicts(report.transcript)
    assert text == json.dumps(doc, indent=2) + "\n"
