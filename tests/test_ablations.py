"""One-field ablations of the signature digest H2, each run through `ibs._H2_FIELDS`.

An ablation drops one field from a variant's row of the table with
`monkeypatch.setitem`, so the signer and the verifier both run without it,
through the same code as FLAWED and FIXED.  For each variant and each dropped
field, one probe that the full digest rejects now gets through, and each test
pins on which seeds it does.  The probes are criterion 6's substitutes, the
reflection of `test_sim`'s `test_own_wire_reflected_back_fails_the_signature`,
and the attack table's FIXED rows.
"""

import pytest

from ibaka import ibs
from ibaka.group import TOY_CURVE
from ibaka.ibs import Variant
from ibaka.protocol import DEFAULT_WINDOW, encode_message
from ibaka.sim import ATTACK_TABLE, Role, _setup
from conftest import rejected, seeded_message
from test_acceptance import _substitutes

SEEDS = range(1, 51)

# The index in `_substitutes` of the probe for each dropped field.  mu + 1
# probes X: it moves the recovered commitment X' and no other signed field.
SUBSTITUTE = {"sender": 0, "Y": 1, "R": 2, "X": 3}


def drop(monkeypatch, variant, field):
    fields = ibs._H2_FIELDS[variant]
    assert field in fields
    monkeypatch.setitem(ibs._H2_FIELDS, variant, tuple(f for f in fields if f != field))


def test_the_repair_is_t_alone():
    assert ibs._H2_FIELDS[Variant.FIXED] == ibs._H2_FIELDS[Variant.FLAWED] + ("t",)


# Seeds in SEEDS on which the substitute for the dropped field verifies.
# Once Y or X is dropped, nothing signed depends on its substitute; the sender
# and R sets are TOY coincidences (see the secp256k1 test below).
ACCEPTED = {
    (Variant.FLAWED, "sender"): {3, 4, 20, 39, 48},
    (Variant.FIXED, "sender"): {3, 20, 31, 39},
    (Variant.FLAWED, "Y"): set(SEEDS),
    (Variant.FIXED, "Y"): set(SEEDS),
    (Variant.FLAWED, "R"): {20, 36, 43},
    (Variant.FIXED, "R"): {11, 20, 26, 36, 43},
    (Variant.FLAWED, "X"): set(SEEDS),
    (Variant.FIXED, "X"): set(SEEDS),
}


@pytest.mark.parametrize("variant, field", ACCEPTED)
def test_dropped_field_admits_its_substitute(monkeypatch, variant, field):
    drop(monkeypatch, variant, field)
    accepted = set()
    for seed in SEEDS:
        master, msg, _ = seeded_message(seed, variant)
        wire = encode_message(TOY_CURVE, _substitutes(msg)[SUBSTITUTE[field]])
        if not rejected(wire, master, variant, now=100):
            accepted.add(seed)
    assert accepted == ACCEPTED[variant, field]


@pytest.mark.parametrize("variant", Variant)
def test_dropped_recipient_admits_a_partys_own_wire(monkeypatch, variant):
    drop(monkeypatch, variant, "recipient")
    for seed in SEEDS:
        rng, server, client = _setup(seed, variant, DEFAULT_WINDOW, TOY_CURVE)
        for party, peer in ((server, client), (client, server)):
            wire, _ = party.send(peer.id, rng)
            assert party.receive(wire).sender_id == party.id


def test_fixed_without_t_takes_the_flawed_verdicts(monkeypatch):
    """With t dropped, FIXED signs what FLAWED signs: each FIXED row of the
    attack table ends with its FLAWED twin's verdict and transcript, for both
    roles on seeds 1-10.  Only replay-fixed and ephemeral-fixed change verdict;
    StaleTimestamp and delay 0 decide the other two rows without t."""
    drop(monkeypatch, Variant.FIXED, "t")
    changed = set()
    for name, (run, variant, options, verdict) in ATTACK_TABLE.items():
        if variant is not Variant.FIXED:
            continue
        _, flawed, flawed_options, flawed_verdict = ATTACK_TABLE[name.replace("fixed", "flawed")]
        for seed in range(1, 11):
            for role in Role:
                report = run(seed, variant, impersonate=role, **options)
                twin = run(seed, flawed, impersonate=role, **flawed_options)
                assert report.verdict == flawed_verdict, (name, seed, role)
                assert report.transcript.events == twin.transcript.events
        if verdict != flawed_verdict:
            changed.add(name)
    assert changed == {"replay-fixed", "ephemeral-fixed"}


@pytest.mark.parametrize("variant", Variant)
def test_secp256k1_admits_only_the_y_and_x_substitutes(monkeypatch, production_curve, variant):
    """On secp256k1, seeds 1-3, dropping Y or X still lets its substitute
    through, but dropping the sender or R does not.  H1 binds both into the
    checkpoint R + H1(sender, R)*P_pub, and so into the recovered commitment
    X', which H2 still hashes.  The TOY acceptances for those two fields are
    coincidences mod 19: h = 0, so that X' = mu*gen whatever the checkpoint,
    or a substitute checkpoint equal to the signer's (for the sender, an H1
    collision)."""
    curve = production_curve
    for field, admitted in (("sender", False), ("Y", True), ("R", False), ("X", True)):
        with monkeypatch.context() as patch:
            drop(patch, variant, field)
            for seed in (1, 2, 3):
                master, msg, _ = seeded_message(seed, variant, curve=curve)
                wire = encode_message(curve, _substitutes(msg, curve)[SUBSTITUTE[field]])
                assert rejected(wire, master, variant, 100, curve) is not admitted, (field, seed)
