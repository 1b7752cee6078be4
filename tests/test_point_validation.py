"""The remaining point checks reject every off-curve point of TOY_CURVE.

Points are checked where they enter: decode_point for wire bytes, mul and add
for their operands, verify_signature for R and Y, derive_session_key for the
peer's Y.  The tests walk all 17^2 - 18 = 271 off-curve pairs (x, y) in F_17^2.
"""

import pytest

from ibaka.group import Point, PointNotOnCurve, TOY_CURVE
from ibaka.ibs import Variant, sign, verify_signature
from ibaka.protocol import InvalidPeerPoint, derive_session_key
from ibaka.sim import CLIENT_ID, SERVER_ID, _extracted

TICKS = 100

# Straight from y^2 = x^3 + 2x + 2 over F_17, not from Curve.is_on_curve.
OFF_CURVE = [
    Point(x, y)
    for x in range(17)
    for y in range(17)
    if (y * y - x ** 3 - 2 * x - 2) % 17
]


def test_decode_rejects_every_off_curve_pair():
    assert len(OFF_CURVE) == 271
    for u in OFF_CURVE:
        with pytest.raises(PointNotOnCurve):
            TOY_CURVE.decode_point(bytes([0x04, u.x, u.y]))


def test_mul_and_add_reject_every_off_curve_pair():
    gen = TOY_CURVE.gen
    for u in OFF_CURVE:
        for k in (1, -1, 5):
            with pytest.raises(PointNotOnCurve):
                TOY_CURVE.mul(k, u)
        with pytest.raises(PointNotOnCurve):
            TOY_CURVE.add(u, gen)
        with pytest.raises(PointNotOnCurve):
            TOY_CURVE.add(gen, u)


def test_derive_session_key_rejects_every_off_curve_pair():
    for u in OFF_CURVE:
        with pytest.raises(InvalidPeerPoint):
            derive_session_key(TOY_CURVE, SERVER_ID, CLIENT_ID, 5, u)


@pytest.mark.parametrize("variant", list(Variant))
def test_verify_signature_is_false_for_every_off_curve_pair(variant):
    rng, master, [keys] = _extracted(1, TOY_CURVE, SERVER_ID)
    Y = TOY_CURVE.mul(rng.scalar(TOY_CURVE.q), TOY_CURVE.gen)
    sig, _ = sign(keys, CLIENT_ID, Y, TICKS, variant, rng)

    def verifies(sig, Y):
        return verify_signature(
            TOY_CURVE, sig, SERVER_ID, CLIENT_ID, Y, TICKS, master.public, variant
        )

    assert verifies(sig, Y)
    for u in OFF_CURVE:
        assert verifies(sig._replace(R=u), Y) is False
        assert verifies(sig, u) is False
