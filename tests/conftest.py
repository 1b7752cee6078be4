"""Shared test inputs: the curve files, one seeded message and one rejection rule.

`seeded_message(seed, variant, now)` is the draw rule of
golden/toy_messages.txt.  One DeterministicRandom(seed) draws the PKG master
key, the server's key and the client's key (`sim._extracted` with SERVER_ID,
then CLIENT_ID), then the server's message to the client (`build_message`:
the ephemeral y, then the signature's x).  A test that needs more draws makes
them after these, so every seeded message stays the same.

`rejected(wire, master, variant, now)` is True when the client's decode and
verify of `wire` at `now` raises a `ProtocolError`.  Any other exception
escapes, so an off-curve point that leaves the codec unwrapped fails the test.
"""

import pathlib

import pytest

from ibaka.group import TOY_CURVE, load_curve_file
from ibaka.protocol import (
    DEFAULT_WINDOW,
    ProtocolError,
    build_message,
    decode_message,
    verify_message,
)
from ibaka.sim import CLIENT_ID, SERVER_ID, _extracted

SECP256K1_FILE = pathlib.Path(__file__).parent / "data" / "secp256k1.txt"

# TOY_CURVE as a curve file.
TOY_FILE = """\
# desk-scale curve
p = 17
a = 2
b = 2
gx = 5
gy = 1
q = 19
"""


@pytest.fixture(scope="session")
def production_curve():
    """A 256-bit curve loaded through the external-parameter path."""
    return load_curve_file(SECP256K1_FILE)


def seeded_message(seed, variant, now=100):
    """(master, msg, y): the server's TOY message to the client, stamped `now`."""
    rng, master, [server, _] = _extracted(seed, TOY_CURVE, SERVER_ID, CLIENT_ID)
    msg, y = build_message(server, CLIENT_ID, now, variant, rng)
    return master, msg, y


def rejected(wire, master, variant, now):
    """Whether the client rejects `wire` at `now` with a ProtocolError."""
    try:
        msg = decode_message(TOY_CURVE, wire)
        verify_message(TOY_CURVE, msg, CLIENT_ID, master.public, now, DEFAULT_WINDOW, variant)
    except ProtocolError:
        return True
    return False
