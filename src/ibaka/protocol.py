"""The two-message exchange: build, verify, derive, and the wire codec.

Each party sends one message `sender_id || Y || (h, mu, R) || t` and the two
messages are completely independent, so they can travel in either order or
in parallel.  Verification checks timestamp freshness first, then the
signature; the session key hashes both identities (server first) together
with the Diffie-Hellman point y'Y.

Wire format (versioned, bit-exact):

    0x01                       version byte
    len16 || sender_id         UTF-8 identity
    len16 || point(Y)          ephemeral public key
    len16 || h                 32-byte signature digest
    len16 || mu                scalar, fixed width of q
    len16 || point(R)          long-term public key
    len16 || t                 8-byte big-endian tick count

with len16 a 2-byte big-endian length; TamperField names the six fields in
this order.  The timestamp is the final field, so the unauthenticated-bytes
attack needs only trailing-byte surgery.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .group import Curve, MalformedEncoding, Point, PointNotOnCurve
from .ibs import (
    DIGEST_SIZE,
    InvalidIdentity,
    EntityKeyPair,
    Signature,
    Variant,
    DOMAIN_H3,
    hash_fields,
    identity_bytes,
    sign,
    ticks_to_bytes,
    verify_signature,
)

WIRE_VERSION = 0x01

# Symmetric freshness tolerance, in logical ticks.
DEFAULT_WINDOW = 10


class ProtocolError(Exception):
    pass


class StaleTimestamp(ProtocolError):
    pass


class FutureTimestamp(ProtocolError):
    pass


class BadSignature(ProtocolError):
    pass


class MalformedMessage(ProtocolError):
    pass


class OffCurvePoint(MalformedMessage, PointNotOnCurve):
    pass


class InvalidPeerPoint(ProtocolError):
    pass


class TamperField(Enum):
    """The six wire fields, in encoding order."""

    SENDER_ID = 0
    Y = 1
    H = 2
    MU = 3
    R = 4
    T = 5


ProtocolMessage = namedtuple("ProtocolMessage", "sender_id Y sig t")


def build_message(
    keys: EntityKeyPair,
    peer_id: str,
    now: int,
    variant: Variant,
    rng,
) -> tuple[ProtocolMessage, int]:
    """Create one protocol message; returns it with the ephemeral secret y.

    The signing-side ephemeral x is consumed inside sign() and never stored;
    only y survives, for exactly one key derivation.
    """
    y = rng.scalar(keys.curve.q)
    Y = keys.curve.mul(y, keys.curve.gen)
    sig, _ = sign(keys, peer_id, Y, now, variant, rng)
    return ProtocolMessage(keys.identity, Y, sig, now), y


def check_freshness(t: int, now: int, window: int) -> bool:
    """True iff t lies within the symmetric window around now."""
    return now - window <= t <= now + window


def verify_message(
    curve: Curve,
    msg: ProtocolMessage,
    self_id: str,
    master_public: Point,
    now: int,
    window: int,
    variant: Variant,
) -> ProtocolMessage:
    """Freshness first, then the signature, with the verifier's own identity
    as recipient (it is never taken from the wire); returns `msg` once verified.

    Raises StaleTimestamp, FutureTimestamp, or BadSignature; distinguishable
    so attack reports can name the defeating check.
    """
    if not check_freshness(msg.t, now, window):
        if msg.t < now:
            raise StaleTimestamp(f"t={msg.t} older than {now}-{window}")
        raise FutureTimestamp(f"t={msg.t} beyond {now}+{window}")
    ok = verify_signature(
        curve, msg.sig, msg.sender_id, self_id, msg.Y, msg.t, master_public, variant
    )
    if not ok:
        raise BadSignature(f"signature by {msg.sender_id!r} does not verify")
    return msg


def derive_session_key(
    curve: Curve,
    server_id: str,
    client_id: str,
    own_secret: int,
    peer_Y: Point,
) -> bytes:
    """256-bit session key: hash of (server id, client id, shared point).

    Both sides call this with the same identity order regardless of role, so
    honest runs agree: y_s*(y_c*gen) == y_c*(y_s*gen).
    """
    if peer_Y.is_identity or not curve.is_on_curve(peer_Y):
        raise InvalidPeerPoint("peer ephemeral key must be a non-identity curve point")
    shared = curve.mul(own_secret, peer_Y)
    return hash_fields(
        DOMAIN_H3,
        identity_bytes(server_id),
        identity_bytes(client_id),
        curve.encode_point(shared),
    )


def encode_message(curve: Curve, msg: ProtocolMessage) -> bytes:
    if msg.Y.is_identity or msg.sig.R.is_identity:
        raise MalformedMessage("ephemeral and long-term keys must be non-identity")
    if len(msg.sig.h) != DIGEST_SIZE:
        raise MalformedMessage("signature digest must be 32 bytes")
    if not 0 <= msg.sig.mu < curve.q:
        raise MalformedMessage("mu out of range")
    fields = (
        identity_bytes(msg.sender_id),
        curve.encode_point(msg.Y),
        msg.sig.h,
        msg.sig.mu.to_bytes(curve.scalar_size, "big"),
        curve.encode_point(msg.sig.R),
        ticks_to_bytes(msg.t),
    )
    return bytes([WIRE_VERSION]) + b"".join(len(f).to_bytes(2, "big") + f for f in fields)


def _field_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of each TamperField in order; the only code that reads the framing."""
    if not data:
        raise MalformedMessage("empty message")
    if data[0] != WIRE_VERSION:
        raise MalformedMessage(f"unsupported version byte {data[0]:#04x}")
    spans = []
    pos = 1
    for _ in range(len(TamperField)):
        if pos + 2 > len(data):
            raise MalformedMessage("truncated length prefix")
        length = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        if pos + length > len(data):
            raise MalformedMessage("truncated field")
        spans.append((pos, pos + length))
        pos += length
    if pos != len(data):
        raise MalformedMessage("trailing bytes after final field")
    return spans


def _decode_wire_point(curve: Curve, raw: bytes, what: str) -> Point:
    try:
        point = curve.decode_point(raw)
    except MalformedEncoding as exc:
        raise MalformedMessage(f"{what}: {exc}") from exc
    except PointNotOnCurve as exc:
        raise OffCurvePoint(f"{what}: {exc}") from exc
    if point.is_identity:
        raise MalformedMessage(f"{what} must not be the identity")
    return point


def decode_message(curve: Curve, data: bytes) -> ProtocolMessage:
    """Strict inverse of encode_message.

    Rejects wrong version, truncation, trailing bytes, out-of-range scalars,
    identity points, and invalid identities with MalformedMessage; off-curve
    points with OffCurvePoint, which is also a PointNotOnCurve.
    """
    raw_id, raw_y, raw_h, raw_mu, raw_r, raw_t = (data[a:b] for a, b in _field_spans(data))
    sender_id = raw_id.decode("utf-8", "surrogateescape")  # identity_bytes rejects the escapes
    try:
        identity_bytes(sender_id)
    except InvalidIdentity as exc:
        raise MalformedMessage(f"sender id: {exc}") from exc
    Y = _decode_wire_point(curve, raw_y, "ephemeral key")
    if len(raw_h) != DIGEST_SIZE:
        raise MalformedMessage("signature digest must be 32 bytes")
    if len(raw_mu) != curve.scalar_size:
        raise MalformedMessage("mu has the wrong width")
    mu = int.from_bytes(raw_mu, "big")
    if mu >= curve.q:
        raise MalformedMessage("mu out of range")
    R = _decode_wire_point(curve, raw_r, "long-term key")
    if len(raw_t) != 8:
        raise MalformedMessage("timestamp must be 8 bytes")
    t = int.from_bytes(raw_t, "big")
    return ProtocolMessage(sender_id, Y, Signature(bytes(raw_h), mu, R), t)
