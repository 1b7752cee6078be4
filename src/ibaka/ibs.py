"""El Gamal-type identity-based signatures and the trusted key generator.

A private key generator (PKG) holds a master scalar and derives each
entity's long-term key pair from its text identity.  Signatures are triples
(h, mu, R): h a 256-bit digest, mu a scalar, R the signer's long-term public
key.  Verification recovers the signer's ephemeral commitment X from (mu, h,
R) in ``_recovered_commitment``, its one statement, and recomputes the digest.

Two protocol variants share this code; `_H2_FIELDS` names what each signs.

All hash inputs are length-prefixed (2-byte big-endian) and domain-separated
by a leading byte, so no two distinct field sequences collide by
concatenation ambiguity.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from enum import Enum

from .group import Curve, Point

DIGEST_SIZE = 32
MAX_IDENTITY_BYTES = 255

# Domain-separation prefixes for the three hash roles: key extraction,
# signature digest, session-key derivation.
DOMAIN_H1 = 0x01
DOMAIN_H2 = 0x02
DOMAIN_H3 = 0x03


class InvalidIdentity(ValueError):
    pass


class Variant(Enum):
    """The protocol variants; `_H2_FIELDS` names the fields each one signs."""

    FLAWED = "flawed"
    FIXED = "fixed"


MasterKeyPair = namedtuple("MasterKeyPair", "curve secret public")

EntityKeyPair = namedtuple("EntityKeyPair", "curve identity secret R")
EntityKeyPair.__doc__ = "Long-term key pair (s, R) bound to a text identity by the PKG."

Signature = namedtuple("Signature", "h mu R")


def identity_bytes(identity: str) -> bytes:
    """UTF-8 bytes of an identity label; non-empty and at most 255 bytes."""
    if not isinstance(identity, str):
        raise InvalidIdentity("identity must be text")
    try:
        raw = identity.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as from undecodable argv bytes
        raise InvalidIdentity("identity must be valid UTF-8 text") from None
    if not raw:
        raise InvalidIdentity("identity must be non-empty")
    if len(raw) > MAX_IDENTITY_BYTES:
        raise InvalidIdentity(f"identity exceeds {MAX_IDENTITY_BYTES} bytes")
    return raw


def ticks_to_bytes(ticks: int) -> bytes:
    if not 0 <= ticks < 1 << 64:
        raise ValueError("timestamp ticks outside unsigned 64-bit range")
    return ticks.to_bytes(8, "big")


def hash_fields(domain: int, *fields: bytes) -> bytes:
    """Domain-separated SHA-256 over length-prefixed fields."""
    h = hashlib.sha256(bytes([domain]))
    for field in fields:
        h.update(len(field).to_bytes(2, "big"))
        h.update(field)
    return h.digest()


def digest_to_scalar(digest: bytes, q: int) -> int:
    """Big-endian integer of the digest reduced mod q.

    The modulo bias is irrelevant at desk scale: the digest is only used as
    a multiplier, never compared in reduced form.
    """
    return int.from_bytes(digest, "big") % q


def h1_scalar(curve: Curve, identity: str, R: Point) -> int:
    """Key-extraction scalar c = H1(ID || R) mod q."""
    digest = hash_fields(DOMAIN_H1, identity_bytes(identity), curve.encode_point(R))
    return digest_to_scalar(digest, curve.q)


# The fields each variant's signature digest H2 binds, in hashing order.
# FIXED binds the timestamp t as well, and that is the entire repair: under
# FLAWED anyone on the wire can rewrite t, so a stale message verifies as new.
# `_h2_digest` encodes all six fields under every variant, so t must fit in
# 64 bits even where it is not hashed.
_H2_FIELDS = {
    Variant.FLAWED: ("sender", "recipient", "Y", "R", "X"),
    Variant.FIXED: ("sender", "recipient", "Y", "R", "X", "t"),
}


def _h2_digest(curve, sender, recipient, Y, R, X, ticks, variant):
    if not isinstance(variant, Variant):
        raise ValueError(f"unknown variant {variant!r}")
    encoded = {
        "sender": identity_bytes(sender),
        "recipient": identity_bytes(recipient),
        "Y": curve.encode_point(Y),
        "R": curve.encode_point(R),
        "X": curve.encode_point(X),
        "t": ticks_to_bytes(ticks),
    }
    return hash_fields(DOMAIN_H2, *(encoded[name] for name in _H2_FIELDS[variant]))


def pkg_setup(curve: Curve, rng) -> MasterKeyPair:
    """Draw the master scalar and publish its public point."""
    secret = rng.scalar(curve.q)
    return MasterKeyPair(curve, secret, curve.mul(secret, curve.gen))


def extract_key(master: MasterKeyPair, identity: str, rng) -> EntityKeyPair:
    """Derive the long-term key pair (s, R) for an identity.

    R = r*gen for a fresh scalar r, and s = r + c*master_secret mod q with
    c = H1(ID || R).  The defining identity s*gen == R + c*master_public
    is what verifiers rely on.
    """
    curve = master.curve
    r = rng.scalar(curve.q)
    R = curve.mul(r, curve.gen)
    c = h1_scalar(curve, identity, R)
    s = (r + c * master.secret) % curve.q
    return EntityKeyPair(curve, identity, s, R)


def sign(
    keys: EntityKeyPair,
    recipient: str,
    Y: Point,
    ticks: int,
    variant: Variant,
    rng,
) -> tuple[Signature, Point]:
    """Sign an outgoing message body; returns the signature and the ephemeral X.

    mu = x + h*s mod q for a one-time scalar x with commitment X = x*gen.
    The digest h covers the fields `_H2_FIELDS` names for the variant.
    """
    curve = keys.curve
    x = rng.scalar(curve.q)
    X = curve.mul(x, curve.gen)
    h = _h2_digest(curve, keys.identity, recipient, Y, keys.R, X, ticks, variant)
    mu = (x + digest_to_scalar(h, curve.q) * keys.secret) % curve.q
    return Signature(h, mu, keys.R), X


def _recovered_commitment(curve, sig, sender, master_public):
    """X' = mu*gen - h*(R + c*master_public), X for a valid signature; mul takes -h mod q."""
    c = h1_scalar(curve, sender, sig.R)
    checkpoint = curve.add(sig.R, curve.mul(c, master_public))
    minus_h = -digest_to_scalar(sig.h, curve.q) % curve.q
    return curve.add(curve.mul(sig.mu, curve.gen), curve.mul(minus_h, checkpoint))


def verify_signature(
    curve: Curve,
    sig: Signature,
    sender: str,
    recipient: str,
    Y: Point,
    ticks: int,
    master_public: Point,
    variant: Variant,
) -> bool:
    """Recover X' (stated once, in ``_recovered_commitment``); compare digests.

    Comparison is over the full 256-bit digest, so tampering is caught even
    though scalars live in a tiny group.  A `variant` that is not a Variant
    raises ValueError when the digest is recomputed, instead of returning a bool.
    """
    if sig.R.is_identity or len(sig.h) != DIGEST_SIZE:
        return False
    if not 0 <= sig.mu < curve.q:
        return False
    if not (curve.is_on_curve(sig.R) and curve.is_on_curve(Y)):
        return False
    recovered = _recovered_commitment(curve, sig, sender, master_public)
    expected = _h2_digest(curve, sender, recipient, Y, sig.R, recovered, ticks, variant)
    return expected == sig.h
