import hashlib

import pytest

from ibaka.group import IDENTITY, TOY_CURVE, Curve
from ibaka.ibs import (
    DOMAIN_H1,
    InvalidIdentity,
    Signature,
    Variant,
    _recovered_commitment,
    digest_to_scalar,
    extract_key,
    h1_scalar,
    hash_fields,
    identity_bytes,
    pkg_setup,
    sign,
    verify_signature,
)
from ibaka.sim import CLIENT_ID, SERVER_ID, _extracted


class ScalarSequence:
    """Random-source stand-in that hands out preset scalars."""

    def __init__(self, *values):
        self._values = list(values)

    def scalar(self, q):
        return self._values.pop(0)


def make_signer(seed, curve=TOY_CURVE):
    """(master, server keys, rng) from the simulator's seeded set-up."""
    rng, master, [keys] = _extracted(seed, curve, SERVER_ID)
    return master, keys, rng


def test_hash_layout_frozen():
    # 1-byte domain prefix, then 2-byte big-endian length before each field.
    manual = hashlib.sha256(b"\x02" + b"\x00\x02ab" + b"\x00\x01c").digest()
    assert hash_fields(0x02, b"ab", b"c") == manual


def test_digest_to_scalar_is_big_endian_mod_q():
    digest = bytes(range(32))
    assert digest_to_scalar(digest, 19) == int.from_bytes(digest, "big") % 19


class TestIdentity:
    def test_plain_label(self):
        assert identity_bytes("server-1") == b"server-1"

    def test_empty_rejected(self):
        with pytest.raises(InvalidIdentity):
            identity_bytes("")

    def test_non_text_rejected(self):
        with pytest.raises(InvalidIdentity):
            identity_bytes(b"server-1")

    def test_utf8_length_limit(self):
        assert len(identity_bytes("x" * 255)) == 255
        with pytest.raises(InvalidIdentity):
            identity_bytes("x" * 256)
        # Multi-byte characters count in bytes, not code points.
        with pytest.raises(InvalidIdentity):
            identity_bytes("é" * 200)

    def test_text_that_utf8_cannot_encode_rejected(self):
        # A lone surrogate, as os.fsdecode makes of an argv byte that is not UTF-8.
        with pytest.raises(InvalidIdentity, match="^identity must be valid UTF-8 text$"):
            identity_bytes("\udcff")
        master, keys, rng = make_signer(1)
        with pytest.raises(InvalidIdentity, match="valid UTF-8"):
            extract_key(master, "\udcff", rng)
        with pytest.raises(InvalidIdentity, match="valid UTF-8"):
            sign(keys, "\udcff", TOY_CURVE.gen, 100, Variant.FIXED, rng)


class TestPkgSetup:
    def test_forced_unit_scalar_gives_generator(self):
        master = pkg_setup(TOY_CURVE, ScalarSequence(1))
        assert master.public == TOY_CURVE.gen


class TestExtractKey:
    def test_distinct_identities_distinct_extraction_scalars(self):
        master, _, _ = make_signer(1)
        rng = ScalarSequence(5, 5)  # same r, so R is identical for both
        ka = extract_key(master, SERVER_ID, rng)
        kb = extract_key(master, CLIENT_ID, rng)
        digest_a = hash_fields(DOMAIN_H1, identity_bytes(SERVER_ID), TOY_CURVE.encode_point(ka.R))
        digest_b = hash_fields(DOMAIN_H1, identity_bytes(CLIENT_ID), TOY_CURVE.encode_point(kb.R))
        assert digest_a != digest_b
        assert h1_scalar(TOY_CURVE, SERVER_ID, ka.R) != h1_scalar(TOY_CURVE, CLIENT_ID, kb.R)

    def test_invalid_identity_rejected(self):
        master, _, rng = make_signer(1)
        with pytest.raises(InvalidIdentity):
            extract_key(master, "", rng)


def seeded_signature(seed, variant, curve=TOY_CURVE):
    master, keys, rng = make_signer(seed, curve)
    Y = curve.mul(rng.scalar(curve.q), curve.gen)
    sig, X = sign(keys, CLIENT_ID, Y, 100, variant, rng)
    return master, keys, Y, sig, X


class TestSignVerify:
    def test_malformed_signature_shapes_fail(self):
        master, keys, Y, sig, _ = seeded_signature(5, Variant.FLAWED)
        big_mu = Signature(sig.h, TOY_CURVE.q, sig.R)
        # mul does not reduce its scalar, so mu + q names the same point as
        # mu and only the range check on mu rejects it.
        unreduced_mu = Signature(sig.h, sig.mu + TOY_CURVE.q, sig.R)
        for bad in (big_mu, unreduced_mu):
            assert not verify_signature(
                TOY_CURVE, bad, SERVER_ID, CLIENT_ID, Y, 100, master.public, Variant.FLAWED
            )

    def test_early_rejects_make_no_mul(self, monkeypatch):
        """An identity R, or an h that is not 32 bytes, returns False before
        any scalar multiplication; a valid signature shows the count works."""
        master, keys, Y, sig, _ = seeded_signature(5, Variant.FLAWED)
        calls = []
        mul = Curve.mul
        monkeypatch.setattr(Curve, "mul", lambda *args: calls.append(args) or mul(*args))
        identity_r = Signature(sig.h, sig.mu, IDENTITY)
        short_h = Signature(sig.h[:31], sig.mu, sig.R)
        long_h = Signature(sig.h + b"\x00", sig.mu, sig.R)
        for bad in (identity_r, short_h, long_h):
            assert not verify_signature(
                TOY_CURVE, bad, SERVER_ID, CLIENT_ID, Y, 100, master.public, Variant.FLAWED
            )
        assert calls == []
        assert verify_signature(
            TOY_CURVE, sig, SERVER_ID, CLIENT_ID, Y, 100, master.public, Variant.FLAWED
        )
        assert calls

    @pytest.mark.parametrize("variant", Variant)
    def test_secp256k1_recovers_the_exact_commitment(self, production_curve, variant):
        """Criterion 2 runs on TOY; here (-h) mod q takes mul's GLV split."""
        c = production_curve
        for seed in (1, 2, 3):
            master, _, Y, sig, X = seeded_signature(seed, variant, c)
            assert verify_signature(c, sig, SERVER_ID, CLIENT_ID, Y, 100, master.public, variant)
            assert _recovered_commitment(c, sig, SERVER_ID, master.public) == X

    def test_sign_rejects_unknown_variant(self):
        # A string is not a Variant; it must not sign as FLAWED.
        _, keys, rng = make_signer(1)
        with pytest.raises(ValueError, match="unknown variant"):
            sign(keys, CLIENT_ID, TOY_CURVE.gen, 100, "FIXED", rng)

    def test_verify_rejects_unknown_variant(self):
        master, keys, Y, sig, _ = seeded_signature(1, Variant.FIXED)
        assert verify_signature(
            TOY_CURVE, sig, SERVER_ID, CLIENT_ID, Y, 100, master.public, Variant.FIXED
        )
        with pytest.raises(ValueError, match="unknown variant"):
            verify_signature(TOY_CURVE, sig, SERVER_ID, CLIENT_ID, Y, 100, master.public, "FIXED")
