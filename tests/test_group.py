"""Curve arithmetic checked against an independent textbook oracle.

The oracle below enumerates points straight from the curve equation and adds
them with its own chord-tangent code (tuples, pow(-1) inversion).  The library
inverts with pow(-1) too, so the independent check of its arithmetic is
test_secp256k1_mul_matches_cryptography, which compares 256-bit scalar
multiplication with the installed cryptography package.
"""

import pathlib
import random

import pytest

from ibaka import group
from ibaka.group import (
    Curve,
    GeneratorNotOnCurve,
    IDENTITY,
    MalformedEncoding,
    MalformedParameterFile,
    NonPrimeModulus,
    Point,
    PointNotOnCurve,
    SingularCurve,
    TOY_CURVE,
    WrongOrder,
    is_probable_prime,
    load_curve_file,
    mod_inverse,
    parse_curve_params,
    validate_params,
)
from ibaka.ibs import Variant
from ibaka.sim import run_honest_exchange

P17, A17, B17 = 17, 2, 2
SECP256K1_FILE = pathlib.Path(__file__).parent / "data" / "secp256k1.txt"


def oracle_points():
    """All solutions of y^2 = x^3 + 2x + 2 mod 17, identity as None."""
    pts = [None]
    for x in range(P17):
        for y in range(P17):
            if (y * y - (x ** 3 + A17 * x + B17)) % P17 == 0:
                pts.append((x, y))
    return pts


def oracle_add(u, v):
    if u is None:
        return v
    if v is None:
        return u
    x1, y1 = u
    x2, y2 = v
    if x1 == x2 and (y1 + y2) % P17 == 0:
        return None
    if u == v:
        lam = (3 * x1 * x1 + A17) * pow(2 * y1, -1, P17) % P17
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P17) % P17
    x3 = (lam * lam - x1 - x2) % P17
    y3 = (lam * (x1 - x3) - y1) % P17
    return (x3, y3)


def as_point(t):
    return IDENTITY if t is None else Point(*t)


ORACLE = oracle_points()
TOY_POINTS = [as_point(t) for t in ORACLE]


def test_toy_curve_has_19_points():
    assert len(ORACLE) == 19
    assert sorted(TOY_POINTS, key=repr) == sorted(TOY_CURVE.points(), key=repr)


def test_mod_inverse_matches_pow():
    for value in range(1, P17):
        assert mod_inverse(value, P17) == pow(value, -1, P17)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, P17)


def test_is_probable_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)


def test_point_rejects_half_identity():
    with pytest.raises(ValueError):
        Point(5, None)


class TestValidateParams:
    def test_toy_parameters_accept(self):
        curve = validate_params(17, 2, 2, 5, 1, 19)
        assert curve == TOY_CURVE

    def test_wrong_order_rejected(self):
        with pytest.raises(WrongOrder):
            validate_params(17, 2, 2, 5, 1, 17)

    def test_composite_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            validate_params(16, 2, 2, 5, 1, 19)

    def test_singular_curve_rejected(self):
        with pytest.raises(SingularCurve):
            validate_params(17, 0, 0, 5, 1, 19)

    def test_generator_off_curve_rejected(self):
        with pytest.raises(GeneratorNotOnCurve):
            validate_params(17, 2, 2, 0, 0, 19)

    def test_generator_outside_field_rejected(self):
        with pytest.raises(GeneratorNotOnCurve):
            validate_params(17, 2, 2, 22, 1, 19)

    def test_composite_order_rejected(self):
        with pytest.raises(WrongOrder):
            validate_params(17, 2, 2, 5, 1, 21)


class TestPointAdd:
    def test_identity_element(self):
        assert TOY_CURVE.add(TOY_CURVE.gen, IDENTITY) == TOY_CURVE.gen
        assert TOY_CURVE.add(IDENTITY, IDENTITY) == IDENTITY

    def test_inverse_element(self):
        neg = TOY_CURVE.negate(TOY_CURVE.gen)
        assert TOY_CURVE.add(TOY_CURVE.gen, neg) == IDENTITY

    def test_generator_doubling(self):
        assert TOY_CURVE.add(TOY_CURVE.gen, TOY_CURVE.gen) == Point(6, 3)

    def test_off_curve_input_rejected(self):
        with pytest.raises(PointNotOnCurve):
            TOY_CURVE.add(Point(0, 0), TOY_CURVE.gen)

    def test_matches_oracle_on_all_pairs(self):
        for u in ORACLE:
            for v in ORACLE:
                expected = as_point(oracle_add(u, v))
                assert TOY_CURVE.add(as_point(u), as_point(v)) == expected

    def test_commutative_exhaustive(self):
        for u in TOY_POINTS:
            for v in TOY_POINTS:
                assert TOY_CURVE.add(u, v) == TOY_CURVE.add(v, u)

    def test_associative_exhaustive(self):
        for u in TOY_POINTS:
            for v in TOY_POINTS:
                uv = TOY_CURVE.add(u, v)
                for w in TOY_POINTS:
                    assert TOY_CURVE.add(uv, w) == TOY_CURVE.add(u, TOY_CURVE.add(v, w))


class TestScalarMul:
    def test_zero_scalar(self):
        assert TOY_CURVE.mul(0, TOY_CURVE.gen) == IDENTITY

    def test_unit_scalar(self):
        assert TOY_CURVE.mul(1, TOY_CURVE.gen) == TOY_CURVE.gen

    def test_order_annihilates_generator(self):
        assert TOY_CURVE.mul(19, TOY_CURVE.gen) == IDENTITY

    def test_generator_doubling(self):
        assert TOY_CURVE.mul(2, TOY_CURVE.gen) == Point(6, 3)

    def test_matches_repeated_addition(self):
        for u in TOY_POINTS:
            running = IDENTITY
            for k in range(2 * TOY_CURVE.q):
                assert TOY_CURVE.mul(k, u) == running
                running = TOY_CURVE.add(running, u)

    def test_order_minus_one_negates(self):
        expected = TOY_CURVE.negate(TOY_CURVE.gen)
        assert TOY_CURVE.mul(TOY_CURVE.q - 1, TOY_CURVE.gen) == expected

    def test_negative_scalar(self):
        assert TOY_CURVE.mul(-1, TOY_CURVE.gen) == TOY_CURVE.negate(TOY_CURVE.gen)


class TestIsOnCurve:
    def test_identity_by_convention(self):
        assert TOY_CURVE.is_on_curve(IDENTITY)

    def test_generator(self):
        assert TOY_CURVE.is_on_curve(Point(5, 1))

    def test_origin_is_off_curve(self):
        assert not TOY_CURVE.is_on_curve(Point(0, 0))

    def test_out_of_field_coordinates(self):
        assert not TOY_CURVE.is_on_curve(Point(5, 18))


class TestPointCodec:
    def test_identity_encoding(self):
        assert TOY_CURVE.encode_point(IDENTITY) == b"\x00"
        assert TOY_CURVE.decode_point(b"\x00") == IDENTITY

    def test_generator_encoding(self):
        assert TOY_CURVE.encode_point(Point(5, 1)) == bytes([0x04, 0x05, 0x01])

    def test_round_trip_every_point(self):
        for u in TOY_POINTS:
            assert TOY_CURVE.decode_point(TOY_CURVE.encode_point(u)) == u

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedEncoding):
            TOY_CURVE.decode_point(b"\x04\x05")
        with pytest.raises(MalformedEncoding):
            TOY_CURVE.decode_point(b"")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(MalformedEncoding):
            TOY_CURVE.decode_point(bytes([0x02, 0x05, 0x01]))

    def test_coordinate_beyond_modulus_rejected(self):
        with pytest.raises(MalformedEncoding):
            TOY_CURVE.decode_point(bytes([0x04, 0x12, 0x01]))

    def test_off_curve_point_rejected(self):
        with pytest.raises(PointNotOnCurve):
            TOY_CURVE.decode_point(bytes([0x04, 0x00, 0x00]))


TOY_FILE = """\
# desk-scale curve
p = 17
a = 2
b = 2
gx = 5
gy = 1
q = 19
"""


class TestCurveFile:
    def test_parse_and_validate(self):
        assert parse_curve_params(TOY_FILE) == TOY_CURVE

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text(TOY_FILE)
        assert load_curve_file(path) == TOY_CURVE

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedParameterFile, match="unknown key"):
            parse_curve_params(TOY_FILE + "cofactor = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(MalformedParameterFile, match="duplicate"):
            parse_curve_params(TOY_FILE + "p = 17\n")

    def test_missing_key_rejected(self):
        with pytest.raises(MalformedParameterFile, match="missing"):
            parse_curve_params("p = 17\na = 2\n")

    def test_junk_line_rejected(self):
        with pytest.raises(MalformedParameterFile, match="key = value"):
            parse_curve_params("p: 17\n")

    def test_non_integer_value_rejected(self):
        with pytest.raises(MalformedParameterFile, match="decimal integer"):
            parse_curve_params(TOY_FILE.replace("p = 17", "p = seventeen"))


class TestLargeCurvePath:
    """Field modulus above the exhaustive bound: spot checks only."""

    def test_production_scale_curve_accepts(self, production_curve):
        assert production_curve.p.bit_length() == 256
        assert production_curve.mul(production_curve.q, production_curve.gen) == IDENTITY

    def test_wrong_large_order_rejected(self, production_curve):
        c = production_curve
        # c.p is prime but is not the group order.
        with pytest.raises(WrongOrder):
            validate_params(c.p, c.a, c.b, c.gx, c.gy, c.p)

    def test_scalar_round_trip(self, production_curve):
        c = production_curve
        point = c.mul(2 ** 130 + 3, c.gen)
        assert c.is_on_curve(point)
        assert c.decode_point(c.encode_point(point)) == point


def test_cofactor_curve_rejected_by_point_count():
    # y^2 = x^3 + 1 over F_23 has 24 points; (0, 1) has order 3, cofactor 8.
    with pytest.raises(WrongOrder, match="24 points"):
        validate_params(23, 0, 1, 0, 1, 3)


def test_cofactor_curve_rejected_by_hasse_bound():
    # y^2 = x^3 + x with p = 3 mod 4 has p + 1 = 65,540 = 580 * 113 points,
    # and (55709, 29523) has order 113.
    with pytest.raises(WrongOrder, match="cofactor 1"):
        validate_params(65539, 1, 0, 55709, 29523, 113)


def test_secp256k1_mul_matches_cryptography(production_curve):
    """mul(k, G) equals the public key the cryptography package derives from k."""
    ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
    c = production_curve
    seeded = random.Random(1906)
    scalars = [1, 2, 3, 2 ** 130 + 3, c.q - 1]
    scalars += [seeded.randrange(1, c.q) for _ in range(5)]
    for k in scalars:
        public = ec.derive_private_key(k, ec.SECP256K1()).public_key().public_numbers()
        assert c.mul(k, c.gen) == Point(public.x, public.y)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_secp256k1_mul_inverts_once_and_never_adds(production_curve, monkeypatch):
    c = production_curve
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    k = c.q - 1
    assert k.bit_length() == 256
    assert c.mul(k, c.gen) == c.negate(c.gen)
    assert len(inversions) == 1
    assert adds == []


def test_toy_exchange_operation_counts(monkeypatch):
    """Only verify_signature's two affine adds remain; one inversion per mul or add."""
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    assert run_honest_exchange(1, Variant.FIXED).keys_equal
    assert len(adds) == 4
    assert len(inversions) <= 19
    assert len(point_checks) == 33


def test_generator_table_built_on_first_use_without_inversion(monkeypatch):
    """On a freshly loaded curve, so no earlier test has built its table."""
    jacobian_adds = count_calls(monkeypatch, group, "_jacobian_add")
    c = load_curve_file(SECP256K1_FILE)
    assert jacobian_adds == []
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    assert c.mul(c.q - 1, c.gen) == c.negate(c.gen)
    assert len(inversions) == 1
    assert adds == []
    assert len(point_checks) == 1
    # 64 rows of 15 sums to build the table, then one sum per hex digit.
    assert len(jacobian_adds) == 64 * 15 + 64
    jacobian_adds.clear()
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    k = 2 ** 130 + 3
    product = c.mul(k, c.gen)
    assert doubles == []
    assert len(jacobian_adds) <= 64
    assert product == c.mul(-k, c.negate(c.gen))


def _largest_without_zero_hex_digit(n):
    """Largest k <= n none of whose hex digits is 0."""
    digits = f"{n:x}"
    zero = digits.find("0")
    if zero < 0:
        return n
    head = _largest_without_zero_hex_digit(int(digits[:zero], 16) - 1)
    return int(f"{head:x}" + "f" * (len(digits) - zero), 16)


def test_secp256k1_generator_table_matches_double_and_add(production_curve):
    """mul(k, G) reads the generator table; -G is not the generator, so
    mul(-k, -G) runs the double-and-add loop and must land on the same point."""
    c = production_curve
    minus_gen = c.negate(c.gen)
    dense = _largest_without_zero_hex_digit(c.q - 1)
    assert dense < c.q and "0" not in f"{dense:x}" and len(f"{dense:x}") == 64
    scalars = {1, 15, 16, 17, c.q - 16, c.q - 1, dense}
    for i in range(1, 64):
        scalars |= {16 ** i - 1, 16 ** i, 16 ** i + 1}
    seeded = random.Random(6301)
    scalars |= {seeded.randrange(1, c.q) for _ in range(5)}
    for k in sorted(scalars):
        assert c.mul(k, c.gen) == c.mul(-k, minus_gen), hex(k)


def test_mul_matches_repeated_addition_for_signed_multiples():
    """Every TOY point and every k in [-2q, 3q): covers the doubling and
    cancelling branches of the Jacobian sum."""
    q = TOY_CURVE.q
    for u in TOY_POINTS:
        multiples = [IDENTITY]
        for _ in range(3 * q):
            multiples.append(TOY_CURVE.add(multiples[-1], u))
        for k in range(-2 * q, 3 * q):
            expected = multiples[k] if k >= 0 else TOY_CURVE.negate(multiples[-k])
            assert TOY_CURVE.mul(k, u) == expected, (u, k)


def test_secp256k1_mul_near_multiples_of_the_order(production_curve):
    """Scalars at and around multiples of q, and negative ones, are not
    reduced by mul but land where k mod q does."""
    c = production_curve
    P = c.mul(7, c.gen)
    minus_P = c.negate(P)
    expected = {
        c.q - 1: minus_P,
        c.q: IDENTITY,
        c.q + 1: P,
        2 * c.q: IDENTITY,
        -1: minus_P,
        -(c.q + 2): c.negate(c.add(P, P)),
    }
    for k, point in expected.items():
        assert c.mul(k, P) == c.mul(k % c.q, P) == point, k


def test_secp256k1_mul_of_other_points_matches_cryptography_ecdh(production_curve):
    """a*(b*G) has the x coordinate of the ECDH secret for private a and public b*G."""
    ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
    c = production_curve
    seeded = random.Random(2719)
    for _ in range(10):
        a, b = seeded.randrange(1, c.q), seeded.randrange(2, c.q)
        base = c.mul(b, c.gen)
        peer = ec.EllipticCurvePublicNumbers(base.x, base.y, ec.SECP256K1()).public_key()
        shared = ec.derive_private_key(a, ec.SECP256K1()).exchange(ec.ECDH(), peer)
        assert c.mul(a, base).x == int.from_bytes(shared, "big"), (a, b)


def test_mul_on_an_a0_curve_matches_repeated_addition():
    """y^2 = x^3 + 3 over F_79 has 97 points and p = 1 (mod 3), so mul splits
    k with the endomorphism; every point and every k in [-2q, 3q)."""
    c = validate_params(79, 0, 3, 1, 2, 97)
    assert c._endomorphism is not None
    assert TOY_CURVE._endomorphism is None
    q = c.q
    for u in c.points():
        multiples = [IDENTITY]
        for _ in range(3 * q):
            multiples.append(c.add(multiples[-1], u))
        for k in range(-2 * q, 3 * q):
            expected = multiples[k] if k >= 0 else c.negate(multiples[-k])
            assert c.mul(k, u) == expected, (u, k)


def _split_edge_scalars(c):
    lam = c._endomorphism[1]
    return [1, 2, lam - 1, lam, lam + 1, c.q - lam, c.q - 1]


def test_secp256k1_endomorphism_split_is_short_and_exact(production_curve):
    c = production_curve
    _, lam, basis = c._endomorphism
    seeded = random.Random(7401)
    scalars = [seeded.randrange(1, c.q) for _ in range(1000)] + _split_edge_scalars(c)
    for k in scalars:
        k1, k2 = group._glv_split(k, c.q, basis)
        assert (k1 + k2 * lam - k) % c.q == 0, k
        assert abs(k1) < 2 ** 129 and abs(k2) < 2 ** 129, k


def test_secp256k1_split_mul_matches_the_plain_loop(production_curve):
    """mul(k, P) with 0 < k < q splits k; mul(k + q, P) takes the plain loop."""
    c = production_curve
    seeded = random.Random(7402)
    points = [c.mul(seeded.randrange(2, c.q), c.gen) for _ in range(3)]
    for P in points:
        for k in _split_edge_scalars(c):
            assert c.mul(k, P) == c.mul(k + c.q, P), (P, k)


def test_endomorphism_derived_on_first_use_without_inversion(monkeypatch):
    """On a freshly loaded curve, so no earlier test has derived the constants."""
    c = load_curve_file(SECP256K1_FILE)
    assert "_endomorphism" not in c.__dict__
    P = c.mul(7, c.gen)
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    jacobian_adds = count_calls(monkeypatch, group, "_jacobian_add")
    muls = count_calls(monkeypatch, Curve, "mul")
    k = c.q - 12345
    first = c.mul(k, P)
    assert "_endomorphism" in c.__dict__
    assert len(inversions) == 1
    assert adds == []
    assert len(point_checks) == 1
    assert jacobian_adds == []
    assert len(muls) == 1
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    k = 2 ** 255 + 2 ** 130 + 3
    assert k.bit_length() == 256 and k < c.q
    second = c.mul(k, P)
    assert len(doubles) <= 129
    assert first == c.negate(c.mul(12345, P))
    assert second == c.mul(k + c.q, P)


def _affine(c, pt):
    """The affine Point of the Jacobian (X, Y, Z) on curve c."""
    x, y, z = pt
    if z == 0:
        return IDENTITY
    z_inv = pow(z, -1, c.p)
    return Point(x * z_inv ** 2 % c.p, y * z_inv ** 3 % c.p)


def _carry_scalars(bits):
    """Scalars whose NAF recoding carries: runs of ones (2^j - 1), two
    distant bits (2^j + 1), alternating bits and halves of 2^128 - 1."""
    scalars = {(2 ** 128 - 1) // 2, (2 ** 128 - 1) // 3, 2 ** 128 - 1 - (2 ** 64 - 1)}
    scalars |= {int(pattern * (256 // 4), 16) for pattern in "5a"}
    for j in bits:
        scalars |= {2 ** j - 1, 2 ** j + 1}
    return sorted(scalars)


def test_naf_masks_are_a_non_adjacent_signed_form():
    seeded = random.Random(8301)
    for k in list(range(4096)) + [seeded.getrandbits(256) for _ in range(50)]:
        pos, neg = group._naf_masks(k)
        assert pos - neg == k and pos & neg == 0, k
        nonzero = pos | neg
        assert nonzero & (nonzero >> 1) == 0, k


@pytest.mark.parametrize("which", ["a0", "secp256k1"])
def test_joint_mul_signed_digits_match_the_plain_loop(which, production_curve):
    """One and two terms of _joint_mul against mul(k + q, u), which takes the
    plain double-and-add loop because k + q >= q."""
    if which == "a0":
        c = validate_params(79, 0, 3, 1, 2, 97)
        bits = range(1, 258)
    else:
        c = production_curve
        bits = [1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256]
    seeded = random.Random(8303)
    P, Q = (c.mul(seeded.randrange(2, c.q), c.gen) for _ in range(2))
    scalars = _carry_scalars(bits)
    for k, l in zip(scalars, reversed(scalars)):
        one = group._joint_mul([(k, P.x, P.y)], c.a, c.p)
        assert _affine(c, one) == c.mul(k + c.q, P), hex(k)
        two = group._joint_mul([(k, P.x, P.y), (l, Q.x, Q.y)], c.a, c.p)
        expected = c.add(c.mul(k + c.q, P), c.mul(l + c.q, Q))
        assert _affine(c, two) == expected, (hex(k), hex(l))


def test_jacobian_double_with_z_not_one(production_curve):
    """Points scaled to (lam^2 x, lam^3 y, lam): TOY (a = 2) keeps the slope's
    a*Z^4 term and secp256k1 (a = 0) skips it; both match affine add(u, u)."""
    seeded = random.Random(8304)
    c = production_curve
    cases = [(TOY_CURVE, u) for u in TOY_POINTS if not u.is_identity]
    cases += [(c, c.mul(seeded.randrange(2, c.q), c.gen)) for _ in range(5)]
    for curve, u in cases:
        for _ in range(3):
            lam = seeded.randrange(2, curve.p)
            scaled = (lam ** 2 * u.x % curve.p, lam ** 3 * u.y % curve.p, lam)
            doubled = group._jacobian_double(scaled, curve.a, curve.p)
            assert _affine(curve, doubled) == curve.add(u, u), (u, lam)


def test_secp256k1_exchange_operation_counts(production_curve, monkeypatch):
    """NAF digits in the GLV loop leave about a third fewer mixed additions
    than the binary digits did (762 for this exchange), with no more
    doublings."""
    c = production_curve
    # A first exchange builds the generator table and the split's constants.
    assert run_honest_exchange(1, Variant.FIXED, curve=c).keys_equal
    mixed_adds = count_calls(monkeypatch, group, "_jacobian_add_affine")
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    jacobian_adds = count_calls(monkeypatch, group, "_jacobian_add")
    assert run_honest_exchange(1, Variant.FIXED, curve=c).keys_equal
    assert len(mixed_adds) == 517
    assert len(doubles) == 757
    assert len(jacobian_adds) == 576
