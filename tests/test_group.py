"""Curve arithmetic checked against an independent textbook oracle.

The oracle below enumerates points straight from the curve equation and adds
them with its own chord-tangent code (tuples, pow(-1) inversion).  The library
inverts with pow(-1) too, so the independent check of its arithmetic is
test_secp256k1_mul_matches_cryptography, which compares 256-bit scalar
multiplication with the installed cryptography package.
"""

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
from conftest import SECP256K1_FILE, TOY_FILE

P17, A17, B17 = 17, 2, 2


def oracle_points(p=P17, a=A17, b=B17):
    """All solutions of y^2 = x^3 + ax + b mod p (TOY's by default), identity
    as None."""
    pts = [None]
    for x in range(p):
        for y in range(p):
            if (y * y - (x ** 3 + a * x + b)) % p == 0:
                pts.append((x, y))
    return pts


def oracle_add(u, v, p=P17, a=A17):
    if u is None:
        return v
    if v is None:
        return u
    x1, y1 = u
    x2, y2 = v
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if u == v:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def oracle_mul(k, u, p, a):
    """k*u for k >= 0 by double-and-add with oracle_add."""
    total = None
    for bit in bin(k)[2:]:
        total = oracle_add(total, total, p, a)
        if bit == "1":
            total = oracle_add(total, u, p, a)
    return total


def as_point(t):
    return IDENTITY if t is None else Point(*t)


def curve_points(c):
    """oracle_points of the curve c as Points, the identity first."""
    return [as_point(t) for t in oracle_points(c.p, c.a, c.b)]


ORACLE = oracle_points()
TOY_POINTS = [as_point(t) for t in ORACLE]


def test_toy_curve_has_19_points():
    assert len(ORACLE) == 19
    multiples = [TOY_CURVE.mul(k, TOY_CURVE.gen) for k in range(19)]
    assert sorted(TOY_POINTS, key=repr) == sorted(multiples, key=repr)


def test_mod_inverse_matches_pow():
    for value in range(1, P17):
        assert mod_inverse(value, P17) == pow(value, -1, P17)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, P17)


def sieve(limit):
    """is_prime[n] for n < limit, by the sieve of Eratosthenes."""
    is_prime = [n > 1 for n in range(limit)]
    for d in range(2, int(limit ** 0.5) + 1):
        if is_prime[d]:
            is_prime[d * d :: d] = [False] * len(range(d * d, limit, d))
    return is_prime


def test_is_probable_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)
    is_prime = sieve(100_000)
    for n in range(100_000):
        assert is_probable_prime(n) == is_prime[n]
    # A Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7.
    assert not is_probable_prime(41 * 61 * 101)
    assert not is_probable_prime(151 * 751 * 28351)


def test_each_half_of_the_prime_test_alone():
    # The odd composites below 20,000 that pass each half of Baillie-PSW
    # (OEIS A001262 and A217255); every odd prime passes both.
    is_prime = sieve(20_000)
    base2_passes = [n for n in range(3, 20_000, 2) if group._strong_probable_prime(n, 2)]
    lucas_passes = [n for n in range(3, 20_000, 2) if group._strong_lucas_probable_prime(n)]
    odd_primes = [n for n in range(3, 20_000, 2) if is_prime[n]]
    assert [n for n in base2_passes if not is_prime[n]] == [2047, 3277, 4033, 4681, 8321, 15841]
    assert [n for n in lucas_passes if not is_prime[n]] == [5459, 5777, 10877, 16109, 18971]
    assert [n for n in base2_passes if is_prime[n]] == odd_primes
    assert [n for n in lucas_passes if is_prime[n]] == odd_primes
    # So only the Lucas half rejects 8321, and only the base-2 half the rest.
    for n in (8321, 5459, 5777, 10877, 16109, 18971):
        assert not is_probable_prime(n)
    # Strong pseudoprimes to every prime base up to 23, and up to 37.
    for n in (149491 * 747451 * 34233211, 399165290221 * 798330580441):
        assert group._strong_probable_prime(n, 2)
        assert not is_probable_prime(n)


def test_lucas_half_rejects_squares(monkeypatch):
    # Squares of the two Wieferich primes pass the base-2 half.  No D has
    # (D/n) = -1 when n is a square, so only the square test ends the search
    # for D; the count turns a search that never ends into a failure.
    jacobi, calls = group._jacobi, []

    def counted(a, n):
        calls.append(a)
        assert len(calls) <= 100, "the search for D does not end"
        return jacobi(a, n)

    monkeypatch.setattr(group, "_jacobi", counted)
    for n in (1093 ** 2, 3511 ** 2):
        assert group._strong_probable_prime(n, 2)
        assert not is_probable_prime(n)


def test_point_rejects_half_identity():
    with pytest.raises(ValueError):
        Point(5, None)
    with pytest.raises(ValueError):
        Point(None, 5)


class TestValidateParams:
    def test_coefficients_reduced_mod_p(self):
        assert validate_params(17, 2 - 17, 2 + 34, 5, 1, 19) == TOY_CURVE

    @pytest.mark.parametrize("p", [2, 3])
    def test_modulus_at_most_3_rejected(self, p):
        with pytest.raises(NonPrimeModulus, match=f"field modulus {p} is not an odd prime > 3"):
            validate_params(p, 2, 2, 5, 1, 19)

    @pytest.mark.parametrize("q", [-19, 0, 1])
    def test_order_below_2_rejected(self, q):
        with pytest.raises(WrongOrder, match=f"group order {q} is not prime"):
            validate_params(17, 2, 2, 5, 1, q)

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

    def test_anomalous_curve_rejected(self):
        # Both curves have exactly p points, generated by (gx, gy): discrete
        # logs on them fall to Smart's attack.
        for params in [(5, 3, 2, 1, 1, 5), (11, 1, 5, 0, 4, 11)]:
            with pytest.raises(WrongOrder, match="anomalous"):
                validate_params(*params)

    def test_order_check_with_a_nonzero(self):
        # 23 is prime and 2*23 - 18 = 28 passes the Hasse margin (28^2 > 4*17),
        # so only q*gen, summed with the slope's a*Z^4 term, rejects it.
        with pytest.raises(WrongOrder, match=r"q \* gen"):
            validate_params(17, 2, 2, 5, 1, 23)


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
        # x = p: (0, 6) is on TOY, so only the range test rejects (17, 6).
        assert not TOY_CURVE.is_on_curve(Point(17, 6))


class TestPointCodec:
    def test_identity_encoding(self):
        assert TOY_CURVE.encode_point(IDENTITY) == b"\x00"
        assert TOY_CURVE.decode_point(b"\x00") == IDENTITY

    def test_generator_encoding(self):
        assert TOY_CURVE.encode_point(Point(5, 1)) == bytes([0x04, 0x05, 0x01])

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


# TOY_FILE without its comment, as raw bytes: q is on line 6.
TOY_FILE_BYTES = TOY_FILE.split("\n", 1)[1].encode()


class TestCurveFile:
    def test_parse_and_validate(self):
        assert parse_curve_params(TOY_FILE) == TOY_CURVE
        # A leading '-' is part of a decimal integer; a = -15 is 2 mod 17.
        assert parse_curve_params(TOY_FILE.replace("a = 2", "a = -15")) == TOY_CURVE

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
        """Only an optional '-' and ASCII digits: int() would also take the
        underscore, the '+', and Arabic-Indic or fullwidth digits."""
        for value in ["seventeen", "1_7", "+17", "\u0661\u0667", "\uff11\uff17", "17.0"]:
            with pytest.raises(MalformedParameterFile, match="decimal integer"):
                parse_curve_params(TOY_FILE.replace("p = 17", f"p = {value}"))

    def test_over_long_value_names_its_length(self):
        """A decimal integer past int()'s default limit of 4300 digits."""
        for value in ["1" * 5000, "-" + "1" * 5000]:
            with pytest.raises(MalformedParameterFile, match=r"'p' is too long \(5000 digits\)$"):
                parse_curve_params(TOY_FILE.replace("p = 17", f"p = {value}"))

    def test_byte_that_is_not_utf8_in_a_value_names_its_line(self, tmp_path):
        """A file byte that is not UTF-8 fails the field's own rule, not the codec."""
        path = tmp_path / "bad.txt"
        path.write_bytes(TOY_FILE_BYTES.replace(b"q = 19", b"q = 1\xff9"))
        message = "^line 6: value for 'q' is not a decimal integer$"
        with pytest.raises(MalformedParameterFile, match=message):
            load_curve_file(path)
        path.write_bytes(TOY_FILE_BYTES.replace(b"q = 19", b"q\xff = 19"))
        with pytest.raises(MalformedParameterFile, match="^line 6: unknown key"):
            load_curve_file(path)

    def test_byte_that_is_not_utf8_in_a_comment_is_ignored(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_bytes(b"# \xff\n" + TOY_FILE_BYTES)
        assert load_curve_file(path) == TOY_CURVE


class TestLargeCurvePath:
    """A 256-bit field modulus: spot checks only."""

    def test_wrong_large_order_rejected(self, production_curve):
        c = production_curve
        # c.p is prime but is not the group order.
        with pytest.raises(WrongOrder):
            validate_params(c.p, c.a, c.b, c.gx, c.gy, c.p)
        # q + 24 is the next prime and passes the Hasse margin, so only the
        # q * gen check can reject it.
        with pytest.raises(WrongOrder, match=r"q \* gen"):
            validate_params(c.p, c.a, c.b, c.gx, c.gy, c.q + 24)

    def test_pseudoprime_modulus_file_rejected(self, production_curve):
        text = SECP256K1_FILE.read_text().replace(
            f"p = {production_curve.p}", "p = 3825123056546413051"
        )
        with pytest.raises(
            NonPrimeModulus, match="field modulus 3825123056546413051 is not an odd prime > 3"
        ):
            parse_curve_params(text)

    def test_pseudoprime_order_file_rejected(self, production_curve):
        text = SECP256K1_FILE.read_text().replace(
            f"q = {production_curve.q}", "q = 318665857834031151167461"
        )
        with pytest.raises(
            WrongOrder, match="group order 318665857834031151167461 is not prime"
        ):
            parse_curve_params(text)

def test_cofactor_curve_rejected_by_hasse_bound():
    # y^2 = x^3 + 1 over F_23 has 24 points; (0, 1) has order 3, cofactor 8.
    with pytest.raises(WrongOrder, match="cofactor 1"):
        validate_params(23, 0, 1, 0, 1, 3)
    # y^2 = x^3 + x with p = 3 mod 4 has p + 1 = 65,540 = 580 * 113 points,
    # and (55709, 29523) has order 113.
    with pytest.raises(WrongOrder, match="cofactor 1"):
        validate_params(65539, 1, 0, 55709, 29523, 113)
    # y^2 = x^3 + 5x + 5 over F_65537 has 65,542 = 2 * 32,771 points, and
    # (14799, 21015) has prime order 32,771.  The margin 2q - p - 1 = 4 is
    # positive, so only the Hasse test itself rejects the cofactor 2.
    with pytest.raises(WrongOrder, match=r"^order 32771 is too small to prove cofactor 1$"):
        validate_params(65537, 5, 5, 14799, 21015, 32771)


def test_hasse_rule_matches_a_point_count():
    """Every prime 23 <= p <= 47, every non-singular (a, b) and every prime
    q != p dividing #E: validate_params accepts exactly when the test's own
    count #E equals q.  The generator is k*u, with k = #E without its
    factors q and u the first point that k*u leaves non-zero, multiplied by q
    until the next product would be the identity, so it has order q."""
    is_prime = sieve(64)
    cases = accepted = 0
    for p in [23, 29, 31, 37, 41, 43, 47]:
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                affine = [(x, y) for x in range(p) for y in roots.get((x ** 3 + a * x + b) % p, ())]
                total = 1 + len(affine)
                for q in [q for q in range(2, total + 1) if total % q == 0 and is_prime[q]]:
                    if q == p:
                        continue
                    k = total
                    while k % q == 0:
                        k //= q
                    gen = next(g for g in (oracle_mul(k, u, p, a) for u in affine) if g)
                    while (next_gen := oracle_mul(q, gen, p, a)) is not None:
                        gen = next_gen
                    cases += 1
                    try:
                        validate_params(p, a, b, *gen, q)
                    except WrongOrder:
                        assert total != q, (p, a, b, q)
                    else:
                        assert total == q, (p, a, b, q)
                        accepted += 1
    assert (cases, accepted) == (17017, 887)


# One cofactor-1 curve (p, a, b, gx, gy, q) for each (p, q) whose margin
# 2q - p - 1 is too small for the Hasse rule.
SMALL_COFACTOR_ONE = [
    (5, 2, 0, 0, 0, 2), (5, 4, 2, 3, 1, 3), (7, 0, 4, 0, 2, 3),
    (7, 1, 1, 0, 1, 5), (11, 2, 7, 6, 2, 7), (13, 0, 6, 2, 1, 7),
    (17, 2, 6, 1, 3, 11), (17, 6, 8, 0, 5, 13), (19, 0, 2, 4, 3, 13),
]


def test_cofactor_one_curves_too_small_for_the_hasse_rule_rejected():
    for params in SMALL_COFACTOR_ONE:
        q = params[-1]
        assert len(curve_points(Curve(*params))) == q, params
        with pytest.raises(WrongOrder, match=f"^order {q} is too small to prove cofactor 1$"):
            validate_params(*params)


def test_sixteen_bit_curve_loads_and_multiplies():
    """y^2 = x^3 + 17 over F_65521, below 2^16: the Hasse rule accepts it,
    p = 1 (mod 3) gives the endomorphism, and mul matches the oracle's
    double-and-add on the generator (the table) and on another point (the
    split)."""
    c = validate_params(65521, 0, 17, 1, 1086, 65353)
    assert c._endomorphism is not None
    seeded = random.Random(6552)
    other = as_point(oracle_mul(seeded.randrange(2, c.q), c.gen, c.p, c.a))
    for u in (c.gen, other):
        for k in [1, 2, c.q - 1] + [seeded.randrange(1, c.q) for _ in range(30)]:
            assert c.mul(k, u) == as_point(oracle_mul(k, u, c.p, c.a)), (u, k)


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


def test_toy_exchange_operation_counts(monkeypatch):
    """Only verify_signature's two affine adds remain; one inversion per mul or add."""
    # A first exchange builds the generator table, so the count holds in any
    # test order.
    assert run_honest_exchange(1, Variant.FIXED).keys_equal
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    assert run_honest_exchange(1, Variant.FIXED).keys_equal
    assert len(adds) == 4
    assert len(inversions) == 19
    assert len(point_checks) == 33


def test_curve_load_proves_the_order_without_mul(monkeypatch):
    """Loading secp256k1 checks the generator once and sums q*gen over q's
    plain NAF, with no mul and no inversion: one mixed add per non-zero
    digit and one doubling per bit below the highest."""
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    mixed_adds = count_calls(monkeypatch, group, "_jacobian_add_affine")
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    muls = count_calls(monkeypatch, Curve, "mul")
    c = load_curve_file(SECP256K1_FILE)
    assert "_gen_table" not in c.__dict__ and "_endomorphism" not in c.__dict__
    assert muls == [] and inversions == [] and len(point_checks) == 1
    digits = group._wnaf(c.q, 2)
    assert len(mixed_adds) == len(digits) == 43
    assert len(doubles) == digits[-1][0] == 256


def test_generator_table_built_on_first_use_with_one_inversion_per_row(monkeypatch):
    """On a freshly loaded curve, so no earlier test has built its table or
    derived the split's constants."""
    c = load_curve_file(SECP256K1_FILE)
    assert "_gen_table" not in c.__dict__ and "_endomorphism" not in c.__dict__
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    mixed_adds = count_calls(monkeypatch, group, "_jacobian_add_affine")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    assert c.mul(c.q - 1, c.gen) == c.negate(c.gen)
    assert "_endomorphism" in c.__dict__
    # The table's rows reach the 128-bit halves: 17 rows of one doubling for
    # 2 * base, 126 sums, one doubling to the next row's base and one
    # inversion each.  Deriving the endomorphism reads lam in plain NAF: 83
    # sums and 256 doublings, with no inversion.  q - 1 splits to (-1, 0),
    # one sum, and the product inverts once.
    w = group._GEN_TABLE_WIDTH
    assert w == 8 and len(c._gen_table) == 17 and 17 * w >= 128 + 1
    assert [len(row) for row in c._gen_table] == [129] * 17
    _, lam, basis = c._endomorphism
    assert group._glv_split(c.q - 1, c.q, basis) == (-1, 0)
    assert len(group._wnaf(lam, 2)) == 83 and group._wnaf(lam, 2)[-1][0] == 256
    assert len(inversions) == 17 + 1
    assert len(mixed_adds) == 17 * 126 + 83 + 1 == 2226
    assert len(doubles) == 17 * 2 + 256 == 290
    assert adds == []
    assert len(point_checks) == 1
    inversions.clear()
    mixed_adds.clear()
    doubles.clear()
    # k1 = 3 and k2 = 2^120 = 1 * 256^15: one non-zero signed digit each.
    k = (3 + 2 ** 120 * lam) % c.q
    assert group._glv_split(k, c.q, basis) == (3, 2 ** 120)
    product = c.mul(k, c.gen)
    assert doubles == []
    assert len(inversions) == 1
    assert len(mixed_adds) == 2
    assert product == c.mul(-k, c.negate(c.gen))


def _signed_digits(k, w, rows):
    """k's digits in radix 2^w, each in (-2^(w-1), 2^(w-1)], lowest first:
    the digits the generator table is read with.  Checks that they fit in
    rows digits and sum back to k."""
    digits = []
    rest = k
    for _ in range(rows):
        d = rest % 2 ** w
        if d > 2 ** (w - 1):
            d -= 2 ** w
        digits.append(d)
        rest = (rest - d) // 2 ** w
    assert rest == 0 and sum(d * 2 ** (w * i) for i, d in enumerate(digits)) == k
    return digits


def test_secp256k1_generator_table_matches_double_and_add(production_curve):
    """mul(k, G) reads the generator table with the two halves of k;
    -G is not the generator, so mul(-k, -G) runs the double-and-add loop and
    must land on the same point.  Each k is made from chosen halves
    (k1, k2), k = k1 + k2*lam (mod q), that _glv_split gives back, so the
    halves put each signed digit at the edges of its range: 2^(w-1), the
    largest that does not carry, and 2^(w-1) + 1, the smallest that does,
    in every row; carries that run through every row into the last one;
    and both signs.  q - 1 splits to (-1, 0), a negative half alone."""
    c = production_curve
    minus_gen = c.negate(c.gen)
    _, lam, basis = c._endomorphism
    w, rows = group._GEN_TABLE_WIDTH, len(c._gen_table)
    radix, half = 2 ** w, 2 ** (w - 1)
    assert rows == 17 and len(c._gen_table[0]) == half + 1
    # Every digit 2^(w-1), no carry; and every digit carrying, so the top
    # row takes a carry.
    all_half = sum(half * radix ** i for i in range(rows - 1))
    all_carry = sum((half + 1) * radix ** i for i in range(rows - 1))
    assert set(_signed_digits(all_half, w, rows)[:-1]) == {half}
    assert set(_signed_digits(all_carry, w, rows)[1:-1]) == {2 - half}
    assert _signed_digits(all_carry, w, rows)[-1] == 1
    edges = {1, half, half + 1, all_half, all_carry}
    for i in range(1, rows - 1):
        edges |= {half * radix ** i, (half + 1) * radix ** i, radix ** i - 1}
    # k2 takes each edge alone.  Babai rounding gives back a k1 near 2^127
    # only with a k2 of the same sign beside it; 3 * 2^125 keeps every pair
    # inside that region.
    partner = 3 * 2 ** 125
    halves = {(0, h) for h in edges} | {(0, -h) for h in edges}
    halves |= {(h, partner) for h in edges} | {(-h, -partner) for h in edges}
    scalars = set()
    for k1, k2 in halves:
        k = (k1 + k2 * lam) % c.q
        assert group._glv_split(k, c.q, basis) == (k1, k2), (hex(k1), hex(k2))
        scalars.add(k)
    assert group._glv_split(c.q - 1, c.q, basis) == (-1, 0)
    seeded = random.Random(6301)
    scalars |= {c.q - 1} | {seeded.randrange(1, c.q) for _ in range(5)}
    for k in sorted(scalars):
        assert c.mul(k, c.gen) == c.mul(-k, minus_gen), hex(k)


def assert_mul_matches_repeated_addition(c, points):
    """mul(k, u) is k-fold repeated addition of u, for each u and every k in [-2q, 3q)."""
    for u in points:
        multiples = [IDENTITY]
        for _ in range(3 * c.q):
            multiples.append(c.add(multiples[-1], u))
        for k in range(-2 * c.q, 3 * c.q):
            expected = multiples[k] if k >= 0 else c.negate(multiples[-k])
            assert c.mul(k, u) == expected, (c, u, k)


def test_mul_matches_repeated_addition_for_signed_multiples():
    """Every TOY point and every k in [-2q, 3q): covers the doubling and
    cancelling branches of the Jacobian sum."""
    assert_mul_matches_repeated_addition(TOY_CURVE, TOY_POINTS)


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
    k with the endomorphism; every point and every k in [-2q, 3q).  On it,
    on the tiny curves with q = 2, 3 and 13 and on the q = 43 curve
    y^2 = x^3 + 3 over F_31, the generator table is one row of d*gen for
    0 <= d <= 128, with the identity at every multiple of q, and the q = 13
    and q = 43 curves split k too, with 13*u the identity in the q = 13
    curve's table of odd multiples.  The next test crosses into a second
    row."""
    a0 = validate_params(79, 0, 3, 1, 2, 97)
    # Too small for validate_params' Hasse rule, so built directly.
    q2 = Curve(5, 2, 0, 0, 0, 2)
    q3 = Curve(5, 4, 2, 3, 1, 3)
    q13 = validate_params(7, 0, 3, 1, 2, 13)
    q43 = validate_params(31, 0, 3, 1, 2, 43)
    assert a0._endomorphism is not None and q13._endomorphism is not None
    assert q43._endomorphism is not None
    assert TOY_CURVE._endomorphism is None and q3._endomorphism is None
    for c in (a0, q2, q3, q13, q43):
        (row,) = c._gen_table
        assert len(row) == 129
        assert [d for d, entry in enumerate(row) if entry is None] == list(range(0, 129, c.q))
    for c in (a0, q2, q3, q13, q43):
        assert_mul_matches_repeated_addition(c, curve_points(c))


def test_no_endomorphism_when_a_is_not_zero(monkeypatch):
    """y^2 = x^3 + 4x + 1 over F_13 has 19 points, and p and q are both 1
    (mod 3), but phi(x, y) = (beta*x, y) maps points onto the curve only
    when a = 0: the a test alone refuses it, before any lam*gen product.
    17 = 2 (mod 3) has no cube root of unity other than 1."""
    c = validate_params(13, 4, 1, 0, 1, 19)
    joint_muls = count_calls(monkeypatch, group, "_joint_mul")
    assert c._endomorphism is None
    assert joint_muls == []
    assert group._cube_root_of_unity(17) is None
    assert_mul_matches_repeated_addition(c, curve_points(c))


# Parameters of two curves whose generator tables have two rows at w = 8.
# y^2 = x^3 + 2x + 1 over F_239 has 257 points, and 256 = q - 1 has 9 bits.
TWO_ROW_PLAIN = (239, 2, 1, 1, 2, 257)
# y^2 = x^3 + 5 over F_90397 has 90,379 points and p = 1 (mod 3); its split
# halves reach 256, 9 bits.
TWO_ROW_SPLIT = (90397, 0, 5, 7, 37248, 90379)


def test_two_row_tables_match_repeated_addition():
    """Without the endomorphism, every k in [-2q, 3q) on the generator and
    three other points; k from 129 to 256 carries into the second row.  With
    it, sampled and split-edge k on the generator and one other point,
    against mul(k + q, u), which takes the plain loop; among them, halves
    above 128 in size on both sides carry into the second row."""
    plain = validate_params(*TWO_ROW_PLAIN)
    assert plain._endomorphism is None
    assert [len(row) for row in plain._gen_table] == [129, 129]
    others = [plain.mul(j, plain.gen) for j in (2, 100, 256)]
    assert_mul_matches_repeated_addition(plain, [plain.gen] + others)

    split = validate_params(*TWO_ROW_SPLIT)
    _, lam, basis = split._endomorphism
    assert [len(row) for row in split._gen_table] == [129, 129]
    seeded = random.Random(6302)
    scalars = [seeded.randrange(1, split.q) for _ in range(300)] + _split_edge_scalars(split)
    halves = [group._glv_split(k, split.q, basis) for k in scalars]
    assert any(k1 > 128 for k1, _ in halves) and any(k1 < -128 for k1, _ in halves)
    assert any(k2 > 128 for _, k2 in halves) and any(k2 < -128 for _, k2 in halves)
    for u in (split.gen, split.mul(2, split.gen)):
        for k in scalars:
            assert split.mul(k, u) == split.mul(k + split.q, u), (u, k)


def _split_edge_scalars(c):
    lam = c._endomorphism[1]
    return [1, 2, lam - 1, lam, lam + 1, c.q - lam, c.q - 1]


def _split_reach(c, seeded):
    """(bits, rows) for curve c: the bit length of the larger Babai bound,
    |k1| <= (|a1| + |a2|)/2 and |k2| <= (|b1| + |b2|)/2, and the number of
    generator-table rows.  Checks that the rows cover one digit more than
    bits, so the last carry lands in a row, and that the halves of 1,000
    random k and of the split-edge k are exact and below 2^bits."""
    _, lam, basis = c._endomorphism
    a1, b1, a2, b2 = basis
    bits = (max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2).bit_length()
    rows = len(c._gen_table)
    assert rows * group._GEN_TABLE_WIDTH >= bits + 1, c
    for k in [seeded.randrange(1, c.q) for _ in range(1000)] + _split_edge_scalars(c):
        k1, k2 = group._glv_split(k, c.q, basis)
        assert (k1 + k2 * lam - k) % c.q == 0, (c, k)
        assert abs(k1) < 2 ** bits and abs(k2) < 2 ** bits, (c, k)
    return bits, rows


def test_secp256k1_endomorphism_split_is_short_and_exact(production_curve):
    assert _split_reach(production_curve, random.Random(7401)) == (128, 17)


def test_glv_basis_has_determinant_q_for_any_lambda():
    """The cube roots of unity the curves pass never need the sign flip that
    makes the determinant positive; random lambda needs it about half the time."""
    q = 1_000_003
    seeded = random.Random(7403)
    for lam in [seeded.randrange(2, q) for _ in range(300)]:
        a1, b1, a2, b2 = group._glv_basis(q, lam)
        assert a1 * b2 - a2 * b1 == q, lam
        assert (a1 + b1 * lam) % q == 0 and (a2 + b2 * lam) % q == 0, lam


def test_generator_table_reaches_the_split_halves():
    """_split_reach on every small curve with the endomorphism."""
    seeded = random.Random(6303)
    curves = [TWO_ROW_SPLIT, (79, 0, 3, 1, 2, 97), (7, 0, 3, 1, 2, 13), (31, 0, 3, 1, 2, 43)]
    reach = [_split_reach(validate_params(*params), seeded) for params in curves]
    assert reach == [(9, 2), (3, 1), (2, 1), (3, 1)]


def test_secp256k1_split_mul_matches_the_plain_loop(production_curve):
    """mul(k, P) with 0 < k < q splits k; mul(k + q, P) takes the plain loop."""
    c = production_curve
    seeded = random.Random(7402)
    points = [c.mul(seeded.randrange(2, c.q), c.gen) for _ in range(3)]
    for P in points:
        for k in _split_edge_scalars(c):
            assert c.mul(k, P) == c.mul(k + c.q, P), (P, k)


def test_endomorphism_derived_on_first_use_without_inversion(monkeypatch):
    """On a freshly loaded curve, so no earlier test has derived the
    constants.  A first k*G would derive them too, with the generator table;
    a first mul of -G, which is not the generator, derives them alone."""
    c = load_curve_file(SECP256K1_FILE)
    assert "_endomorphism" not in c.__dict__
    P = c.negate(c.gen)
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    adds = count_calls(monkeypatch, Curve, "add")
    point_checks = count_calls(monkeypatch, Curve, "is_on_curve")
    muls = count_calls(monkeypatch, Curve, "mul")
    k = c.q - 12345
    first = c.mul(k, P)
    assert "_endomorphism" in c.__dict__ and "_gen_table" not in c.__dict__
    # The derivation reads lam in plain NAF (w = 2), so it needs no table and
    # no inversion; the mul inverts once for its table of odd multiples and
    # once at the end.
    assert len(inversions) == 2
    assert adds == []
    assert len(point_checks) == 1
    assert len(muls) == 1
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    k = 2 ** 255 + 2 ** 130 + 3
    assert k.bit_length() == 256 and k < c.q
    second = c.mul(k, P)
    # One doubling for 2P in the table, then one per digit below the
    # highest non-zero one of the two 128-bit halves.
    assert len(doubles) == 1 + 123
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


def _naf_oracle(k):
    """(pos, neg) bit masks of the +1 and -1 digits of k's NAF: with
    h = k >> 1 and t = k + h, the non-zero digits sit where h and t differ,
    +1 where t has the bit and -1 where h has it."""
    h = k >> 1
    t = k + h
    return t & ~h, h & ~t


def test_wnaf_digits_are_a_width_w_non_adjacent_form():
    seeded = random.Random(8301)
    scalars = list(range(4096)) + [seeded.getrandbits(256) for _ in range(50)]
    for w in (2, 3, 4, 5, 6):
        for k in scalars:
            digits = group._wnaf(k, w)
            assert sum(d << i for i, d in digits) == k, (w, k)
            for (i, d), (j, _) in zip(digits, digits[1:] + [(None, None)]):
                assert d % 2 == 1 and abs(d) < 2 ** (w - 1), (w, k, d)
                assert j is None or j - i >= w, (w, k, i, j)
            if w == 2:
                pos = sum(1 << i for i, d in digits if d == 1)
                neg = sum(1 << i for i, d in digits if d == -1)
                assert (pos, neg) == _naf_oracle(k), k


@pytest.mark.parametrize("which", ["a0", "secp256k1"])
def test_joint_mul_signed_digits_match_the_plain_loop(which, production_curve):
    """One and two terms of _joint_mul, with and without a sign, at every
    width the tests use, against mul(k + q, u), which takes the plain
    double-and-add loop because k + q >= q."""
    if which == "a0":
        c = validate_params(79, 0, 3, 1, 2, 97)
        bits = range(1, 258)
    else:
        c = production_curve
        bits = [1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256]
    seeded = random.Random(8303)
    P, Q = (c.mul(seeded.randrange(2, c.q), c.gen) for _ in range(2))
    scalars = _carry_scalars(bits)
    cases = []
    for k, l in zip(scalars, reversed(scalars)):
        kP = c.mul(k + c.q, P)
        cases.append((k, l, kP, c.add(kP, c.mul(-l - c.q, Q))))
    for w in (2, 3, group._GLV_WIDTH):
        if w == 2:
            tables = [[(P.x, P.y)], [(Q.x, Q.y)]]
        else:
            tables = [group._odd_multiples(u.x, u.y, w, c.a, c.p) for u in (P, Q)]
        for k, l, one_expected, two_expected in cases:
            one = group._joint_mul([(k, tables[0])], w, c.a, c.p)
            assert _affine(c, one) == one_expected, (w, hex(k))
            two = group._joint_mul([(k, tables[0]), (-l, tables[1])], w, c.a, c.p)
            assert _affine(c, two) == two_expected, (w, hex(k), hex(l))


def test_odd_multiples_match_the_plain_loop(production_curve):
    """Entry j of the table is (2j + 1)*u as mul(2j + 1 + q, u) computes it
    through the plain loop, None where that is the identity: on secp256k1,
    on every point of the p = 79 curve, on the q = 13 curve, where 13*u is
    the identity, which _joint_mul skips, and 15*u is 2*u (the sum after the
    identity), and on TOY (a = 2), where 21*u + 2*u doubles on the
    isomorphic curve."""
    seeded = random.Random(8305)
    c = production_curve
    cases = [(c, c.mul(seeded.randrange(2, c.q), c.gen)) for _ in range(3)]
    a0 = validate_params(79, 0, 3, 1, 2, 97)
    q13 = validate_params(7, 0, 3, 1, 2, 13)
    cases += [(curve, u) for curve in (a0, q13, TOY_CURVE) for u in curve_points(curve)[1:]]
    for curve, u in cases:
        for w in (3, 4, group._GLV_WIDTH, 6):
            table = group._odd_multiples(u.x, u.y, w, curve.a, curve.p)
            assert len(table) == 2 ** (w - 2), (w, u)
            for j, entry in enumerate(table):
                expected = curve.mul(2 * j + 1 + curve.q, u)
                assert (entry is None) == expected.is_identity, (w, u, j)
                assert entry is None or Point(*entry) == expected, (w, u, j)
        if curve is q13:
            # _joint_mul skips the identity entry that a digit 13 reads.
            table = group._odd_multiples(u.x, u.y, 5, curve.a, curve.p)
            assert table[6] is None and Point(*table[7]) == curve.mul(2, u)
            assert group._wnaf(13, 5) == [(0, 13)]
            for k in range(-3 * curve.q, 3 * curve.q):
                total = group._joint_mul([(k, table)], 5, curve.a, curve.p)
                assert _affine(curve, total) == curve.mul(k + 6 * curve.q, u), (u, k)


def test_jacobian_double_with_z_not_one(production_curve):
    """Points scaled to (lam^2 x, lam^3 y, lam): TOY (a = 2) keeps the slope's
    a*Z^4 term and secp256k1 (a = 0) skips it; both match affine add(u, u).
    The mixed add of the scaled u and an affine v matches add(u, v) for
    v = 3u, for v = u (its doubling branch) and for v = -u (its cancel
    branch)."""
    seeded = random.Random(8304)
    c = production_curve
    cases = [(TOY_CURVE, u) for u in TOY_POINTS if not u.is_identity]
    cases += [(c, c.mul(seeded.randrange(2, c.q), c.gen)) for _ in range(5)]
    for curve, u in cases:
        others = [curve.mul(3, u), u, curve.negate(u)]
        for _ in range(3):
            lam = seeded.randrange(2, curve.p)
            scaled = (lam ** 2 * u.x % curve.p, lam ** 3 * u.y % curve.p, lam)
            doubled = group._jacobian_double(scaled, curve.a, curve.p)
            assert _affine(curve, doubled) == curve.add(u, u), (u, lam)
            for v in others:
                total = group._jacobian_add_affine(scaled, v.x, v.y, curve.a, curve.p)
                assert _affine(curve, total) == curve.add(u, v), (u, v, lam)


def test_secp256k1_exchange_operation_counts(production_curve, monkeypatch):
    """Width-5 NAF digits in the GLV loop and signed radix-256 digits of the
    split halves in the generator table leave 592 mixed additions (687 with
    radix-64 digits of k itself, 1,063 with plain NAF and hex digits)."""
    c = production_curve
    # A first exchange builds the generator table and the split's constants.
    assert run_honest_exchange(1, Variant.FIXED, curve=c).keys_equal
    mixed_adds = count_calls(monkeypatch, group, "_jacobian_add_affine")
    doubles = count_calls(monkeypatch, group, "_jacobian_double")
    inversions = count_calls(monkeypatch, group, "mod_inverse")
    assert run_honest_exchange(1, Variant.FIXED, curve=c).keys_equal
    # The nine k*G add one table entry per non-zero signed digit of their
    # two halves: 287.  The six variable-base products add 7 entries each
    # to their tables of odd multiples, then 263 in the loop, and double
    # once each for 2u.  Each of the 15 products inverts once at the end and each
    # variable-base one once more for its table, and the two verifies add
    # two points each with one inversion.
    assert len(mixed_adds) == 6 * 7 + 263 + 287
    assert len(doubles) == 760
    assert len(inversions) == 15 + 6 + 4
