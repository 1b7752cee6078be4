"""Short-Weierstrass elliptic-curve arithmetic over a prime field.

Points cross every interface in affine coordinates; ``mul`` works inside
Jacobian coordinates, with a field inversion or two per call rather than one
per bit, and adds with one formula: a Jacobian point plus an affine one.
Its paths:

- ``mul(k, gen)`` with ``0 < k < q`` reads a scalar in radix 256 with
  signed digits in (-128, 128] and adds one entry per non-zero digit from an
  affine table of multiples of the generator, with no doubling (fixed-base
  windowing, Hankerson-Menezes-Vanstone, Guide to ECC, section 3.3.2).  A
  negative digit adds the entry's negation, so each row holds
  d * 256^i * gen for d <= 128 only.  On curves with the endomorphism of
  the next path, the scalars are the two halves k1, k2 of k, and the table
  reaches only as far as they do (17 rows on secp256k1): k2's entries are
  summed first, phi(X, Y, Z) = (beta*X, Y, Z) maps that sum once, and k1's
  entries join it.  Other curves read k itself.  The first such call builds
  the table, once per ``Curve``, with one inversion per row (Montgomery's
  simultaneous inversion).  Each call inverts once, at the end.
- On a = 0 curves with p = 1 (mod 3), such as secp256k1, ``mul(k, u)`` with
  ``0 < k < q`` for any other point writes k = k1 + k2*lambda (mod q) with
  k1, k2 half as long as q and sums k1*u + k2*phi(u), where
  phi(x, y) = (beta*x, y) = lambda*u, in one loop with half the doublings
  (Gallant-Lambert-Vanstone; section 3.5) over the width-5 non-adjacent
  forms (wNAF, Algorithm 3.35) of k1 and k2.  Their digits are odd, below 16
  in size, and about one in six is non-zero; a digit d adds d*u from a table
  of u, 3u, ..., 15u, or d*phi(u) from the table's phi images, which cost
  one multiplication each.  Each call builds its table with one inversion
  and inverts once more at the end.
- Every other call runs plain double-and-add, with one inversion.  Loading
  a curve calls no ``mul``: ``validate_params`` sums q*gen over q's NAF with
  no inversion, as ``_endomorphism`` checks lam*gen, and builds no table.

Every path takes a sign the same way: where a positive scalar or digit adds
u = (x, y), a negative one adds (x, p - y), so ``mul`` builds no negated
point.  Doubling skips the a*Z^4 term of its slope when a = 0.  The group
order ``q`` is always distinct from the field modulus ``p``.

A point is checked where it enters: wire bytes in ``decode_point``, the
generator in ``validate_params``, operands in ``mul`` and ``add``.  ``negate``
and ``encode_point`` see only such points and results, so they do not check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property


class CurveParameterError(ValueError):
    """A candidate parameter set does not describe a usable curve group."""


class NonPrimeModulus(CurveParameterError):
    pass


class SingularCurve(CurveParameterError):
    pass


class GeneratorNotOnCurve(CurveParameterError):
    pass


class WrongOrder(CurveParameterError):
    pass


class MalformedParameterFile(CurveParameterError):
    pass


class PointNotOnCurve(ValueError):
    pass


class MalformedEncoding(ValueError):
    pass


class Point(namedtuple("Point", "x y")):
    """Affine curve point; both coordinates ``None`` means the identity."""

    __slots__ = ()

    def __new__(cls, x: int | None, y: int | None):
        if (x is None) != (y is None):
            raise ValueError("point needs both coordinates or neither")
        return tuple.__new__(cls, (x, y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_identity:
            return "Point(identity)"
        return f"Point({self.x}, {self.y})"


IDENTITY = Point(None, None)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong probable-prime test to base 2, then a strong
    Lucas test (Baillie and Wagstaff, Math. Comp. 35, 1980).  No composite is
    known to pass both, none below 2^64 does, and there are no fixed bases to
    build one against (Albrecht et al., "Prime and Prejudice", CCS 2018)."""
    if n < 3 or n % 2 == 0:
        return n == 2
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, base: int) -> bool:
    """One Miller-Rabin round for odd n > 2: n - 1 = d * 2^s with d odd."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(base, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 2 with Selfridge's method A: P = 1 and
    Q = (1 - D)/4 for the first D in 5, -7, 9, -11, ... with (D/n) = -1."""
    if math.isqrt(n) ** 2 == n:
        return False  # the search for D would never end
    D = 5
    while _jacobi(D, n) != -1:
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    # U_k, V_k and Q^k for k = 1, then along the bits of d = (n + 1) / 2^s.
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def mod_inverse(value: int, modulus: int) -> int:
    """Inverse of value mod modulus; ZeroDivisionError when none exists."""
    try:
        return pow(value, -1, modulus)
    except ValueError:
        raise ZeroDivisionError(f"{value} is not invertible mod {modulus}") from None


# Digit widths: the width-w NAF of the GLV halves in variable-base mul, and
# the signed radix-2^w digits that index the generator table.
_GLV_WIDTH = 5
_GEN_TABLE_WIDTH = 8

# Jacobian (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); Z == 0 is the
# identity.  Formulas from Hankerson-Menezes-Vanstone, Guide to ECC, section 3.2.


def _jacobian_double(pt, a, p):
    """2*pt for any curve coefficient a; the slope's a*Z^4 term is skipped
    when a = 0, as on secp256k1."""
    x, y, z = pt
    yy = y * y % p
    s = 4 * x * yy % p
    m = 3 * x * x
    if a:
        zz = z * z % p
        m += a * zz * zz
    m %= p
    x3 = (m * m - 2 * s) % p
    # z3 is 0 for the identity and for a point of order 2, whose double is
    # the identity, so neither needs a branch.
    return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p


def _jacobian_add_affine(pt, x2, y2, a, p):
    """pt + (x2, y2) for a Jacobian pt and an affine, non-identity (x2, y2)."""
    x1, y1, z1 = pt
    if z1 == 0:
        return x2, y2, 1
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * zz * z1 - y1) % p
    if h == 0:
        # Same x: equal points double, opposite points cancel.
        return _jacobian_double(pt, a, p) if r == 0 else (1, 1, 0)
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p


def _to_affine(points, p):
    """Affine (x, y) of each Jacobian point, None where Z = 0, with one
    inversion for them all (Montgomery's simultaneous inversion)."""
    prefix = [1]
    for _, _, z in points:
        prefix.append(prefix[-1] * (z or 1) % p)
    inv = mod_inverse(prefix[-1], p)
    affine = [None] * len(points)
    for i in reversed(range(len(points))):
        x, y, z = points[i]
        if z:
            z_inv = inv * prefix[i] % p
            inv = inv * z % p
            zz_inv = z_inv * z_inv % p
            affine[i] = (x * zz_inv % p, y * zz_inv * z_inv % p)
    return affine


def _wnaf(k, w):
    """[(i, d)] with the sum of d*2^i equal to k >= 0: the non-zero digits of
    k's width-w non-adjacent form (Guide to ECC, Algorithm 3.35), lowest
    first.  Each d is odd with |d| < 2^(w-1) and has at least w - 1 zero
    digits above it; w = 2 is the plain NAF.  The loop runs once per non-zero
    digit, jumping over each run of zeros in one shift."""
    digits = []
    i = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & ((1 << w) - 1)
        if d >> (w - 1):
            d -= 1 << w
        digits.append((i, d))
        k = (k - d) >> w
        i += w
    return digits


def _odd_multiples(x, y, w, a, p):
    """[u, 3u, 5u, ..., (2^(w-1) - 1)u] as affine (x, y), None for the
    identity, for u = (x, y) not of order 2 and w >= 3; one inversion.

    With 2u = (X, Y, Z), the isomorphism (x, y) -> (Z^2 x, Z^3 y) onto the
    curve with coefficient a*Z^4 makes 2u the affine (X, Y), so each odd
    multiple is one mixed add there, and a result (X', Y', Z') there is
    (X', Y', Z'*Z) here."""
    x2, y2, z = _jacobian_double((x, y, 1), a, p)
    zz = z * z % p
    a_iso = a * zz * zz % p
    pt = (x * zz % p, y * zz * z % p, 1)
    multiples = []
    for _ in range((1 << (w - 2)) - 1):
        pt = _jacobian_add_affine(pt, x2, y2, a_iso, p)
        multiples.append((pt[0], pt[1], pt[2] * z % p))
    return [(x, y)] + _to_affine(multiples, p)


def _joint_mul(terms, w, a, p):
    """k1*u1 + k2*u2 + ... in Jacobian coordinates, for terms (k, table)
    with any integer k and table the affine odd multiples of u, as
    _odd_multiples returns them for this w, by one left-to-right loop over
    the width-w NAF digits of every k at once (Guide to ECC, Algorithm 3.51).
    A digit d adds table[|d| // 2] when d and k have the same sign, and that
    entry's free negation (x, p - y) otherwise; identity entries are
    skipped.  About 1/(w + 1) of the digits are non-zero, and the loop
    doubles once per digit below the highest non-zero one."""
    adds = []
    for k, table in terms:
        for i, d in _wnaf(abs(k), w):
            entry = table[abs(d) >> 1]
            if entry:
                x, y = entry
                adds.append((i, x, y if (d > 0) == (k > 0) else p - y))
    adds.sort(reverse=True)
    acc = (1, 1, 0)
    top = adds[0][0] if adds else 0
    for i, x, y in adds:
        for _ in range(top - i):
            acc = _jacobian_double(acc, a, p)
        acc = _jacobian_add_affine(acc, x, y, a, p)
        top = i
    for _ in range(top):
        acc = _jacobian_double(acc, a, p)
    return acc


def _add_table_multiple(acc, k, rows, a, p):
    """acc + k*gen for a Jacobian acc, with rows a generator table as
    Curve._gen_table builds it and |k| within its reach.  |k| is read in
    signed radix-2^w digits in (-2^(w-1), 2^(w-1)], one per row; a digit d
    adds its entry when d and k have the same sign, and the entry's free
    negation (x, p - y) otherwise."""
    w = _GEN_TABLE_WIDTH
    half = 1 << (w - 1)
    m = abs(k)
    for row in rows:
        d = m & (2 * half - 1)
        m >>= w
        if d > half:
            d -= 2 * half
            m += 1
        entry = row[abs(d)]
        if entry:
            x, y = entry
            acc = _jacobian_add_affine(acc, x, y if (d > 0) == (k > 0) else p - y, a, p)
    return acc


def _cube_root_of_unity(n):
    """A cube root of 1 mod the prime n other than 1; None unless n = 1 mod 3."""
    if n % 3 != 1:
        return None
    for g in range(2, n):
        root = pow(g, (n - 1) // 3, n)
        if root != 1:
            return root


def _glv_basis(q, lam):
    """Two short vectors (a, b) with a + b*lam = 0 (mod q) and determinant q,
    from extended Euclid on (q, lam) (Guide to ECC, Algorithm 3.74)."""
    rows = [(q, 0), (lam, 1)]
    while rows[-1][0]:
        (r0, t0), (r1, t1) = rows[-2:]
        rows.append((r0 - r0 // r1 * r1, t0 - r0 // r1 * t1))
    last = max(i for i, (r, _) in enumerate(rows) if r * r >= q)
    (r0, t0), (r1, t1), (r2, t2) = rows[last:last + 3]
    a1, b1 = r1, -t1
    a2, b2 = (r0, -t0) if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2 else (r2, -t2)
    if a1 * b2 - a2 * b1 < 0:
        a2, b2 = -a2, -b2
    return a1, b1, a2, b2


def _glv_split(k, q, basis):
    """(k1, k2) with k1 + k2*lam = k (mod q), each about half as long as q:
    k minus a lattice point near (k, 0), found by rounding (Babai)."""
    a1, b1, a2, b2 = basis
    c1 = (2 * b2 * k + q) // (2 * q)
    c2 = (-2 * b1 * k + q) // (2 * q)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


class Curve(namedtuple("Curve", "p a b gx gy q")):
    """Curve y^2 = x^3 + ax + b over F_p with generator (gx, gy) of prime order q.

    Construct through validate_params / load_curve_file so the invariants
    (prime p, non-singular equation, generator on curve with order q,
    cofactor 1) hold.  No ``__slots__``: the cached properties keep their
    values in the instance ``__dict__``.
    """

    @cached_property
    def gen(self) -> Point:
        return Point(self.gx, self.gy)

    @property
    def coord_size(self) -> int:
        """Bytes per encoded coordinate: minimal width of p."""
        return (self.p.bit_length() + 7) // 8

    @property
    def scalar_size(self) -> int:
        """Bytes needed for a scalar mod q."""
        return (self.q.bit_length() + 7) // 8

    def is_on_curve(self, u: Point) -> bool:
        if u.is_identity:
            return True
        if not (0 <= u.x < self.p and 0 <= u.y < self.p):
            return False
        return (u.y * u.y - (u.x ** 3 + self.a * u.x + self.b)) % self.p == 0

    def _require_on_curve(self, u: Point):
        if not self.is_on_curve(u):
            raise PointNotOnCurve(f"{u!r} does not satisfy the curve equation")

    def negate(self, u: Point) -> Point:
        """-u; u must lie on this curve."""
        if u.is_identity:
            return u
        return Point(u.x, (-u.y) % self.p)

    def add(self, u: Point, v: Point) -> Point:
        """Group sum by the affine chord-tangent rules."""
        self._require_on_curve(u)
        self._require_on_curve(v)
        if u.is_identity:
            return v
        if v.is_identity:
            return u
        if u.x == v.x and (u.y + v.y) % self.p == 0:
            return IDENTITY
        if u == v:
            slope = (3 * u.x * u.x + self.a) * mod_inverse(2 * u.y, self.p) % self.p
        else:
            slope = (v.y - u.y) * mod_inverse(v.x - u.x, self.p) % self.p
        x3 = (slope * slope - u.x - v.x) % self.p
        y3 = (slope * (u.x - x3) - u.y) % self.p
        return Point(x3, y3)

    @cached_property
    def _gen_table(self):
        """rows[i][d] = d * 2^(w*i) * gen as an affine (x, y), or None for
        the identity, for 0 <= d <= 2^(w-1) and w = _GEN_TABLE_WIDTH; one
        inversion per row.

        The rows reach the largest scalar mul reads from them, with
        ``bits`` its bit length.  Without the endomorphism that is q - 1.
        With it, mul reads the halves of _glv_split: Babai rounding misses
        the exact solution by at most 1/2 along each basis vector, so
        |k1| <= (|a1| + |a2|)/2 and |k2| <= (|b1| + |b2|)/2, and bits is the
        bit length of the larger bound, 128 on secp256k1.  rows*w >= bits + 1,
        so the carry of the last signed digit lands in a row."""
        a, p, w = self.a, self.p, _GEN_TABLE_WIDTH
        if self._endomorphism:
            a1, b1, a2, b2 = self._endomorphism[2]
            bits = (max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2).bit_length()
        else:
            bits = (self.q - 1).bit_length()
        base = (self.gx, self.gy)
        rows = []
        for _ in range((bits + w) // w):
            x, y = base
            row = [(1, 1, 0), (x, y, 1), _jacobian_double((x, y, 1), a, p)]
            while len(row) <= 1 << (w - 1):
                row.append(_jacobian_add_affine(row[-1], x, y, a, p))
            # 2^w * 2^(w*i) * gen is the next row's base; it is the identity
            # only after the last row, when q = 2.
            *row, base = _to_affine(row + [_jacobian_double(row[-1], a, p)], p)
            rows.append(row)
        return rows

    @cached_property
    def _endomorphism(self):
        """(beta, lam, basis) with phi(x, y) = (beta*x, y) equal to lam*u on
        every point u, and the short basis that splits scalars; None unless
        a = 0, p = 1 (mod 3) and lam*gen is phi(gen) for one of the two cube
        roots beta.  Derived on the first mul that can use it, a k*gen or a
        variable-base product, once per Curve, without an inversion."""
        p, q = self.p, self.q
        beta, lam = _cube_root_of_unity(p), _cube_root_of_unity(q)
        if self.a != 0 or beta is None or lam is None:
            return None
        x, y, z = _joint_mul([(lam, [(self.gx, self.gy)])], 2, 0, p)
        zz = z * z % p
        for beta in (beta, beta * beta % p):
            if x == beta * self.gx * zz % p and y == self.gy * zz * z % p:
                return beta, lam, _glv_basis(q, lam)

    def mul(self, k: int, u: Point) -> Point:
        """k-fold sum of u; negative k multiplies -u.

        k is used as given, not reduced mod q, and each call ends with one
        inversion; the variable-base split path inverts once more, for its
        table of odd multiples.  The module docstring describes the three
        paths and the generator table that the first k*gen builds.
        """
        self._require_on_curve(u)
        if k == 0 or u.is_identity:
            return IDENTITY
        a, p = self.a, self.p
        if 0 < k < self.q and self._endomorphism:
            beta, _, basis = self._endomorphism
            k1, k2 = _glv_split(k, self.q, basis)
            if u == self.gen:
                rows = self._gen_table
                x, y, z = _add_table_multiple((1, 1, 0), k2, rows, a, p)
                acc = _add_table_multiple((beta * x % p, y, z), k1, rows, a, p)
            else:
                table = _odd_multiples(u.x, u.y, _GLV_WIDTH, a, p)
                phi_table = [e and (beta * e[0] % p, e[1]) for e in table]
                acc = _joint_mul([(k1, table), (k2, phi_table)], _GLV_WIDTH, a, p)
        elif 0 < k < self.q and u == self.gen:
            acc = _add_table_multiple((1, 1, 0), k, self._gen_table, a, p)
        else:
            x, y = u.x, (u.y if k > 0 else p - u.y)
            acc = (x, y, 1)
            for bit in bin(abs(k))[3:]:
                acc = _jacobian_double(acc, a, p)
                if bit == "1":
                    acc = _jacobian_add_affine(acc, x, y, a, p)
        x, y, z = acc
        if z == 0:
            return IDENTITY
        z_inv = mod_inverse(z, p)
        zz_inv = z_inv * z_inv % p
        return Point(x * zz_inv % p, y * zz_inv * z_inv % p)

    def encode_point(self, u: Point) -> bytes:
        """Identity -> 0x00, else 0x04 || x || y fixed-width; u must lie on this curve."""
        if u.is_identity:
            return b"\x00"
        w = self.coord_size
        return b"\x04" + u.x.to_bytes(w, "big") + u.y.to_bytes(w, "big")

    def decode_point(self, data: bytes) -> Point:
        """Strict inverse of encode_point; the decoded point must lie on the curve."""
        if len(data) == 1 and data[0] == 0x00:
            return IDENTITY
        w = self.coord_size
        if len(data) != 1 + 2 * w:
            raise MalformedEncoding(f"expected 1 or {1 + 2 * w} bytes, got {len(data)}")
        if data[0] != 0x04:
            raise MalformedEncoding(f"unknown point prefix {data[0]:#04x}")
        x = int.from_bytes(data[1:1 + w], "big")
        y = int.from_bytes(data[1 + w:], "big")
        if x >= self.p or y >= self.p:
            raise MalformedEncoding("coordinate exceeds the field modulus")
        point = Point(x, y)
        self._require_on_curve(point)
        return point


def validate_params(p: int, a: int, b: int, gx: int, gy: int, q: int) -> Curve:
    """Check a raw parameter set and return the usable Curve.

    One rule for every field size: p > 3 and q pass the Baillie-PSW test
    of is_probable_prime, q differs from p (curves with q = p fall to
    Smart's attack), the cofactor is 1 and q*gen is the identity (summed by
    _joint_mul, with no inversion).  The Hasse bound #E <= p + 1 + 2*sqrt(p)
    proves the cofactor for every p: when 2q exceeds it, q is the whole
    group.  It cannot prove the nine cofactor-1 shapes with p <= 19 whose q
    is too small, so those raise WrongOrder; TOY_CURVE passes.  Cofactor 1
    puts every on-curve point in <gen>, so decode_point's check is complete.
    """
    if p <= 3 or not is_probable_prime(p):
        raise NonPrimeModulus(f"field modulus {p} is not an odd prime > 3")
    a %= p
    b %= p
    if (4 * a ** 3 + 27 * b ** 2) % p == 0:
        raise SingularCurve("discriminant is zero")
    curve = Curve(p, a, b, gx, gy, q)
    if not curve.is_on_curve(curve.gen):
        raise GeneratorNotOnCurve(f"({gx}, {gy}) is not a point of the curve")
    if not is_probable_prime(q):
        raise WrongOrder(f"group order {q} is not prime")
    if q == p:
        raise WrongOrder(f"group order equals the field modulus {p} (anomalous curve)")
    margin = 2 * q - p - 1
    if margin <= 0 or margin * margin <= 4 * p:
        raise WrongOrder(f"order {q} is too small to prove cofactor 1")
    if _joint_mul([(q, [(gx, gy)])], 2, a, p)[2]:
        raise WrongOrder("q * gen is not the identity")
    return curve


# Fixed desk-scale curve used by all deterministic examples: 19 points, all
# generated by (5, 1).
TOY_CURVE = validate_params(p=17, a=2, b=2, gx=5, gy=1, q=19)


def _decimal(text: str) -> int:
    """The integer rule of curve files and CLI options: an optional '-', ASCII digits."""
    # int() alone would also take '+', '_', spaces and non-ASCII digits.
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("is not a decimal integer")
    try:
        return int(text)
    except ValueError:  # all digits, so only int()'s digit limit refuses it
        raise ValueError(f"is too long ({len(digits)} digits)") from None


def parse_curve_params(text: str) -> Curve:
    """Parse `key = value` curve-parameter text and validate it.

    Keys p, a, b, gx, gy, q; decimal integers; one pair per line.  Blank
    lines and lines starting with '#' are ignored; unknown or repeated keys
    are rejected.
    """
    values: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise MalformedParameterFile(f"line {lineno}: expected `key = value`")
        key = key.strip()
        if key not in Curve._fields:
            raise MalformedParameterFile(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise MalformedParameterFile(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _decimal(raw.strip())
        except ValueError as exc:
            raise MalformedParameterFile(f"line {lineno}: value for {key!r} {exc}") from None
    missing = [k for k in Curve._fields if k not in values]
    if missing:
        raise MalformedParameterFile(f"missing keys: {', '.join(missing)}")
    return validate_params(**values)


def load_curve_file(path) -> Curve:
    # A byte that is not UTF-8 becomes a lone surrogate, which no rule accepts.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_curve_params(fh.read())
