"""Exact quadratic arithmetic and continued fractions."""

import math
import random

import pytest

from sturmian.exactnum import (
    ContinuedFraction,
    ExactReal,
    MixedRadicalError,
    _floor_quadratic,
    _sign2,
    cf_expand,
    cf_value,
    compare,
    parse_real,
)


def test_normalization_folds_square_factors():
    # sqrt(8) = 2 sqrt(2)
    x = ExactReal(2, 2, 4, 8)
    assert (x.a, x.b, x.c, x.d) == (1, 2, 2, 2)


def test_normalization_rational_radicand():
    # sqrt(9) = 3 collapses to a rational
    x = ExactReal(1, 2, 1, 9)
    assert x.is_rational
    assert x == ExactReal.rational(7)


def test_results_match_public_constructor():
    # arithmetic skips the squarefree split of d; with a large prime d
    # the results must still be exactly what the public constructor gives
    x = ExactReal.sqrt(1000003)
    y = ExactReal(3, -2, 7, 1000003)
    q = ExactReal.rational(-5, 6)
    results = [x + y, x - y, y - q, x * y, x / y, q / x, y.inverse(), -y, x * x, q * q]
    for r in results:
        public = ExactReal(r.a, r.b, r.c, r.d)
        assert (r.a, r.b, r.c, r.d) == (public.a, public.b, public.c, public.d)
        assert r == public and hash(r) == hash(public)
    assert (x * x).is_rational and x * x == ExactReal.rational(1000003)
    assert x / y * y == x


def test_squarefree_path_normalizes():
    rng = random.Random(8)
    for _ in range(300):
        a, b, c = rng.randint(-50, 50), rng.randint(-50, 50), rng.choice([-12, -3, 1, 4, 30])
        d = rng.choice([0, 2, 3, 5, 6, 1000003])
        fast = ExactReal._squarefree(a, b, c, d)
        public = ExactReal(a, b, c, d)
        assert (fast.a, fast.b, fast.c, fast.d) == (public.a, public.b, public.c, public.d)


def test_normalization_sign_and_gcd():
    x = ExactReal(-4, 0, -6, 0)
    assert (x.a, x.b, x.c, x.d) == (2, 0, 3, 0)
    with pytest.raises(ZeroDivisionError):
        ExactReal(1, 1, 0, 2)
    with pytest.raises(ValueError):
        ExactReal(1, 1, 1, -2)


def test_zero_radical_coefficient_clears_radicand():
    x = ExactReal(5, 0, 2, 7)
    assert x.d == 0
    assert x == ExactReal(5, 0, 2, 11)


def test_golden_ratio_identity():
    phi = ExactReal(1, 1, 2, 5)
    assert phi * phi == phi + 1
    assert phi.inverse() == phi - 1


def test_arithmetic_round_trips_random():
    rng = random.Random(20260819)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 7])
        x = ExactReal(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), d)
        y = ExactReal(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), d)
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x * y) / y == x
        assert abs(float(x + y) - (float(x) + float(y))) < 1e-9
        assert abs(float(x * y) - (float(x) * float(y))) < 1e-6


def test_mixed_radical_arithmetic_rejected():
    with pytest.raises(MixedRadicalError):
        ExactReal.sqrt(2) + ExactReal.sqrt(3)
    with pytest.raises(MixedRadicalError):
        ExactReal.sqrt(2) * ExactReal.sqrt(3)


def test_cross_field_comparison_allowed():
    # 1 + sqrt(2) = 2.414... < sqrt(7) = 2.645...
    assert compare(ExactReal.sqrt(2) + 1, ExactReal.sqrt(7)) == -1
    assert compare(ExactReal.sqrt(7), ExactReal.sqrt(2) + 1) == 1
    # sqrt(50)/5 and sqrt(2) are the same number
    assert compare(ExactReal(0, 1, 5, 50), ExactReal.sqrt(2)) == 0
    assert ExactReal.sqrt(2) < ExactReal.sqrt(3)


def exact_order(x, y):
    """Sign of x - y from floor(2**k x) and floor(2**k y) for growing k:
    monotone floors that differ order the values, and distinct values
    differ once 2**k |x - y| > 1.  Equal values have equal normal forms."""
    if x == y:
        return 0
    k = 0
    while True:
        fx = _floor_quadratic(x.a << k, x.b << k, x.c, x.d)
        fy = _floor_quadratic(y.a << k, y.b << k, y.c, y.d)
        if fx != fy:
            return -1 if fx < fy else 1
        k += 1


def near_ties(rng, count):
    """Pairs x in Q(sqrt(d1)), y in Q(sqrt(d2)) with |x - y| < 2 / c2:
    y = (a2 + b2 sqrt(d2)) / c2 with a2 next to c2 x - b2 sqrt(d2)."""
    pairs = []
    for _ in range(count):
        d1, d2 = rng.sample([2, 3, 5, 6, 7, 10, 9973], 2)
        x = ExactReal(rng.randint(-50, 50), rng.choice([-1, 1]) * rng.randint(1, 10**3),
                      rng.randint(1, 50), d1)
        b2, c2 = rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6)
        near = _floor_quadratic(c2 * x.a, c2 * x.b, x.c, x.d) - _floor_quadratic(0, b2, 1, d2)
        pairs.append((x, ExactReal(near + rng.randint(-1, 1), b2, c2, d2)))
    return pairs


def test_cross_field_comparison_exact():
    rng = random.Random(7)
    pool = [2, 3, 5, 6, 7, 10]
    pairs = []
    for _ in range(400):
        x = ExactReal(
            rng.randint(-20, 20), rng.randint(-6, 6), rng.randint(1, 9),
            rng.choice(pool),
        )
        y = ExactReal(
            rng.randint(-20, 20), rng.randint(-6, 6), rng.randint(1, 9),
            rng.choice(pool),
        )
        pairs.append((x, y))
    # convergents of sqrt(2), and 1 + sqrt(2) against sqrt(7)
    root2 = ExactReal.sqrt(2)
    for p, q in [(3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (577, 408), (665857, 470832)]:
        pairs.append((root2, ExactReal.rational(p, q)))
    pairs.append((root2 + 1, ExactReal.sqrt(7)))
    pairs.append((ExactReal(0, 1, 5, 50), root2))
    pairs += near_ties(rng, 400)
    for x, y in pairs:
        want = exact_order(x, y)
        assert compare(x, y) == want, (x, y)
        assert compare(y, x) == -want, (x, y)


def bracket_sign(v, w1, d1, w2, d2):
    """Sign of v + w1 sqrt(d1) + w2 sqrt(d2) from integer floors: 2**k
    times the value lies in [L, L + 2) with L = 2**k v +
    floor(2**k w1 sqrt(d1)) + floor(2**k w2 sqrt(d2)).  A nonzero value
    is an algebraic integer of degree at most 4 whose conjugates are at
    most M in size, so its norm puts it at least 1/M**3 away from 0;
    a bracket still holding 0 once 2**k > 2 M**3 means the value is 0."""
    bound = abs(v) + (abs(w1) + abs(w2)) * (math.isqrt(max(d1, d2)) + 1)
    k = 0
    while True:
        low = (v << k) + _floor_quadratic(0, w1 << k, 1, d1) + _floor_quadratic(0, w2 << k, 1, d2)
        if low > 0:
            return 1
        if low + 2 <= 0:
            return -1
        if 1 << k > 2 * bound**3:
            return 0
        k += 1


def bracket_floor(v, w1, d1, w2, d2, c):
    """floor((v + w1 sqrt(d1) + w2 sqrt(d2)) / c), the m with the value
    minus m*c of sign >= 0 and minus (m + 1)*c of sign < 0."""
    m = _floor_quadratic(v, w1, c, d1) + _floor_quadratic(0, w2, c, d2)
    while bracket_sign(v - m * c, w1, d1, w2, d2) < 0:
        m -= 1
    while bracket_sign(v - (m + 1) * c, w1, d1, w2, d2) >= 0:
        m += 1
    return m


def sign_cases(rng, count):
    """(v, w1, d1, w2, d2): random terms of either sign, zeros among
    v, w1, w2 and d1, equal fields, and v within a few units of
    -(w1 sqrt(d1) + w2 sqrt(d2)), where the squaring branch decides."""
    fields = [0, 2, 3, 5, 6, 7, 10, 13, 9973]
    cases = [(0, 0, 0, 0, 0), (0, 1, 2, -1, 2), (0, 1, 2, -1, 3), (0, 0, 5, 3, 7),
             (-3, 1, 2, 1, 3), (3, -1, 2, -1, 3), (1, 1, 2, -1, 7)]
    for i in range(count):
        d1, d2 = rng.choice(fields), rng.choice(fields[1:])
        if i % 7 == 0:
            d1 = d2
        w1 = rng.choice([0, 1, -1]) * rng.randint(1, 10**6) if i % 5 else 0
        w2 = rng.choice([1, -1]) * rng.randint(1, 10**6)
        if i % 3 == 0:
            v = rng.randint(-10**7, 10**7)
        else:
            v = -_floor_quadratic(0, w1, 1, d1) - _floor_quadratic(0, w2, 1, d2) + rng.randint(-2, 1)
        if i % 11 == 0:
            v = 0
        cases.append((v, w1, d1, w2, d2))
    return cases


def test_sign2_matches_brackets():
    rng = random.Random(20261019)
    for v, w1, d1, w2, d2 in sign_cases(rng, 3000):
        want = bracket_sign(v, w1, d1, w2, d2)
        assert _sign2(v, w1, d1, w2, d2) == want, (v, w1, d1, w2, d2)
        assert _sign2(v, w2, d2, w1, d1) == want, (v, w1, d1, w2, d2)


def frac(x):
    """The fractional part x - floor(x)."""
    return x - ExactReal(x.floor())


def test_floor_and_frac():
    slope = ExactReal(3, -1, 2, 5)
    assert slope.floor() == 0
    assert (-slope).floor() == -1
    assert ExactReal.rational(7, 2).floor() == 3
    assert ExactReal.rational(-7, 2).floor() == -4
    assert ExactReal.rational(5).floor() == 5
    assert frac(slope) == slope
    phi = ExactReal(1, 1, 2, 5)
    assert phi.floor() == 1
    assert frac(phi) == phi - 1


def test_floor_brackets_value_random():
    rng = random.Random(99)
    for _ in range(300):
        x = ExactReal(
            rng.randint(-50, 50), rng.randint(-12, 12), rng.randint(1, 9),
            rng.choice([0, 2, 3, 5, 13]),
        )
        f = x.floor()
        assert ExactReal.rational(f) <= x < ExactReal.rational(f + 1)
    # b of either sign, and x within 1/c of an integer n: with
    # s = floor(b sqrt(d)) and a = n c - s - k, x lies in (n - k/c,
    # n + (1 - k)/c), just above n for k = 0 and just below it for k = 1
    for _ in range(2000):
        b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        c = rng.randint(1, 10**3)
        d = rng.choice([2, 3, 5, 6, 7, 13, 9973])
        n, k = rng.randint(-10**3, 10**3), rng.randint(0, 1)
        root = math.isqrt(b * b * d)
        s = root if b > 0 else -root - 1
        x = ExactReal(n * c - s - k, b, c, d)
        f = x.floor()
        assert ExactReal.rational(f) <= x < ExactReal.rational(f + 1)
        assert f == n - k


def test_integer_floor_matches_bracketing():
    # _floor_quadratic(a, b, c, d) is the m with m <= x < m + 1 for
    # x = (a + b sqrt(d)) / c, decided here by ExactReal._cmp_int
    rng = random.Random(20261018)
    for _ in range(3000):
        a = rng.randint(-10**6, 10**6)
        b = rng.choice([0, rng.randint(-10**4, 10**4)])
        c = rng.randint(1, 10**3)
        d = rng.choice([0, 2, 3, 5, 6, 7, 13, 9973, rng.randint(2, 10**6)])
        m = _floor_quadratic(a, b, c, d)
        x = ExactReal(a, b, c, d)
        assert x._cmp_int(m) >= 0 and x._cmp_int(m + 1) < 0
        assert m == x.floor()
    # perfect squares (unnormalized radicands) are exact too
    for a, b, c, d in [(0, -1, 1, 4), (1, -3, 2, 9), (5, 2, 3, 16), (-7, -1, 7, 1)]:
        x = ExactReal(a, b, c, d)
        m = _floor_quadratic(a, b, c, d)
        assert x._cmp_int(m) >= 0 and x._cmp_int(m + 1) < 0


def test_float_accuracy():
    assert abs(float(ExactReal.sqrt(2)) - math.sqrt(2)) < 1e-12
    slope = ExactReal(3, -1, 2, 5)
    assert abs(float(slope) - (3 - math.sqrt(5)) / 2) < 1e-12


def test_parse_and_render_round_trip():
    samples = [
        ExactReal.rational(0),
        ExactReal.rational(-7, 3),
        ExactReal.sqrt(7) / 7,
        ExactReal(3, -1, 2, 5),
        ExactReal(-2, 5, 9, 3),
    ]
    for x in samples:
        assert parse_real(str(x)) == x


def test_parse_real_forms():
    assert parse_real("sqrt(7)/7") == ExactReal(0, 1, 7, 7)
    assert parse_real("(3-sqrt(5))/2") == ExactReal(3, -1, 2, 5)
    assert parse_real("(3-1*sqrt(5))/2") == ExactReal(3, -1, 2, 5)
    assert parse_real("1/2") == ExactReal.rational(1, 2)
    assert parse_real("-3") == ExactReal.rational(-3)
    with pytest.raises(ValueError):
        parse_real("one half")
    with pytest.raises(ValueError):
        parse_real("sqrt(-2)")


@pytest.mark.parametrize("text", [
    "1/0", "0/0", "-3/00", "(1+sqrt(2))/0", "(3-2*sqrt(5))/000", "sqrt(2)/0",
    "2*sqrt(3)/0",
])
def test_parse_real_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match="bad exact-real string"):
        parse_real(text)


def test_parse_real_keeps_leading_zeros_of_a_denominator():
    assert parse_real("1/02") == ExactReal.rational(1, 2)
    assert parse_real("(1+sqrt(2))/010") == ExactReal(1, 1, 10, 2)
    assert parse_real("sqrt(2)/002") == ExactReal(0, 1, 2, 2)


def test_cf_value_periodic():
    # [0; 2, (1)] is (3 - sqrt(5))/2, the Fibonacci slope
    cf = ContinuedFraction((0, 2), (1,))
    assert cf_value(cf) == ExactReal(3, -1, 2, 5)
    # [0; 3, (2)] is (2 - sqrt(2))/2
    cf = ContinuedFraction((0, 3), (2,))
    assert cf_value(cf) == ExactReal(2, -1, 2, 2)


def test_cf_value_finite():
    cf = ContinuedFraction((0, 2, 3), ())
    assert cf_value(cf) == ExactReal.rational(3, 7)


def test_cf_expand_quadratic():
    slope = ExactReal(3, -1, 2, 5)
    assert cf_expand(slope, 4) == [0, 2, 1, 1, 1]
    d2 = ExactReal(2, -1, 2, 2)
    assert cf_expand(d2, 4) == [0, 3, 2, 2, 2]


def test_cf_expand_rational_terminates():
    assert cf_expand(ExactReal.rational(3, 7), 10) == [0, 2, 3]


def test_cf_expand_matches_cf_value_round_trip():
    rng = random.Random(4242)
    for _ in range(50):
        p = rng.randint(1, 30)
        q = rng.randint(p + 1, 60)
        x = ExactReal.rational(p, q)
        quotients = cf_expand(x, 64)
        # fold the expansion back up
        value = ExactReal.rational(quotients[-1])
        for a in reversed(quotients[:-1]):
            value = ExactReal.rational(a) + value.inverse()
        assert value == x


def test_cf_parse_and_str():
    cf = ContinuedFraction.parse("[0;2,(1)]")
    assert cf.quotients == (0, 2) and cf.periodic == (1,)
    assert str(cf) == "[0;2,(1)]"
    assert ContinuedFraction.parse(str(cf)) == cf


def test_cf_validation():
    with pytest.raises(ValueError):
        ContinuedFraction((0, 0), ())  # inner quotient must be >= 1
    with pytest.raises(ValueError):
        ContinuedFraction((0, 2, 1), ())  # finite form must not end in 1
    with pytest.raises(ValueError):
        ContinuedFraction((-1,), ())


def test_ordering_operators():
    third = ExactReal.rational(1, 3)
    half = ExactReal.rational(1, 2)
    assert third < half <= half < ExactReal.sqrt(2)
    assert max(half, third) == half
    assert sorted([half, third, ExactReal.rational(0)])[0] == ExactReal.rational(0)
