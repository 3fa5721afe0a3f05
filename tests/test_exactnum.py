"""Exact quadratic arithmetic and continued fractions."""

import math
import random

import pytest

from sturmian.exactnum import (
    ContinuedFraction,
    ExactReal,
    MixedRadicalError,
    _floor_quadratic,
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


def test_cross_field_comparison_random():
    rng = random.Random(7)
    pool = [2, 3, 5, 6, 7, 10]
    for _ in range(400):
        x = ExactReal(
            rng.randint(-20, 20), rng.randint(-6, 6), rng.randint(1, 9),
            rng.choice(pool),
        )
        y = ExactReal(
            rng.randint(-20, 20), rng.randint(-6, 6), rng.randint(1, 9),
            rng.choice(pool),
        )
        got = compare(x, y)
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-6:
            assert got == (-1 if fx < fy else 1)
        else:
            # too close to trust floats; exactness is checked elsewhere
            assert got in (-1, 0, 1)


def test_floor_and_frac():
    slope = ExactReal(3, -1, 2, 5)
    assert slope.floor() == 0
    assert (-slope).floor() == -1
    assert ExactReal.rational(7, 2).floor() == 3
    assert ExactReal.rational(-7, 2).floor() == -4
    assert ExactReal.rational(5).floor() == 5
    frac = slope.frac()
    assert frac == slope
    phi = ExactReal(1, 1, 2, 5)
    assert phi.floor() == 1
    assert phi.frac() == phi - 1


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
