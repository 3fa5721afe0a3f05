"""Mechanical, rotation, standard, and characteristic words."""

import random

import pytest

from sturmian.errors import CapExceededError
from sturmian.exactnum import (
    ExactReal,
    MixedRadicalError,
    _floor_quadratic,
    _sign2,
    compare,
    parse_real,
)
import sturmian.words as words_mod
from sturmian.counting import sturmian_totals
from sturmian.ostrowski import standard_lengths
from sturmian.words import (
    BinaryWord,
    DirectiveSequence,
    MechanicalParams,
    balance_witness,
    characteristic_factor_count,
    characteristic_prefix,
    factor_set,
    has_kth_power,
    is_balanced,
    mechanical_word,
    n_partition,
    rotation_word,
    standard_words,
)
from test_exactnum import bracket_floor, sign_cases

FIB = DirectiveSequence.parse("fib")
D2 = DirectiveSequence.parse("2,(2)")

# the two worked example words on factor complexity
EXAMPLE_U = "aababababababab"
EXAMPLE_W = "aabaabaaabaabaaabaabaabaaabaabaaabaabaaba"


def bw(text):
    return BinaryWord.from_string(text)


class TestBinaryWord:
    def test_construction_forms(self):
        assert bw("0101") == bw("abab")
        assert BinaryWord([0, 1, 0]) == bw("010")
        assert BinaryWord(bw("01")) == bw("01")
        assert len(BinaryWord()) == 0

    def test_invalid_symbols(self):
        with pytest.raises(ValueError):
            bw("012")
        with pytest.raises(ValueError):
            BinaryWord([0, 2])

    def test_rendering(self):
        w = bw("abba")
        assert w.to_string("ab") == "abba"
        assert w.to_string("01") == "0110"
        assert str(w) == "0110"

    def test_slicing_and_indexing(self):
        w = bw("01101")
        assert w[0] == 0 and w[1] == 1
        assert w[1:4] == bw("110")
        assert w[::-1] == w.reverse()

    def test_concat_and_power(self):
        assert bw("01") + bw("10") == bw("0110")
        assert bw("01") * 3 == bw("010101")
        assert 2 * bw("1") == bw("11")

    def test_count_find_occurrences(self):
        w = bw("0110110")
        assert w.count(1) == 4
        assert w.find(bw("11")) == 1
        assert list(w.occurrences(bw("11"))) == [1, 4]
        assert w.startswith(bw("011"))

    def test_hashable(self):
        assert len({bw("01"), bw("ab"), bw("10")}) == 2


class TestDirectiveSequence:
    def test_parse_and_render(self):
        d = DirectiveSequence.parse("1,1,(1)")
        assert d.explicit == (1, 1) and d.periodic == (1,)
        assert str(FIB) == "1,(1)"
        assert DirectiveSequence.parse(str(d)) == d
        assert DirectiveSequence.parse("3,2,(5,4)").periodic == (5, 4)

    def test_fib_alias(self):
        assert FIB == DirectiveSequence.parse("1,(1)")

    def test_leading_zero_allowed(self):
        d = DirectiveSequence.parse("0,(3)")
        assert d.digit(0) == 0 and d.digit(1) == 3

    def test_validation(self):
        for text in ["", "1,0,(1)", "(0)", "2,(2,0)", "x", "1,,2"]:
            with pytest.raises(ValueError):
                DirectiveSequence.parse(text)

    def test_digit_access(self):
        d = DirectiveSequence.parse("2,3")
        assert d.is_finite
        assert d.digits(2) == [2, 3]
        with pytest.raises(IndexError):
            d.digit(2)
        assert not FIB.is_finite
        assert FIB.digits(5) == [1, 1, 1, 1, 1]

    def test_slope_values(self):
        assert FIB.slope() == ExactReal(3, -1, 2, 5)
        assert D2.slope() == ExactReal(2, -1, 2, 2)
        # leading zero: slope of (0,1,1,...) is [0;1,1,1,...] = (sqrt(5)-1)/2
        d = DirectiveSequence.parse("0,(1)")
        assert d.slope() == ExactReal(-1, 1, 2, 5)

    def test_slope_finite(self):
        assert DirectiveSequence.parse("2").slope() == ExactReal.rational(1, 3)
        # [0;2,1] must canonicalize to [0;3]
        assert DirectiveSequence.parse("1,1").slope() == ExactReal.rational(1, 3)


def _sum_floor(x, y):
    """floor(x + y) by ExactReal arithmetic, x and y in one quadratic
    field or in two."""
    try:
        return (x + y).floor()
    except MixedRadicalError:
        pass
    m = x.floor() + y.floor()
    # x + y is in [m, m+2); one exact comparison settles which unit interval.
    if compare(x, ExactReal(m + 1) - y) >= 0:
        m += 1
    return m


def _cmp_sum3(x, y, z, bound):
    """Sign of x + y + z - bound, the values spanning up to two fields."""
    for u, v, w in ((x, y, z), (x, z, y), (y, z, x)):
        try:
            s = u + v
        except MixedRadicalError:
            continue
        return compare(s, ExactReal(bound) - w)
    raise MixedRadicalError("three distinct radicals in one comparison")


def _floor2(v, w1, d1, w2, d2, c, f2):
    """floor((v + w1*sqrt(d1) + w2*sqrt(d2)) / c) for plain integers,
    c > 0, d1 and d2 as for _sign2, given f2 = floor(w2 sqrt(d2)).

    The value lies in [m, m + 1 + 1/c) for m = floor((v + f2 +
    w1 sqrt(d1)) / c), so one sign test against m + 1 settles it.  The
    caller passes f2 in because it holds w2 fixed over a whole word.
    """
    m = _floor_quadratic(v + f2, w1, c, d1)
    if _sign2(v - (m + 1) * c, w1, d1, w2, d2) >= 0:
        return m + 1
    return m


def floor2(v, w1, d1, w2, d2, c):
    """_floor2 given its floor(w2 sqrt(d2))."""
    return _floor2(v, w1, d1, w2, d2, c, _floor_quadratic(0, w2, 1, d2))


def test_floor2_matches_brackets():
    rng = random.Random(1019)
    for v, w1, d1, w2, d2 in sign_cases(rng, 1500):
        c = rng.choice([1, 2, 7, rng.randint(1, 10**4)])
        v = v * rng.choice([1, c]) + rng.randint(0, c)
        m = floor2(v, w1, d1, w2, d2, c)
        assert m == bracket_floor(v, w1, d1, w2, d2, c), (v, w1, d1, w2, d2, c)
        assert floor2(v, w2, d2, w1, d1, c) == m
    # one field whose radicals cancel: the sign test meets an exact 0
    for w, d, c in [(1, 2, 1), (-7, 3, 3), (10**6, 9973, 7)]:
        for v in (-2 * c, -1, 0, 5 * c, 5 * c + 1):
            assert floor2(v, w, d, -w, d, c) == v // c


def oracle_mechanical_word(params, n):
    """One exact floor (or ceiling) of k*sigma + rho per symbol.  Over
    C = sigma.c * rho.c, k*sigma + rho is (A_k + B_k sqrt(d) +
    E sqrt(d2)) / C with plain integers: d is the field of sigma (of rho
    if sigma is rational), and E, constant in k, is nonzero only when
    rho lies in a second field d2; _floor2 floors it."""
    sign = 1 if params.flavor == "lower" else -1
    sigma, rho = params.sigma * sign, params.rho * sign
    c, d = sigma.c * rho.c, sigma.d or rho.d
    a, da = rho.a * sigma.c, sigma.a * rho.c
    b, db = rho.b * sigma.c, sigma.b * rho.c
    e, d2 = 0, 0
    if rho.d not in (0, d):
        b, e, d2 = 0, b, rho.d
    f2 = _floor_quadratic(0, e, 1, d2)
    values = [_floor2(a + k * da, b + k * db, d, e, d2, c, f2) for k in range(n + 1)]
    return BinaryWord([sign * (values[k + 1] - values[k]) for k in range(n)])


def exact_real_mechanical_word(params, n):
    """The same floors by ExactReal arithmetic, through _sum_floor."""
    sigma, rho = params.sigma, params.rho
    if params.flavor == "lower":
        values = [_sum_floor(sigma * k, rho) for k in range(n + 1)]
    else:
        values = [-_sum_floor(sigma * (-k), -rho) for k in range(n + 1)]
    return BinaryWord([values[k] - values[k - 1] for k in range(1, n + 1)])


def random_unit(rng, d):
    """A random value in (0, 1): rational when d == 0, else in Q(sqrt(d))."""
    while True:
        c = rng.randint(1, 40)
        x = ExactReal(rng.randint(-60, 60), rng.randint(-9, 9) if d else 0, c, d)
        if ExactReal(0) < x < ExactReal(1):
            return x


def frac(x):
    """The fractional part x - floor(x)."""
    return x - ExactReal(x.floor())


class TestMechanical:
    def test_fibonacci_slope_prefix(self):
        sigma = ExactReal(3, -1, 2, 5)
        params = MechanicalParams(sigma=sigma, rho=sigma)
        assert str(mechanical_word(params, 8)) == "01001010"

    def test_half_slope(self):
        half = ExactReal.rational(1, 2)
        zero = ExactReal.rational(0)
        low = mechanical_word(MechanicalParams(sigma=half, rho=zero), 6)
        assert str(low) == "010101"
        up = mechanical_word(
            MechanicalParams(sigma=half, rho=zero, flavor="upper"), 6
        )
        assert str(up) == "101010"

    def test_zero_intercept_starts_with_zero(self):
        rng = random.Random(11)
        zero = ExactReal.rational(0)
        for _ in range(20):
            sigma = ExactReal(rng.randint(1, 9), 1, 10, rng.choice([2, 3, 5]))
            if not ExactReal.rational(0) < sigma < ExactReal.rational(1):
                continue
            w = mechanical_word(MechanicalParams(sigma=sigma, rho=zero), 5)
            assert w[0] == 0

    def test_params_validation(self):
        one = ExactReal.rational(1)
        zero = ExactReal.rational(0)
        half = ExactReal.rational(1, 2)
        for sigma in (zero, one, ExactReal.rational(3, 2)):
            with pytest.raises(ValueError):
                MechanicalParams(sigma=sigma, rho=zero)
        for rho in (one, ExactReal.rational(-1, 2)):
            with pytest.raises(ValueError):
                MechanicalParams(sigma=half, rho=rho)
        with pytest.raises(ValueError):
            MechanicalParams(sigma=half, rho=zero, flavor="middle")

    def test_fractional_part_identity(self):
        # lower mechanical words coincide with rotation words of angle sigma
        cases = [
            (ExactReal(3, -1, 2, 5), ExactReal.rational(1, 3), 50),
            (ExactReal.rational(2, 5), ExactReal.rational(1, 10), 40),
            (ExactReal(2, -1, 2, 2), ExactReal.rational(0), 50),
        ]
        for sigma, rho, n in cases:
            mech = mechanical_word(MechanicalParams(sigma=sigma, rho=rho), n)
            rot = rotation_word(sigma, rho, sigma, n)
            assert mech == rot

    def test_rational_slope_periodic(self):
        w = mechanical_word(
            MechanicalParams(
                sigma=ExactReal.rational(2, 5), rho=ExactReal.rational(1, 3)
            ),
            60,
        )
        raw = w.raw
        assert all(raw[i] == raw[i + 5] for i in range(55))

    def test_lower_upper_factor_sets_agree(self):
        # irrational slope: lattice hits only at k=0 with rho=0, and the
        # factor sets still coincide at every tested length
        for sigma in (ExactReal(3, -1, 2, 5), ExactReal(2, -1, 2, 2)):
            zero = ExactReal.rational(0)
            low = mechanical_word(MechanicalParams(sigma=sigma, rho=zero), 600)
            up = mechanical_word(
                MechanicalParams(sigma=sigma, rho=zero, flavor="upper"), 600
            )
            for n in range(1, 21):
                assert factor_set(low, n) == factor_set(up, n)

    def test_factor_sets_independent_of_intercept(self):
        sigma = ExactReal(3, -1, 2, 5)
        w1 = mechanical_word(
            MechanicalParams(sigma=sigma, rho=ExactReal.rational(1, 3)), 400
        )
        w2 = mechanical_word(
            MechanicalParams(sigma=sigma, rho=ExactReal.rational(5, 7)), 400
        )
        for n in range(1, 16):
            assert factor_set(w1, n) == factor_set(w2, n)

    @staticmethod
    def random_params(rng, case):
        zero = ExactReal.rational(0)
        fields = [2, 3, 5, 7, 13]
        d = rng.choice(fields)
        sigma = random_unit(rng, d)
        kind = case % 4
        if kind == 0:  # rho in sigma's field
            rho = random_unit(rng, d)
        elif kind == 1:  # rational rho
            rho = random_unit(rng, 0)
        elif kind == 2:
            rho = zero
        else:  # rho in another field
            rho = random_unit(rng, rng.choice([f for f in fields if f != d]))
        if rng.randrange(8) == 0:  # rational slope
            sigma = random_unit(rng, 0)
        return sigma, rho

    def test_oracle_matches_exact_real_floors(self):
        rng = random.Random(4242)
        for case in range(240):
            sigma, rho = self.random_params(rng, case)
            for flavor in ("lower", "upper"):
                params = MechanicalParams(sigma=sigma, rho=rho, flavor=flavor)
                n = rng.randrange(120)
                want = exact_real_mechanical_word(params, n)
                assert oracle_mechanical_word(params, n) == want

    def test_matches_per_symbol_floors(self):
        rng = random.Random(4242)
        for case in range(240):
            sigma, rho = self.random_params(rng, case)
            for flavor in ("lower", "upper"):
                params = MechanicalParams(sigma=sigma, rho=rho, flavor=flavor)
                n = rng.randrange(2500, 3500)
                assert mechanical_word(params, n) == oracle_mechanical_word(params, n)

    # partial quotients of every size, and rational slopes whose
    # expansion ends: 1/1000 = [0; 1000], 999/1000 = [0; 1, 999],
    # sqrt(2)/100 = [0; 70, 1, 2, 2, 5, ...], 355/1130 = [0; 3, 5, 2, 6]
    SLOPES = [
        "(-1+sqrt(2))", "(3-sqrt(5))/2", "sqrt(7)/7", "1/1000", "999/1000",
        "sqrt(2)/100", "355/1130", "1/2", "2/5", "13/21", "(9-sqrt(3))/10",
    ]

    def test_lattice_intercepts(self):
        # rho = {j sigma}: for irrational sigma, k sigma + rho is whole
        # only at k = -j when j <= 0, and never when j > 0; floors and
        # ceilings part only there
        n = 3000
        for spelled in self.SLOPES:
            sigma = parse_real(spelled)
            for j in range(-3, 4):
                rho = frac(sigma * j)
                low, up = (
                    mechanical_word(MechanicalParams(sigma, rho, flavor), n)
                    for flavor in ("lower", "upper")
                )
                assert low == oracle_mechanical_word(MechanicalParams(sigma, rho), n)
                assert up == oracle_mechanical_word(
                    MechanicalParams(sigma, rho, "upper"), n
                )
                if not sigma.is_rational:
                    apart = [i for i in range(n) if low[i] != up[i]]
                    assert apart == [i for i in (-j - 1, -j) if 0 <= i]

    def test_large_and_ending_partial_quotients(self):
        n = 3000
        intercepts = ["0", "3/7", "999/1000", "sqrt(3)/3", "(-1+sqrt(5))/2"]
        for spelled in self.SLOPES:
            sigma = parse_real(spelled)
            for text in intercepts:
                rho = parse_real(text)
                for flavor in ("lower", "upper"):
                    params = MechanicalParams(sigma, rho, flavor)
                    want = oracle_mechanical_word(params, n)
                    assert mechanical_word(params, n) == want, (spelled, text, flavor)

    def test_shortest_lengths(self):
        for spelled in self.SLOPES:
            sigma = parse_real(spelled)
            for rho in (ExactReal(0), frac(-sigma), parse_real("sqrt(3)/3")):
                for flavor in ("lower", "upper"):
                    params = MechanicalParams(sigma, rho, flavor)
                    for n in (0, 1, 2):
                        got = mechanical_word(params, n)
                        assert got == oracle_mechanical_word(params, n)

    def test_mixed_fields_long(self):
        sigma = parse_real("sqrt(7)/7")
        rho = parse_real("(-1+sqrt(2))")
        for flavor in ("lower", "upper"):
            params = MechanicalParams(sigma=sigma, rho=rho, flavor=flavor)
            w = mechanical_word(params, 100_000)
            assert w == oracle_mechanical_word(params, 100_000)
            assert is_balanced(w)

    def test_length_validation(self):
        half = ExactReal.rational(1, 2)
        params = MechanicalParams(sigma=half, rho=ExactReal.rational(0))
        assert len(mechanical_word(params, 0)) == 0
        with pytest.raises(ValueError):
            mechanical_word(params, -1)


def brute_rotation_word(alpha, rho, sigma, n):
    """Raw rotation word with an ExactReal floor and an exact comparison
    per symbol, valid across two quadratic fields."""
    out = bytearray()
    for q in range(n):
        x = alpha * q
        m = _sum_floor(x, rho)
        out.append(0 if _cmp_sum3(x, rho, sigma, m + 1) <= 0 else 1)
    return bytes(out)


class TestRotation:
    def test_matches_brute_oracle(self):
        # one field, rationals, two fields, and starts on the 1 - sigma boundary
        values = [
            parse_real(text)
            for text in ("0", "1/7", "1/2", "(-1+sqrt(2))", "(3-sqrt(5))/2", "sqrt(7)/7",
                         "sqrt(2)/3", "(2-sqrt(2))", "sqrt(3)/2", "(5-sqrt(5))/4")
        ]
        one = ExactReal.rational(1)
        checked = 0
        for sigma in values[1:]:
            rhos = values + [one - sigma]
            for alpha in values:
                for rho in rhos:
                    if len({x.d for x in (alpha, rho, sigma)} - {0}) > 2:
                        continue
                    want = brute_rotation_word(alpha, rho, sigma, 40)
                    assert rotation_word(alpha, rho, sigma, 40).raw == want, (
                        str(alpha), str(rho), str(sigma)
                    )
                    checked += 1
        assert checked > 700
        # seeded random triples over Q and Q(sqrt(d)), d = 2, 3, 5, 7, with
        # alpha = 0, rho = 0 and rho = 1 - sigma among them; denominators
        # are drawn apart, so alpha's rarely matches the part of rho + sigma
        # that shares its field
        rng = random.Random(2408)
        fields = [0, 2, 3, 5, 7]
        zero = ExactReal.rational(0)
        two_field_rational_alpha = 0
        for _ in range(500):
            da, dr, ds = (rng.choice(fields) for _ in range(3))
            if len({da, dr, ds} - {0}) > 2:
                continue
            alpha = zero if rng.random() < 0.05 else random_unit(rng, da)
            sigma = random_unit(rng, ds)
            rho = rng.choice([zero, one - sigma] + [random_unit(rng, dr)] * 8)
            n = rng.choice([1, 2, 3, 40, 300])
            want = brute_rotation_word(alpha, rho, sigma, n)
            assert rotation_word(alpha, rho, sigma, n).raw == want, (
                str(alpha), str(rho), str(sigma), n
            )
            if alpha.d == 0 and 0 != rho.d != sigma.d != 0:
                two_field_rational_alpha += 1
        assert two_field_rational_alpha > 20

    def test_boundary_hits_in_one_field(self):
        # {q alpha + rho} = 1 - sigma exactly: at q = 0, and at q = 4 for
        # alpha = 1/7, rho = 0, sigma = 3/7
        sigma = parse_real("(3-sqrt(5))/2")
        one = ExactReal.rational(1)
        w = rotation_word(sigma, one - sigma, sigma, 50)
        assert w[0] == 0
        assert w.raw == brute_rotation_word(sigma, one - sigma, sigma, 50)
        w = rotation_word(ExactReal.rational(1, 7), ExactReal.rational(0), ExactReal.rational(3, 7), 8)
        assert w[4] == 0
        assert w.to_string("01") == "00000110"

    def test_two_fields_long(self):
        # the value in the second field as alpha, then rho, then sigma,
        # and a rational alpha with rho and sigma in two fields
        root2, root7 = parse_real("(-1+sqrt(2))"), parse_real("sqrt(7)/7")
        one = ExactReal.rational(1)
        cases = [
            (root2, one - root7, root7),  # starts on the 1 - sigma boundary
            (parse_real("(2-sqrt(2))"), parse_real("sqrt(3)/2"), parse_real("(3-sqrt(3))/2")),
            (root2, root7, root2),
            (root7, parse_real("(5-sqrt(5))/4"), root7),
            (root2, ExactReal.rational(1, 7), root7),
            (parse_real("(3-sqrt(5))/2"), parse_real("(3-sqrt(5))/2"), parse_real("sqrt(3)/2")),
            (ExactReal.rational(2, 7), root2, root7),
        ]
        for alpha, rho, sigma in cases:
            want = brute_rotation_word(alpha, rho, sigma, 600)
            assert rotation_word(alpha, rho, sigma, 600).raw == want, (
                str(alpha), str(rho), str(sigma)
            )

    def test_three_radicals_refused(self):
        # at every length, the empty word included
        for n in (0, 1, 3):
            with pytest.raises(MixedRadicalError):
                rotation_word(parse_real("sqrt(2)/3"), parse_real("sqrt(3)/2"),
                              parse_real("sqrt(7)/7"), n)

    def test_zero_start(self):
        zero = ExactReal.rational(0)
        for alpha, sigma in [
            (ExactReal.rational(1, 3), ExactReal.rational(1, 2)),
            (ExactReal(2, -1, 2, 2), ExactReal(0, 1, 7, 7)),
        ]:
            assert rotation_word(alpha, zero, sigma, 1)[0] == 0

    def test_boundary_maps_to_zero(self):
        # {1*alpha + rho} = 1 - sigma exactly at q=1
        quarter = ExactReal.rational(1, 4)
        half = ExactReal.rational(1, 2)
        w = rotation_word(quarter, quarter, half, 2)
        assert w[1] == 0

    def test_symmetry_instance(self):
        alpha = ExactReal.sqrt(2) - 1
        rho = ExactReal.rational(1, 3)
        sigma = ExactReal.sqrt(7) / 7
        one = ExactReal.rational(1)
        mirrored = rotation_word(one - alpha, one - sigma - rho, sigma, 9)
        assert rotation_word(alpha, rho, sigma, 9) == mirrored

    def test_range_validation(self):
        half = ExactReal.rational(1, 2)
        one = ExactReal.rational(1)
        with pytest.raises(ValueError):
            rotation_word(one, half, half, 3)
        with pytest.raises(ValueError):
            rotation_word(half, one, half, 3)
        with pytest.raises(ValueError):
            rotation_word(half, half, one, 3)


class TestStandardWords:
    def test_fibonacci_list(self):
        words = standard_words(FIB, 4)
        assert [w.to_string("ab") for w in words] == [
            "b", "a", "ab", "aba", "abaab", "abaababa",
        ]

    def test_twos(self):
        words = standard_words(D2, 2)
        assert words[3].to_string("ab") == "aabaaba"

    def test_base_case(self):
        for d in (FIB, D2, DirectiveSequence.parse("0,(4)")):
            words = standard_words(d, 0)
            assert [str(w) for w in words] == ["1", "0"]

    def test_length_recursion(self):
        d = DirectiveSequence.parse("3,1,(2,5)")
        words = standard_words(d, 6)
        lengths = [len(w) for w in words]
        assert lengths[0] == 1 and lengths[1] == 1
        for i in range(2, len(lengths)):
            assert lengths[i] == d.digit(i - 2) * lengths[i - 1] + lengths[i - 2]

    def test_finite_sequence_exhausted(self):
        with pytest.raises(IndexError):
            standard_words(DirectiveSequence.parse("2,3"), 4)


class TestCharacteristic:
    def test_fibonacci_prefix(self):
        w = characteristic_prefix(FIB, 21)
        assert w.to_string("ab") == "abaababaabaababaababa"

    def test_twos_prefix(self):
        # the recursion's own output; see the central word list
        w = characteristic_prefix(D2, 22)
        assert w.to_string("ab") == "aabaabaaabaabaaabaabaa"

    def test_empty(self):
        assert characteristic_prefix(FIB, 0) == BinaryWord()

    def test_prefix_stability(self):
        for text in ("fib", "2,(2)", "0,(3)", "3,1,(2,5)", "1,1,1,1,8,(1)"):
            d = DirectiveSequence.parse(text)
            short = characteristic_prefix(d, 50)
            long = characteristic_prefix(d, 347)
            assert long.startswith(short)

    def test_leading_zero_digit_starts_with_b(self):
        w = characteristic_prefix(DirectiveSequence.parse("0,(1)"), 8)
        assert w.to_string("ab").startswith("b")

    def test_insufficient_digits(self):
        with pytest.raises(ValueError):
            characteristic_prefix(DirectiveSequence.parse("2"), 10)

    def test_coding_identity(self):
        # characteristic word = lower mechanical word with rho = sigma = slope
        for d in (FIB, D2):
            sigma = d.slope()
            mech = mechanical_word(MechanicalParams(sigma=sigma, rho=sigma), 1000)
            assert characteristic_prefix(d, 1000) == mech

    def test_left_special_prefixes(self):
        big = characteristic_prefix(FIB, 500).raw
        for k in range(1, 13):
            u = characteristic_prefix(FIB, k).raw
            assert (b"\x00" + u) in big
            assert (b"\x01" + u) in big


def oracle_lengths(d, n):
    """[q_{-1}, ..., q_n] by the recurrence, written out."""
    qs = [1, 1]
    for i in range(n):
        qs.append(d.digit(i) * qs[-1] + qs[-2])
    return qs[: n + 2]


def oracle_standard_words(d, n):
    """[s_{-1}, ..., s_n] by s_{i+1} = s_i^{d_i} s_{i-1}, written out."""
    words = [b"\x01", b"\x00"]
    for i in range(n):
        words.append(words[-1] * d.digit(i) + words[-2])
    return [BinaryWord(w) for w in words[: n + 2]]


def oracle_characteristic(d, length):
    """The first `length` symbols of the limit of the s_n."""
    i = 1
    while oracle_lengths(d, i)[-1] < length:
        i += 1
    return oracle_standard_words(d, i)[-1][:length]


class TestSingleSource:
    """The words, lengths and prefixes kept on a directive agree with
    the recurrences written out, and do not depend on the order of the
    requests that grew them."""

    INFINITE = ("fib", "0,(4)", "0,2,(1,3)", "62,(62)")

    def test_against_recurrences(self):
        for text in self.INFINITE:
            top = 3 if text == "62,(62)" else 12
            for n in range(-1, top + 1):
                d = DirectiveSequence.parse(text)
                assert standard_words(d, n) == oracle_standard_words(d, n)
                assert standard_lengths(d, n) == oracle_lengths(d, n)
            for length in (0, 1, 2, 7, 64, 1000, 5000):
                d = DirectiveSequence.parse(text)
                assert characteristic_prefix(d, length) == oracle_characteristic(
                    d, length
                )

    def test_finite_sequence(self):
        d = DirectiveSequence.parse("2,3")
        for n in (-1, 0, 1, 2):
            assert standard_words(d, n) == oracle_standard_words(d, n)
            assert standard_lengths(d, n) == oracle_lengths(d, n)
        assert characteristic_prefix(d, 10) == oracle_standard_words(d, 2)[-1]
        for call in (standard_words, standard_lengths, oracle_standard_words,
                     oracle_lengths):
            with pytest.raises(IndexError):
                call(DirectiveSequence.parse("2,3"), 3)
        with pytest.raises(ValueError):
            characteristic_prefix(d, 11)
        assert characteristic_prefix(d, 10).to_string("ab") == "aabaabaaba"

    def test_request_order(self):
        for text in self.INFINITE:
            warm = DirectiveSequence.parse(text)
            for length in (10, 1000, 5, 1000):
                fresh = DirectiveSequence.parse(text)
                assert characteristic_prefix(warm, length) == characteristic_prefix(
                    fresh, length
                )
            if text != "62,(62)":
                warm = DirectiveSequence.parse(text)
                characteristic_prefix(warm, 3)
                assert standard_words(warm, 6) == standard_words(
                    DirectiveSequence.parse(text), 6
                )

    def test_cache_is_not_a_field(self):
        warm = DirectiveSequence.parse("fib")
        characteristic_prefix(warm, 500)
        fresh = DirectiveSequence.parse("fib")
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)


class TestFactors:
    def test_worked_example_u(self):
        u = bw(EXAMPLE_U)
        assert factor_set(u, 2) == {bw("aa"), bw("ab"), bw("ba")}
        assert len(factor_set(u, 1)) == 2
        assert len(factor_set(u, 3)) == 3

    def test_worked_example_w(self):
        w = bw(EXAMPLE_W)
        for n, expected in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            assert len(factor_set(w, n)) == expected

    def test_bounds(self):
        w = bw("0101")
        assert factor_set(w, 0) == {BinaryWord()}
        with pytest.raises(ValueError):
            factor_set(w, 5)
        with pytest.raises(ValueError):
            factor_set(w, -1)

    def test_sturmian_complexity(self):
        for text in ("fib", "2,(2)", "3,1,(2,5)", "0,(1)", "0,2,(1,3)", "200,(1)",
                     "62,(62)"):
            d = DirectiveSequence.parse(text)
            for n in (1, 2, 3, 5, 10, 30, 63, 150):
                assert characteristic_factor_count(d, n) == n + 1

    def test_fibonacci_complexity_window(self):
        w = characteristic_prefix(FIB, 200)
        assert len(factor_set(w, 10)) == 11

    def test_long_first_run(self):
        # 200,(1) starts a^200 b: a prefix of a's alone shows one factor
        assert characteristic_factor_count(DirectiveSequence.parse("200,(1)"), 3) == 4

    def test_stabilization_cap(self):
        # R(5) = 5 + q_4 + q_3 - 1 = 17 symbols on the Fibonacci word
        assert characteristic_factor_count(FIB, 5, cap=17) == 6
        with pytest.raises(CapExceededError):
            characteristic_factor_count(FIB, 5, cap=16)

    def test_recurrence_cap_keeps_its_former_name(self):
        assert words_mod.DEFAULT_STABILIZE_CAP is words_mod.DEFAULT_RECURRENCE_CAP
        assert {"DEFAULT_RECURRENCE_CAP", "DEFAULT_STABILIZE_CAP"} <= set(
            words_mod.__all__
        )


def brute_balance_witness(w):
    """Every window length from 2 up, the first poorest and the first
    richest window of each; the first length whose counts of symbol 1
    spread by 2 or more gives the witness."""
    raw = w.raw
    n = len(raw)
    prefix = [0] * (n + 1)
    acc = 0
    for i, v in enumerate(raw):
        acc += v
        prefix[i + 1] = acc
    for ell in range(2, n):
        lo, lo_at = ell + 1, -1
        hi, hi_at = -1, -1
        for i in range(n - ell + 1):
            v = prefix[i + ell] - prefix[i]
            if v < lo:
                lo, lo_at = v, i
            if v > hi:
                hi, hi_at = v, i
        if hi - lo > 1:
            return (1, w[lo_at : lo_at + ell], w[hi_at : hi_at + ell])
    return None


class TestBalance:
    def test_unbalanced_example(self):
        w = bw("0011")
        assert not is_balanced(w)
        assert balance_witness(w) == (1, bw("00"), bw("11"))

    def test_balanced_examples(self):
        assert is_balanced(bw("1001"))
        assert balance_witness(bw("1001")) is None
        assert is_balanced(bw(EXAMPLE_W))
        assert is_balanced(BinaryWord())
        assert is_balanced(bw("0"))

    def test_witness_reports_offending_pair(self):
        rng = random.Random(321)
        for _ in range(200):
            n = rng.randint(2, 12)
            w = BinaryWord([rng.randint(0, 1) for _ in range(n)])
            witness = balance_witness(w)
            if witness is None:
                assert is_balanced(w)
                continue
            letter, lo, hi = witness
            assert letter == 1
            assert len(lo) == len(hi)
            assert hi.count(1) - lo.count(1) >= 2
            assert w.find(lo) >= 0 and w.find(hi) >= 0

    def test_characteristic_prefixes_balanced(self):
        for d in (FIB, D2):
            assert is_balanced(characteristic_prefix(d, 150))

    def test_edge_cases_match_window_scan(self):
        for text in ("", "0", "1", "01", "0011", "0110", "1001", "00", "0101"):
            w = bw(text)
            assert balance_witness(w) == brute_balance_witness(w)
        assert balance_witness(bw("0011")) == (1, bw("00"), bw("11"))
        assert balance_witness(bw("0110")) is None

    def test_random_words_match_window_scan(self):
        rng = random.Random(31337)
        for _ in range(1000):
            n = rng.randint(0, 40)
            w = BinaryWord([rng.randint(0, 1) for _ in range(n)])
            assert balance_witness(w) == brute_balance_witness(w)

    def test_sturmian_factors_match_window_scan(self):
        # factors of characteristic words are balanced; one flipped
        # symbol usually is not
        rng = random.Random(1618)
        checked = 0
        for text in ("fib", "2,(2)", "0,(4)", "3,(1,1,5)", "200,(1)"):
            raw = characteristic_prefix(DirectiveSequence.parse(text), 600).raw
            for _ in range(120):
                n = rng.randint(1, 60)
                start = rng.randrange(len(raw) - n)
                factor = bytearray(raw[start : start + n])
                w = BinaryWord(bytes(factor))
                assert balance_witness(w) is None
                assert brute_balance_witness(w) is None
                factor[rng.randrange(n)] ^= 1
                w = BinaryWord(bytes(factor))
                assert balance_witness(w) == brute_balance_witness(w)
                checked += 2
        assert checked == 1200

    def test_long_prefix_is_balanced(self):
        assert is_balanced(characteristic_prefix(FIB, 20_000))
        raw = bytearray(characteristic_prefix(D2, 20_000).raw)
        raw[12_345] ^= 1
        letter, lo, hi = balance_witness(BinaryWord(bytes(raw)))
        assert letter == 1 and len(lo) == len(hi)
        assert hi.count(1) - lo.count(1) == 2


def tree_balanced_counts(n):
    """The balanced-word counts of lengths 0..n from the former walk over
    every balanced word that starts with 0, about n**4 / (8 pi**2) of
    them, with one undoable eertree and the same one-lookup refusal
    (Prop. 2.1.3) as words._balanced_counts; the counts are doubled by
    complement symmetry."""
    if n < 2:
        return [1, 2][: n + 1]
    counts = [1, 1] + [0] * (n - 1)
    # Node 2 is the palindrome 0, the word's first symbol; its empty
    # suffix is preceded by 0.
    length = [-1, 0, 1] + [0] * (n - 1)
    to0 = [2] + [0] * (n + 1)
    to1 = [0] * (n + 2)
    by0 = [0, 0, 1] + [0] * (n - 1)
    by1 = [0] * (n + 2)
    up = [0] * (n + 2)  # the node p of v = x p x
    word = bytearray(n)
    pending = []  # (depth, x, p): the second extension of a prefix
    leaf = n - 1
    depth = 1
    while True:
        # p0, p1: the node p for appending 0, 1.  It is the longest
        # palindromic suffix when the symbol before it matches, else
        # that node's direct link.
        node = depth + 1
        i = depth - length[node] - 1
        if i < 0:
            p0, p1 = by0[node], by1[node]
        elif word[i]:
            p0, p1 = by0[node], node
        else:
            p0, p1 = node, by1[node]
        grow0 = not (p0 and to1[p0])
        grow1 = not (p1 and to0[p1])
        if depth == leaf:
            counts[n] += grow0 + grow1
            if not pending:
                break
            d, x, p = pending.pop()
            # Back to depth d: drop the nodes d + 2 .. depth + 1.
            while depth > d:
                (to1 if word[depth - 1] else to0)[up[depth + 1]] = 0
                depth -= 1
        elif grow0:
            if grow1:
                pending.append((depth, 1, p1))
            x, p = 0, p0
        else:
            x, p = 1, p1
        word[depth] = x
        depth += 1
        counts[depth] += 1
        v = depth + 1
        length[v] = length[p] + 2
        if x:
            s = to1[by1[p]] if p else 1
            to1[p] = v
        else:
            s = to0[by0[p]] if p else 1
            to0[p] = v
        # s is the longest proper palindromic suffix of v; the symbol
        # before it in v is word[depth - 1 - length[s]].
        if word[depth - 1 - length[s]]:
            by0[v], by1[v] = by0[s], s
        else:
            by0[v], by1[v] = s, by1[s]
        up[v] = p
    return [1] + [2 * c for c in counts[1:]]


def left_special_counts(top):
    """By brute force over every word of length <= top: the balanced
    words of each length, and those w of each length < top with 0w and
    1w both balanced."""
    def word(x, k):
        return BinaryWord([(x >> i) & 1 for i in range(k)])

    balanced = [
        {x for x in range(1 << k) if is_balanced(word(x, k))} for k in range(top + 1)
    ]
    # bit i of x is symbol i, so 0w and 1w are 2x and 2x + 1
    special = [
        {x for x in balanced[k] if {2 * x, 2 * x + 1} <= balanced[k + 1]}
        for k in range(top)
    ]
    return balanced, special


class TestBalancedWalk:
    def test_matches_whole_tree_walk(self):
        whole = tree_balanced_counts(60)
        for n in range(61):
            assert words_mod._balanced_counts(n) == whole[: n + 1]
        assert tree_balanced_counts(5) == whole[:6]

    def test_matches_formula_to_200(self):
        assert words_mod._balanced_counts(200) == sturmian_totals(200)

    def test_left_special_identity(self):
        # B(k + 1) - B(k) = LS(k), and the left special words are closed
        # under prefixes and under complement, over every word to length 14
        balanced, special = left_special_counts(14)
        walk = words_mod._balanced_counts(14)
        for k in range(14):
            assert len(balanced[k + 1]) - len(balanced[k]) == len(special[k])
            assert walk[k + 1] == len(balanced[k + 1])
            mask = (1 << k) - 1
            for x in special[k]:
                assert x ^ mask in special[k]
                if k:
                    assert x & (mask >> 1) in special[k - 1]


class TestNPartition:
    def test_fibonacci_example(self):
        assert n_partition(FIB, 2, 8) == [2, 1, 2]

    def test_level_zero_is_the_word(self):
        tags = n_partition(FIB, 0, 10)
        raw = characteristic_prefix(FIB, 10).raw
        assert tags == [0 if s == 0 else -1 for s in raw]

    def test_reconstruction(self):
        for d, m, L in [(FIB, 3, 40), (D2, 2, 50), (FIB, 1, 13)]:
            tags = n_partition(d, m, L)
            words = standard_words(d, m)
            blocks = {m: words[m + 1].raw, m - 1: words[m].raw}
            joined = b"".join(blocks[t] for t in tags)
            assert 0 < len(joined) <= L
            assert L - len(joined) < max(len(b) for b in blocks.values())
            assert characteristic_prefix(d, len(joined)).raw == joined

    def test_occurrences_start_on_block_boundaries(self):
        # the prefix before any occurrence of s_m is made of complete blocks
        prefix = characteristic_prefix(FIB, 200)
        for m in range(5):
            s_m = standard_words(FIB, m)[m + 1]
            tags = n_partition(FIB, m, 200)
            words = standard_words(FIB, m)
            sizes = {m: len(words[m + 1]), m - 1: len(words[m])}
            boundaries = {0}
            pos = 0
            for t in tags:
                pos += sizes[t]
                boundaries.add(pos)
            for start in prefix.occurrences(s_m):
                if start > 100:
                    break
                assert start in boundaries

    def test_errors(self):
        with pytest.raises(IndexError):
            n_partition(DirectiveSequence.parse("2,3"), 5, 10)


class TestPowers:
    def test_basic(self):
        assert has_kth_power(bw("0101"), 2)
        assert not has_kth_power(bw("01"), 2)
        assert has_kth_power(bw("000"), 3)
        assert has_kth_power(bw("010101"), 3)
        assert not has_kth_power(BinaryWord(), 1)
        assert has_kth_power(bw("0"), 1)

    def test_fibonacci_prefix_fourth_power_free(self):
        w = characteristic_prefix(FIB, 2000)
        assert not has_kth_power(w, 4)
        assert has_kth_power(w, 3)

    def test_brute_force_agreement(self):
        rng = random.Random(5150)
        for _ in range(150):
            n = rng.randint(1, 14)
            k = rng.randint(2, 4)
            w = BinaryWord([rng.randint(0, 1) for _ in range(n)])
            raw = w.raw
            brute = any(
                raw[i : i + p] * k == raw[i : i + k * p]
                for p in range(1, n // k + 1)
                for i in range(n - k * p + 1)
            )
            assert has_kth_power(w, k) == brute
