"""Numeration systems driven by a directive sequence."""

import random

import pytest

from sturmian.errors import CapExceededError
from sturmian.ostrowski import (
    _ValidDigitDag,
    OstrowskiRep,
    decode,
    digits_to_word,
    encode,
    enumerate_legal_reps,
    enumerate_valid_reps,
    is_canonical,
    is_legal,
    is_valid,
    rep_sort_key,
    standard_lengths,
)
from sturmian.palindromes import central_word
from sturmian.words import (
    BinaryWord,
    DirectiveSequence,
    characteristic_prefix,
    standard_words,
)

FIB = DirectiveSequence.parse("fib")
D2 = DirectiveSequence.parse("2,(2)")
D8 = DirectiveSequence.parse("1,1,1,1,8,(1)")
D14 = DirectiveSequence.parse("14,14,14,(1)")


def literal_valid_reps(N, d):
    """Every digit vector of N over the q_i <= N, kept when is_valid."""
    qs = []
    while True:
        try:
            q = standard_lengths(d, len(qs))[-1]
        except IndexError:
            break
        if q > N:
            break
        qs.append(q)
    found = set()

    def go(i, rem, acc):
        if i < 0:
            if rem == 0:
                r = OstrowskiRep(d, tuple(reversed(acc)))
                if is_valid(r):
                    found.add(r)
            return
        for k in range(rem // qs[i] + 1):
            go(i - 1, rem - k * qs[i], acc + [k])

    go(len(qs) - 1, N, [])
    return found


def rep(text, d=FIB):
    return OstrowskiRep.parse(text, d)


class TestLengths:
    def test_fibonacci(self):
        assert standard_lengths(FIB, 5) == [1, 1, 2, 3, 5, 8, 13]

    def test_d2(self):
        assert standard_lengths(D2, 3) == [1, 1, 3, 7, 17]


class TestRep:
    def test_render_plain(self):
        assert rep("100001").render() == "100001"
        assert OstrowskiRep(FIB, ()).render() == "0"

    def test_render_wide_digits(self):
        wide = OstrowskiRep(D14, (3, 0, 12))
        assert wide.render() == "12.0.3"
        assert OstrowskiRep.parse("12.0.3", D14) == wide

    def test_trailing_zeros_stripped(self):
        assert OstrowskiRep(FIB, (1, 0, 0)) == OstrowskiRep(FIB, (1,))
        assert OstrowskiRep(FIB, (0, 0)).digits == ()

    def test_digit_beyond_top(self):
        r = rep("101")
        assert r.digit(0) == 1 and r.digit(1) == 0 and r.digit(2) == 1
        assert r.digit(7) == 0

    def test_negative_digit_rejected(self):
        with pytest.raises(ValueError):
            OstrowskiRep(FIB, (1, -1))

    def test_sort_key_orders_by_length_then_msb(self):
        reps = [rep(t) for t in ("11001", "1300", "10111", "100001")]
        reps.sort(key=rep_sort_key)
        assert [r.render() for r in reps] == ["1300", "10111", "11001", "100001"]


class TestEncodeDecode:
    def test_worked_example(self):
        assert encode(14, FIB).render() == "100001"

    def test_zero(self):
        assert encode(0, FIB).render() == "0"
        assert decode(encode(0, FIB)) == 0

    def test_decode_noncanonical(self):
        assert decode(rep("1300")) == 14

    def test_round_trip_and_canonical(self):
        for N in range(10_001):
            r = encode(N, FIB)
            assert decode(r) == N
            assert is_canonical(r)

    def test_round_trip_d2(self):
        for N in range(2_000):
            r = encode(N, D2)
            assert decode(r) == N
            assert is_canonical(r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode(-1, FIB)

    def test_finite_directive_range(self):
        short = DirectiveSequence.parse("2,2")
        # digit positions pair with directive entries, so two digits
        # cover exactly [0, q_2) = [0, 7)
        seen = set()
        for N in range(7):
            r = encode(N, short)
            assert decode(r) == N
            seen.add(r)
        assert len(seen) == 7
        with pytest.raises(ValueError):
            encode(7, short)


class TestPredicates:
    def test_legal_examples(self):
        assert is_legal(rep("11001"))
        assert not is_legal(rep("1300"))

    def test_valid_examples(self):
        assert is_valid(rep("1300"))
        assert is_valid(rep("11001"))
        assert not is_valid(rep("20"))

    def test_legal_implies_valid(self):
        for d in (FIB, D2):
            for N in range(301):
                for r in enumerate_legal_reps(N, d):
                    assert is_valid(r)

    def test_canonical_unique_among_legal(self):
        for N in range(301):
            canon = [r for r in enumerate_legal_reps(N, FIB) if is_canonical(r)]
            assert canon == [encode(N, FIB)]


class TestWordOfRep:
    def test_worked_example(self):
        assert digits_to_word(rep("1300")) == BinaryWord.from_string("abaababaabaaba")

    def test_prefix_identity(self):
        for N in (1, 7, 14, 55, 200):
            r = encode(N, FIB)
            w = digits_to_word(r)
            assert len(w) == N
            assert w == characteristic_prefix(FIB, N)

    def test_all_max_digits_give_central_words(self):
        # the rep d_n d_{n-1} ... d_0 sums to q_{n+1} + q_n - 2, the
        # length of the palindromic prefix at the next level
        for d in (FIB, D2):
            for n in range(9):
                digits = tuple(d.digit(i) for i in range(n + 1))
                r = OstrowskiRep(d, digits)
                assert is_valid(r)
                assert digits_to_word(r) == central_word(d, n + 1)


class TestEnumeration:
    def test_valid_reps_of_14(self):
        reps = sorted(enumerate_valid_reps(14, FIB), key=rep_sort_key)
        rendered = [r.render() for r in reps]
        assert rendered == ["1211", "1300", "10111", "10200", "11001", "100001"]

    def test_one_and_zero(self):
        assert {r.render() for r in enumerate_valid_reps(1, FIB)} == {"1"}
        assert {r.render() for r in enumerate_valid_reps(0, FIB)} == {"0"}

    def test_chain_reps_of_101(self):
        rendered = {r.render() for r in enumerate_valid_reps(101, D8)}
        chain = {"140000", "1030000", "1021100", "1021011", "1020121", "1011221"}
        assert chain <= rendered

    def test_matches_literal_scan(self):
        # independent oracle: every digit vector of N, filtered by the
        # plain validity predicate
        for text, nmax in [
            ("fib", 60),
            ("2,(2)", 40),
            ("1,1,1,1,8,(1)", 40),
            ("0,2,(1,3)", 40),
            ("14,14,14,(1)", 40),
            ("3,1,2", 14),
        ]:
            d = DirectiveSequence.parse(text)
            for N in range(nmax + 1):
                assert literal_valid_reps(N, d) == enumerate_valid_reps(N, d)

    def test_finite_directive_too_short(self):
        # 3,1,2 stops at s_3, of length 14
        d = DirectiveSequence.parse("3,1,2")
        with pytest.raises(ValueError, match="too short"):
            enumerate_valid_reps(15, d)

    def test_legal_subset_of_valid(self):
        rng = random.Random(20260819)
        for _ in range(25):
            N = rng.randrange(400)
            legal = enumerate_legal_reps(N, FIB)
            valid = enumerate_valid_reps(N, FIB)
            assert set(legal) <= set(valid)
            assert all(decode(r) == N for r in valid)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_valid_reps(10**6, FIB, cap=50)
        with pytest.raises(CapExceededError):
            enumerate_legal_reps(10**6, FIB, cap=50)


def startswith_runs(d, n, qs):
    """The run table by one startswith per position per level: runs[i][p]
    is the most consecutive copies of s_i matching the prefix at p."""
    prefix = characteristic_prefix(d, n).raw
    runs = []
    for q, w in zip(qs, standard_words(d, len(qs) - 1)[1:]):
        run = [0] * (n + 1)
        for p in range(n - q, -1, -1):
            if prefix.startswith(w.raw, p):
                run[p] = run[p + q] + 1
        runs.append(run)
    return runs


class TestValidDigitDag:
    @pytest.mark.parametrize(
        "text, sizes",
        [
            ("fib", (0, 1, 2, 3, 55, 300)),
            ("2,(2)", (0, 1, 2, 29, 300)),
            ("0,2,(1,3)", (0, 1, 2, 40, 300)),
            ("200,(1)", (0, 1, 2, 200, 201, 202, 603)),
            ("1,2,3", (0, 1, 2, 5, 16, 17)),
        ],
    )
    def test_runs_match_startswith(self, text, sizes):
        d = DirectiveSequence.parse(text)
        for n in sizes:
            dag = _ValidDigitDag(d, n)
            assert dag.runs == startswith_runs(d, n, dag.qs)
