"""Counting formulas against their brute-force oracles."""

import math
import random
import sys
from collections import Counter

import pytest

from sturmian.counting import (
    DEFAULT_BALANCED_CAP,
    DEFAULT_SWEEP_CAP,
    FaceSample,
    _floor64,
    _sorted_exact,
    arrangement_face_count,
    arrangement_lines,
    balanced_count,
    balanced_counts,
    euler_phi,
    euler_phi_sieve,
    rotation_face_count,
    rotation_word_count,
    rotation_word_samples,
    sturmian_total,
    sturmian_totals,
)
from sturmian.errors import CapExceededError
from sturmian.exactnum import ExactReal, compare, parse_real
from sturmian.words import BinaryWord, is_balanced, rotation_word

SIGMA7 = ExactReal.sqrt(7) / 7  # inside (3/8, 2/5)
IRRATIONAL_SIGMAS = [
    parse_real(text) for text in ("(-1+sqrt(2))", "(3-sqrt(5))/2", "sqrt(7)/7", "sqrt(8)/3")
]
RATIONAL_SIGMAS = [ExactReal.rational(1, 3), ExactReal.rational(1, 2), ExactReal.rational(2, 7)]


def frac(x):
    """The fractional part x - floor(x)."""
    return x - ExactReal(x.floor())


def random_sigmas(seed, count):
    """Seeded sigmas in (0, 1): a third rational with denominators 21 to
    60, the rest (a + b sqrt(d)) / c with d up to the prime 1000003."""
    rng = random.Random(seed)
    sigmas = [ExactReal(-1000, 1, 1, 1000003)]  # about 0.0015
    while len(sigmas) < count:
        if len(sigmas) % 3 == 0:
            q = rng.randint(21, 60)
            sigmas.append(ExactReal.rational(rng.randint(1, q - 1), q))
            continue
        b, c = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 40)
        d = rng.randint(2, 1000003)
        if any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1)):
            continue
        root = math.isqrt(b * b * d)
        # a + b sqrt(d) = k + {b sqrt(d)} lies in (0, c) for 0 <= k < c
        a = rng.randint(0, c - 1) - (root if b > 0 else -root - 1)
        sigmas.append(ExactReal(a, b, c, d))
    return sigmas


def brute_arrangement_face_count(sigma, order):
    """Faces of the order-n arrangement by the Euler relation, with every
    vertex an (alpha, rho) pair of ExactReal values."""
    lines = arrangement_lines(order, sigma)
    zero, one = ExactReal(0), ExactReal(1)

    def in_unit(t):
        return t.sign() >= 0 and compare(t, one) <= 0

    points_on = {("l", i): set() for i in range(len(lines))}
    points_on[("v", 0)] = set()
    points_on[("v", 1)] = set()
    for i, li in enumerate(lines):
        for j in range(i + 1, len(lines)):
            lj = lines[j]
            if li.coeff == lj.coeff:
                continue
            a = (li.level - lj.level) / (li.coeff - lj.coeff)
            if not in_unit(a):
                continue
            r = li.level - a * li.coeff
            if not in_unit(r):
                continue
            points_on[("l", i)].add((a, r))
            points_on[("l", j)].add((a, r))
    for vi, v in enumerate((zero, one)):
        for i, li in enumerate(lines):
            r = li.level - v * li.coeff
            if in_unit(r):
                points_on[("v", vi)].add((v, r))
                points_on[("l", i)].add((v, r))
    vertices = set()
    edges = 0
    for pts in points_on.values():
        if pts:
            vertices |= pts
            edges += len(pts) - 1
    return edges - len(vertices) + 1


def brute_rotation_word_samples(sigma, length):
    """The sweep with every breakpoint, height and sample an ExactReal:
    all pairwise breakpoints and all lines tested at each strip's middle."""
    lines = arrangement_lines(length - 1, sigma)
    breaks = {ExactReal(0), ExactReal(1)}
    for i, li in enumerate(lines):
        for lj in lines[i + 1 :]:
            if li.coeff != lj.coeff:
                a = (li.level - lj.level) / (li.coeff - lj.coeff)
                if a.sign() > 0 and compare(a, 1) < 0:
                    breaks.add(a)
    cuts = sorted(breaks)
    two = ExactReal(2)
    for left, right in zip(cuts, cuts[1:]):
        a_mid = (left + right) / two
        heights = []
        for ln in lines:
            if ln.kind != "boundary":
                h = ln.level - a_mid * ln.coeff
                if h.sign() > 0 and compare(h, 1) < 0:
                    heights.append((h, ln))
        heights.sort(key=lambda item: item[0])
        levels = [ExactReal(0)] + [h for h, _ in heights] + [ExactReal(1)]
        rho = (levels[0] + levels[1]) / two
        word = bytearray(rotation_word(a_mid, rho, sigma, length).raw)
        yield FaceSample(a_mid, rho, BinaryWord._from_raw(bytes(word)))
        for j, (_, ln) in enumerate(heights):
            word[ln.coeff] = 0 if ln.kind == "integer" else 1
            rho = (levels[j + 1] + levels[j + 2]) / two
            yield FaceSample(a_mid, rho, BinaryWord._from_raw(bytes(word)))


class TestTotient:
    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(7) == 6
        assert euler_phi(8) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_sieve_matches_direct(self):
        sieve = euler_phi_sieve(200)
        for q in range(1, 201):
            assert sieve[q] == euler_phi(q)


class TestSturmianTotal:
    def test_small_values(self):
        assert sturmian_total(0) == 1
        assert sturmian_total(1) == 2
        assert sturmian_total(3) == 8
        assert sturmian_total(4) == 14

    def test_formula_equals_oracle(self):
        counts = balanced_counts(DEFAULT_BALANCED_CAP)
        assert len(counts) == DEFAULT_BALANCED_CAP + 1
        for n, count in enumerate(counts):
            assert sturmian_total(n) == count

    def test_totals_in_one_pass(self):
        # one sieve and a running sum give every row of count sturmian --upto
        assert sturmian_totals(300) == [sturmian_total(n) for n in range(301)]
        assert sturmian_totals(0) == [1]
        with pytest.raises(ValueError):
            sturmian_totals(-1)

    def test_asymptotics(self):
        n = 2000
        value = sturmian_total(n)
        assert abs(value * math.pi**2 / n**3 - 1) <= 0.05


class TestBalancedOracle:
    def test_small_counts(self):
        assert balanced_count(2) == 4
        assert balanced_count(3) == 8
        assert balanced_count(4) == 14

    def test_matches_literal_scan(self):
        # the pruned search must agree with checking every word
        for n in range(13):
            literal = sum(
                is_balanced(BinaryWord([(x >> i) & 1 for i in range(n)]))
                for x in range(1 << n)
            )
            assert balanced_count(n) == literal

    def test_matches_definition(self):
        # every word up to length 12, by the definition alone: for each
        # window length the counts of 1 over all windows spread by <= 1
        def balanced(bits):
            ones = [0]
            for b in bits:
                ones.append(ones[-1] + b)
            for ell in range(1, len(bits)):
                counts = [ones[i + ell] - ones[i] for i in range(len(bits) - ell + 1)]
                if max(counts) - min(counts) > 1:
                    return False
            return True

        literal = [
            sum(balanced([(x >> i) & 1 for i in range(n)]) for x in range(1 << n))
            for n in range(13)
        ]
        assert balanced_counts(12) == literal

    def test_counts_agree_across_lengths(self):
        top = balanced_counts(30)
        for n in range(31):
            assert balanced_counts(n) == top[: n + 1]
            assert balanced_count(n) == top[n]

    def test_no_recursion(self):
        # the walk keeps its own stack: a few dozen free frames suffice
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            count = balanced_count(60)
        finally:
            sys.setrecursionlimit(limit)
        assert count == sturmian_total(60)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            balanced_count(DEFAULT_BALANCED_CAP + 1)
        with pytest.raises(CapExceededError):
            balanced_counts(DEFAULT_BALANCED_CAP + 1)
        with pytest.raises(CapExceededError):
            balanced_count(10, cap=9)
        with pytest.raises(ValueError):
            balanced_counts(-1)


class TestFaceFormula:
    def test_values(self):
        assert rotation_face_count(2) == 16
        assert rotation_face_count(8) == 392
        assert rotation_face_count(9) == 538

    def test_matches_euler_oracle(self):
        for order in (1, 2, 3, 4, 5, 8, 9):
            assert arrangement_face_count(SIGMA7, order) == rotation_face_count(order)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            rotation_face_count(0)
        with pytest.raises(ValueError):
            arrangement_face_count(SIGMA7, -1)

    def test_matches_brute_oracle(self):
        # rational sigmas included: coincident points must still merge
        for sigma in IRRATIONAL_SIGMAS + RATIONAL_SIGMAS:
            for order in range(13 if sigma.is_rational else 9):
                assert arrangement_face_count(sigma, order) == brute_arrangement_face_count(
                    sigma, order
                ), (str(sigma), order)
        for sigma in random_sigmas(13, 9):
            assert 0 < sigma < 1
            for order in range(7):
                assert arrangement_face_count(sigma, order) == brute_arrangement_face_count(
                    sigma, order
                ), (str(sigma), order)

    def test_formula_to_order_24(self):
        for sigma in IRRATIONAL_SIGMAS:
            for order in range(1, 25):
                assert arrangement_face_count(sigma, order) == rotation_face_count(order)
        # many lines meet at one point: at order 14, 79 of the 1,464
        # interior vertices carry 3 to 8 lines
        for order in (28, 40):
            assert arrangement_face_count(IRRATIONAL_SIGMAS[0], order) == rotation_face_count(order)


class TestArrangementLines:
    def test_family_sizes(self):
        n = 4
        lines = arrangement_lines(n, SIGMA7)
        boundary = [ln for ln in lines if ln.kind == "boundary"]
        integer = [ln for ln in lines if ln.kind == "integer"]
        shifted = [ln for ln in lines if ln.kind == "shifted"]
        assert len(boundary) == 2
        assert len(integer) == n * (n + 1) // 2
        assert len(shifted) == (n + 1) * (n + 2) // 2
        assert all(0 <= ln.coeff <= n for ln in lines)


class TestRotationSweep:
    def test_length_one(self):
        assert rotation_word_count(SIGMA7, 1) == 2

    def test_formula_values(self):
        assert rotation_word_count(SIGMA7, 9) == 189
        assert rotation_word_count(SIGMA7, 10) == 261

    def test_known_counts(self):
        counts = [rotation_word_count(SIGMA7, n) for n in range(1, 11)]
        assert counts == [2, 4, 8, 16, 30, 52, 83, 128, 189, 261]
        assert rotation_word_count(IRRATIONAL_SIGMAS[0], 12) == 461

    def test_samples_match_brute_sweep(self):
        # same strips, same faces in the same order, same exact values
        for sigma in IRRATIONAL_SIGMAS:
            for n in range(1, 7):
                got = list(rotation_word_samples(sigma, n))
                assert got == list(brute_rotation_word_samples(sigma, n)), (str(sigma), n)

    def test_samples_strictly_off_lines(self):
        n = 4
        lines = arrangement_lines(n - 1, SIGMA7)
        samples = list(rotation_word_samples(SIGMA7, n))
        assert samples
        for sample in samples:
            for ln in lines:
                assert ln.level - sample.alpha * ln.coeff != sample.rho

    def test_same_face_same_word(self):
        # nudging rho by half the distance to the nearest line stays in
        # the same face, so the word must not change
        n = 4
        lines = arrangement_lines(n - 1, SIGMA7)
        for sample in rotation_word_samples(SIGMA7, n):
            gaps = []
            for ln in lines:
                diff = ln.level - sample.alpha * ln.coeff - sample.rho
                gaps.append(-diff if diff.sign() < 0 else diff)
            delta = min(gaps) / 2
            for rho in (sample.rho + delta, sample.rho - delta):
                assert rotation_word(sample.alpha, rho, SIGMA7, n) == sample.word

    def test_symmetry_invariance(self):
        n = 5
        one = ExactReal.rational(1)
        samples = list(rotation_word_samples(SIGMA7, n))
        direct = Counter(s.word.raw for s in samples)
        mirrored = Counter(
            rotation_word(
                frac(one - s.alpha),
                frac(one - SIGMA7 - s.rho),
                SIGMA7,
                n,
            ).raw
            for s in samples
        )
        assert direct == mirrored

    def test_count_bounded_by_half_faces(self):
        for n in range(2, 7):
            count = rotation_word_count(SIGMA7, n)
            assert count <= rotation_face_count(n - 1) // 2 + 1

    def test_monotone_in_length(self):
        counts = [rotation_word_count(SIGMA7, n) for n in range(1, 7)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rational_sigma_rejected(self):
        with pytest.raises(ValueError):
            rotation_word_count(ExactReal.rational(2, 5), 4)

    def test_sigma_range(self):
        with pytest.raises(ValueError):
            rotation_word_count(ExactReal.sqrt(2), 4)

    def test_cap(self):
        assert DEFAULT_SWEEP_CAP == 42
        with pytest.raises(CapExceededError):
            rotation_word_count(SIGMA7, 43)
        with pytest.raises(CapExceededError):
            rotation_word_count(SIGMA7, 5, cap=4)


class TestExactOrder:
    def test_distinct_keys(self):
        d = 2
        items = [(1, 1, 3), (0, 0, 1), (-1, 1, 1), (1, 0, 1)]
        keys = [_floor64(*item, d) for item in items]
        assert _sorted_exact(items, keys, d) == [(0, 0, 1), (-1, 1, 1), (1, 1, 3), (1, 0, 1)]

    def test_tied_keys_compared_exactly(self):
        # all four lie in (0, 2**-64), so their floor(2**64 x) keys tie
        tiny = 1 << 80
        items = [(0, 1, tiny, "r2"), (3, 0, tiny, "3"), (1, 0, tiny, "1"), (2, 0, tiny, "2")]
        keys = [_floor64(v, w, den, 2) for v, w, den, _ in items]
        assert len(set(keys)) == 1
        assert [item[3] for item in _sorted_exact(items, keys, 2)] == ["1", "r2", "2", "3"]
