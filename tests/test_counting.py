"""Counting formulas against their brute-force oracles."""

import math
from collections import Counter

import pytest

from sturmian.counting import (
    arrangement_face_count,
    arrangement_lines,
    balanced_count,
    euler_phi,
    euler_phi_sieve,
    rotation_face_count,
    rotation_word_count,
    rotation_word_samples,
    sturmian_total,
)
from sturmian.errors import CapExceededError
from sturmian.exactnum import ExactReal
from sturmian.words import BinaryWord, is_balanced, rotation_word

SIGMA7 = ExactReal.sqrt(7) / 7  # inside (3/8, 2/5)


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
        for n in range(17):
            assert sturmian_total(n) == balanced_count(n)

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

    def test_cap(self):
        with pytest.raises(CapExceededError):
            balanced_count(41)
        with pytest.raises(CapExceededError):
            balanced_count(10, cap=9)


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

    def test_samples_strictly_off_lines(self):
        n = 4
        lines = arrangement_lines(n - 1, SIGMA7)
        samples = list(rotation_word_samples(SIGMA7, n))
        assert samples
        for sample in samples:
            for ln in lines:
                assert ln.height_at(sample.alpha) != sample.rho

    def test_same_face_same_word(self):
        # nudging rho by half the distance to the nearest line stays in
        # the same face, so the word must not change
        n = 4
        lines = arrangement_lines(n - 1, SIGMA7)
        for sample in rotation_word_samples(SIGMA7, n):
            gaps = []
            for ln in lines:
                diff = ln.height_at(sample.alpha) - sample.rho
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
                (one - s.alpha).frac(),
                (one - SIGMA7 - s.rho).frac(),
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
        with pytest.raises(CapExceededError):
            rotation_word_count(SIGMA7, 15)
        with pytest.raises(CapExceededError):
            rotation_word_count(SIGMA7, 5, cap=4)
