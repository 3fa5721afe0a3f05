"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single verdict line; under -v the test name itself
gives the per-criterion pass/fail verdict.
"""

import functools
import json
import math
import pathlib
import random
import time

from sturmian.counting import (
    balanced_count,
    rotation_face_count,
    rotation_word_count,
    sturmian_total,
)
from sturmian.exactnum import ExactReal
from sturmian.ostrowski import (
    OstrowskiRep,
    decode,
    digits_to_word,
    encode,
    is_legal,
    is_valid,
)
from sturmian.palindromes import (
    PalindromeOccurrence,
    PalindromicTree,
    central_word,
    construct_hard_prefix,
    occurrence_witness,
    pal_length,
    pal_length_profile,
    palindrome_factor_count,
    palindromes_starting_at,
    zd_max_gap,
)
from sturmian.words import (
    BinaryWord,
    DirectiveSequence,
    MechanicalParams,
    characteristic_prefix,
    has_kth_power,
    mechanical_word,
    standard_words,
)

FIB = DirectiveSequence.parse("fib")
D2 = DirectiveSequence.parse("2,(2)")
D8 = DirectiveSequence.parse("1,1,1,1,8,(1)")
DATA = pathlib.Path(__file__).parent / "data"


def report(num, text):
    print(f"criterion {num}: {text}: PASS")


def test_criterion_01_formula_matches_oracle():
    start = time.monotonic()
    for n in range(17):
        assert sturmian_total(n) == balanced_count(n)
    assert sturmian_total(1) == 2
    assert sturmian_total(3) == 8
    assert sturmian_total(4) == 14
    assert time.monotonic() - start < 30
    report(1, "counting formula equals the balanced-word oracle for n <= 16")


def test_criterion_02_asymptotics():
    start = time.monotonic()
    value = sturmian_total(2000)
    assert abs(value * math.pi**2 / 2000**3 - 1) <= 0.05
    assert time.monotonic() - start < 1
    report(2, "total at n = 2000 sits within 5% of n^3/pi^2")


def test_criterion_03_rotation_word_formula():
    start = time.monotonic()
    sigma = ExactReal.sqrt(7) / 7
    assert rotation_face_count(8) // 2 - 7 == 189
    assert rotation_face_count(9) // 2 - 8 == 261
    assert rotation_word_count(sigma, 9) == 189
    assert rotation_word_count(sigma, 10) == 261
    assert time.monotonic() - start < 120
    report(3, "arrangement sweep reproduces the face-count formula at lengths 9 and 10")


def test_criterion_04_fibonacci_golden_values():
    assert standard_words(FIB, 4)[5].to_string("ab") == "abaababa"
    prefix = characteristic_prefix(FIB, 21)
    assert prefix.to_string("ab") == "abaababaabaababaababa"
    assert central_word(FIB, 4).to_string("ab") == "abaababaaba"
    slope = FIB.slope()
    assert abs(float(slope) - 0.381966) <= 1e-6
    assert encode(14, FIB).render() == "100001"
    rep = OstrowskiRep.parse("1300", FIB)
    assert decode(rep) == 14
    assert not is_legal(rep)
    assert is_valid(rep)
    assert digits_to_word(rep).to_string("ab") == "abaab" + "aba" * 3
    report(4, "golden slope, prefixes, central word, and digit vectors all match")


def test_criterion_05_coding_identity():
    for d in (FIB, D2):
        sigma = d.slope()
        coded = mechanical_word(MechanicalParams(sigma=sigma, rho=sigma), 10**5)
        assert coded == characteristic_prefix(d, 10**5)
    report(5, "mechanical words at rho = sigma equal 100000-symbol characteristic prefixes")


def test_criterion_06_palindrome_pattern_and_richness():
    for d in (FIB, D2):
        for n in range(1, 61):
            assert palindrome_factor_count(d, n) == (2 if n % 2 else 1)
    raw = characteristic_prefix(FIB, 2000).raw
    tree = PalindromicTree()
    for i, symbol in enumerate(raw, start=1):
        tree.add(symbol)
        assert tree.distinct_count == i
    report(6, "palindromic factor counts alternate 2/1 and all prefixes are rich")


def test_criterion_07_occurrence_witnesses():
    start = time.monotonic()
    example = occurrence_witness(PalindromeOccurrence(FIB, 12, 13))
    assert example.m == 1
    assert example.y_m == 1
    assert example.rep_p2.render() == "10110"
    for d, pmax in ((FIB, 200), (D2, 200), (D8, 150)):
        raw = characteristic_prefix(d, pmax).raw
        occurrences = 0
        for p1 in range(pmax):
            for p2 in range(p1 + 1, pmax + 1):
                if raw[p1:p2] != raw[p1:p2][::-1]:
                    continue
                w = occurrence_witness(PalindromeOccurrence(d, p1, p2))
                assert decode(w.rep_p1) == p1 and is_legal(w.rep_p1)
                assert decode(w.rep_p2) == p2 and is_valid(w.rep_p2)
                occurrences += 1
        assert occurrences > 0
    assert time.monotonic() - start < 300
    report(7, "a witness exists for every palindromic occurrence in range")


def test_criterion_08_z_distance_gap():
    chain = ["140000", "1030000", "1021100", "1021011", "1020121", "1011221"]
    values = set()
    for text in chain:
        rep = OstrowskiRep.parse(text, D8)
        assert is_valid(rep)
        values.add(decode(rep))
    assert values == {101}
    gap, witness = zd_max_gap(D8, 101)
    assert gap == 3
    assert witness is not None
    fib_gap, _ = zd_max_gap(FIB, 150)
    assert fib_gap <= 3
    report(8, "z-distance gap is exactly 3 on the spiked sequence and small on Fibonacci")


def brute_pal_length(raw):
    @functools.lru_cache(maxsize=None)
    def go(s):
        if not s:
            return 0
        best = None
        for cut in range(1, len(s) + 1):
            if s[:cut] == s[:cut][::-1]:
                rest = 1 + go(s[cut:])
                if best is None or rest < best:
                    best = rest
        return best

    return go(raw)


def test_criterion_09_palindromic_length():
    assert pal_length(BinaryWord.from_string("abaabb")) == 3
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.randrange(15)
        raw = bytes(rng.randrange(2) for _ in range(n))
        assert pal_length(BinaryWord(raw)) == brute_pal_length(raw)
    records = pal_length_profile(FIB, 100_000)
    positions = [pos for pos, _ in records]
    values = [val for _, val in records]
    assert positions == sorted(set(positions))
    assert values == list(range(1, len(values) + 1))
    assert values[-1] >= 4
    golden = [
        tuple(pair)
        for pair in json.loads((DATA / "fib_profile_records.json").read_text())
    ]
    assert records == golden
    report(9, "palindromic length DP matches brute force and the frozen record profile")


def test_criterion_10_hard_prefix_construction():
    start = time.monotonic()
    d88 = DirectiveSequence.parse("8,8,1,(1)")
    n = construct_hard_prefix(d88, 1)
    assert n == 40
    assert pal_length(characteristic_prefix(d88, n)) >= 2
    d14 = DirectiveSequence.parse("14,14,14,(1)")
    n2 = construct_hard_prefix(d14, 2)
    assert pal_length(characteristic_prefix(d14, n2)) >= 3
    assert time.monotonic() - start < 60
    report(10, "constructed prefixes exceed the palindrome budgets at Q = 1 and Q = 2")


def test_criterion_11_power_free_palindrome_density():
    w = characteristic_prefix(FIB, 10_000)
    assert not has_kth_power(w, 4)
    maxlen = 100
    bound = 2 + math.log(maxlen) / math.log(4 / 3)
    for i in range(len(w)):
        lengths = palindromes_starting_at(w, i, maxlen)
        assert len(lengths) + 1 <= bound
        for shorter, longer in zip(lengths, lengths[1:]):
            assert 3 * longer > 4 * shorter
    report(11, "the 4th-power-free prefix has logarithmically few palindromic starts")
