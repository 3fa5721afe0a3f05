"""Palindromic structure: counts, central words, witnesses, lengths."""

import functools
import inspect
import json
import pathlib
import random
import sys
import tracemalloc

import pytest

from sturmian import palindromes
from sturmian.errors import CapExceededError
from sturmian.ostrowski import (
    _ValidDigitDag,
    _digit_string,
    _greedy_digits,
    _render,
    OstrowskiRep,
    decode,
    encode,
    enumerate_legal_reps,
    enumerate_valid_reps,
    is_legal,
    is_valid,
    rep_sort_key,
)
from sturmian.palindromes import (
    PalindromeOccurrence,
    PalindromicTree,
    _balanced_pal_lengths,
    _central_levels,
    _digit_tables,
    _extension_reach,
    _general_pal_lengths,
    _pal_lengths,
    _prefix_sums,
    central_word,
    construct_hard_prefix,
    distinct_palindromic_factors,
    is_palindrome,
    maximal_palindromic_extension,
    occurrence_witness,
    occurrence_witnesses,
    OccurrenceWitness,
    pal_length,
    pal_length_profile,
    palindrome_factor_count,
    palindrome_factor_counts,
    palindromes_starting_at,
    z_vector,
    ZdGapWitness,
    zd_max_gap,
)
from sturmian.words import (
    DEFAULT_RECURRENCE_CAP,
    BinaryWord,
    DirectiveSequence,
    _factors,
    balance_witness,
    characteristic_prefix,
)
from test_ostrowski import is_canonical

FIB = DirectiveSequence.parse("fib")
D2 = DirectiveSequence.parse("2,(2)")
D8 = DirectiveSequence.parse("1,1,1,1,8,(1)")
DATA = pathlib.Path(__file__).parent / "data"


def bw(text):
    return BinaryWord.from_string(text)


def brute_palindromic_factors(raw):
    return {raw[i:j] for i in range(len(raw)) for j in range(i + 1, len(raw) + 1) if raw[i:j] == raw[i:j][::-1]}


def suffix_palindrome_lengths(tree):
    """Lengths of all palindromic suffixes of the tree's word, longest
    first: the suffix links from its longest palindromic suffix."""
    out = []
    node = tree._last
    while node > 1:
        out.append(tree._len[node])
        node = tree._link[node]
    return out


class TestIsPalindrome:
    def test_examples(self):
        assert is_palindrome(bw("01001010010"))
        assert is_palindrome(bw(""))
        assert not is_palindrome(bw("ab"))


class TestTree:
    def test_matches_brute_force(self):
        rng = random.Random(90125)
        for _ in range(120):
            n = rng.randrange(17)
            raw = bytes(rng.randrange(2) for _ in range(n))
            word = BinaryWord(raw)
            tree = PalindromicTree()
            for stop in range(1, n + 1):
                grew = tree.add(raw[stop - 1])
                seen = brute_palindromic_factors(raw[:stop])
                assert tree.distinct_count == len(seen)
                assert grew == (len(seen) > len(brute_palindromic_factors(raw[: stop - 1])))
                suffixes = sorted(
                    (len(p) for p in seen if raw[:stop].endswith(p)),
                    reverse=True,
                )
                assert suffix_palindrome_lengths(tree) == suffixes
            assert PalindromicTree(word).distinct_count == tree.distinct_count

    def test_matches_naive_enumeration_longer_words(self):
        # every prefix's palindromic suffixes, listed by slicing, give
        # the distinct palindromes seen so far and the new one, if any
        rng = random.Random(271828)
        words = [bytes(rng.randrange(2) for _ in range(rng.randrange(90))) for _ in range(40)]
        for text in ("fib", "2,(2)", "0,(4)", "3,(1,1,5)"):
            words.append(characteristic_prefix(DirectiveSequence.parse(text), 120).raw)
        for raw in words:
            tree = PalindromicTree()
            seen = set()
            for stop in range(1, len(raw) + 1):
                prefix = raw[:stop]
                suffixes = [
                    stop - i for i in range(stop) if prefix[i:] == prefix[i:][::-1]
                ]
                grew = prefix[stop - suffixes[0] :] not in seen
                seen.update(prefix[stop - ell :] for ell in suffixes)
                assert tree.add(raw[stop - 1]) == grew
                assert tree.distinct_count == len(seen)
                assert suffix_palindrome_lengths(tree) == suffixes
            assert PalindromicTree(BinaryWord(raw)).distinct_count == len(seen)

    def test_reexported_names(self):
        import sturmian
        import sturmian.palindromes
        import sturmian.words

        assert sturmian.PalindromicTree is sturmian.words.PalindromicTree
        assert sturmian.palindromes.PalindromicTree is sturmian.words.PalindromicTree
        for cls in (sturmian.PalindromicTree, sturmian.palindromes.PalindromicTree):
            tree = cls(bw("abaabb"))
            assert tree.distinct_count == 6
            assert suffix_palindrome_lengths(tree) == [2, 1]
            assert tree.add(0) is True
            with pytest.raises(ValueError):
                tree.add(2)
            assert tree.distinct_count == 7

    def test_richness_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(30)
            word = BinaryWord(bytes(rng.randrange(2) for _ in range(n)))
            count, rich = distinct_palindromic_factors(word)
            assert count <= n + 1
            assert rich == (count == n + 1)


class TestFactorCounts:
    def test_fibonacci_small(self):
        assert palindrome_factor_count(FIB, 1) == 2
        assert palindrome_factor_count(FIB, 2) == 1
        assert palindrome_factor_count(FIB, 3) == 2

    def test_parity_pattern(self):
        for d in (FIB, D2):
            for n in range(1, 21):
                expect = 2 if n % 2 else 1
                assert palindrome_factor_count(d, n) == expect

    def test_length_validation(self):
        with pytest.raises(ValueError):
            palindrome_factor_count(FIB, 0)

    def test_cap(self):
        # R(10) = 10 + q_5 + q_4 - 1 = 30 symbols on the Fibonacci word
        assert palindrome_factor_count(FIB, 10, cap=30) == 1
        with pytest.raises(CapExceededError):
            palindrome_factor_count(FIB, 10, cap=29)


def per_n_palindrome_count(d, n, cap=DEFAULT_RECURRENCE_CAP):
    """h(n) as the palindromes among the length-n factors of the prefix
    of length R(n): one factor set per n, O(n R(n)) bytes."""
    return sum(f == f[::-1] for f in _factors(d, n, cap))


def per_n_outcome(d, nmax, cap):
    """[h(1), ..., h(nmax)] by one factor set per n, or the type and
    message of the first error that loop meets."""
    counts = []
    try:
        for n in range(1, nmax + 1):
            counts.append(per_n_palindrome_count(d, n, cap))
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)
    return counts


def one_pass_outcome(d, nmax, cap):
    try:
        return palindrome_factor_counts(d, nmax, cap)[1:]
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)


class TestFactorCountsInOnePass:
    def test_matches_per_n_sets(self):
        # a finite directive whose whole word, of 2365 symbols, holds
        # every factor of length n <= 381
        for text in ("fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)", "1,2,3,4,5,6"):
            d = DirectiveSequence.parse(text)
            counts = palindrome_factor_counts(d, 300)
            assert counts[0] == 1
            for n in range(1, 301):
                assert counts[n] == per_n_palindrome_count(d, n), (text, n)
                if n % 50 == 0:
                    assert palindrome_factor_count(d, n) == counts[n]

    def test_first_failure_matches_per_n_loop(self):
        # the least unreadable n is found level by level; its message,
        # the cap's or the finite word's, must be the one the per-n loop
        # meets first
        cases = [("fib", cap) for cap in (2, 3, 4, 10, 29, 30, 31, 55, 200)]
        cases += [("200,(1)", cap) for cap in (150, 201, 202, 260, 403)]
        cases += [("0,2,(1,3)", 40), ("62,(62)", 100)]
        finite = ("1,2,3", "2,3,5", "0", "5", "0,1", "0,3,1", "1,1,1,1", "1,2,3,4,5,6")
        for text in finite:
            cases += [(text, DEFAULT_RECURRENCE_CAP), (text, 20)]
        for text, cap in cases:
            d = DirectiveSequence.parse(text)
            for nmax in range(1, 41):
                want = per_n_outcome(DirectiveSequence.parse(text), nmax, cap)
                assert one_pass_outcome(d, nmax, cap) == want, (text, cap, nmax)

    def test_single_length_keeps_its_own_error(self):
        # n = 12 on 1,2,3 fails with its own R(12) = 33, not with R(5) = 26
        # of the least failing length
        d = DirectiveSequence.parse("1,2,3")
        with pytest.raises(ValueError, match="prefix of length 33"):
            palindrome_factor_count(d, 12)
        with pytest.raises(ValueError, match="prefix of length 26"):
            palindrome_factor_counts(d, 12)
        with pytest.raises(ValueError):
            palindrome_factor_counts(FIB, 0)

    def test_fibonacci_parity_to_100000(self):
        counts = palindrome_factor_counts(FIB, 10**5)
        assert len(counts) == 10**5 + 1
        assert all(counts[n] == 1 + n % 2 for n in range(1, 10**5 + 1))


class TestRichness:
    def test_example(self):
        assert distinct_palindromic_factors(bw("abaabb")) == (7, True)

    def test_characteristic_prefixes_rich(self):
        raw = characteristic_prefix(FIB, 300).raw
        tree = PalindromicTree()
        for i, symbol in enumerate(raw, start=1):
            tree.add(symbol)
            assert tree.distinct_count == i

    def test_growth_at_most_one(self):
        rng = random.Random(777)
        for _ in range(60):
            n = rng.randrange(1, 40)
            raw = bytes(rng.randrange(2) for _ in range(n))
            tree = PalindromicTree()
            prev = 0
            for symbol in raw:
                tree.add(symbol)
                assert tree.distinct_count - prev in (0, 1)
                prev = tree.distinct_count

    def test_factors_of_rich_words_are_rich(self):
        raw = characteristic_prefix(FIB, 200)
        rng = random.Random(31337)
        for _ in range(40):
            i = rng.randrange(200)
            j = rng.randrange(i, 201)
            _, rich = distinct_palindromic_factors(raw[i:j])
            assert rich


class TestCentralWords:
    @pytest.mark.parametrize(
        "text", ["fib", "2,(2)", "200,(1)", "0,2,(1,3)", "1,2,3"]
    )
    def test_level_table_matches_central_word_lengths(self, text):
        # the m of the (m, j) with 1 <= j <= d_m and |c_{m,j}| = n, read
        # off central_word itself, for every n <= 2 pmax; the finite
        # 1,2,3 ends at q_3 = 17, so most of its lengths have no level
        d, pmax = DirectiveSequence.parse(text), 300
        want = {}
        for m in range(2 * pmax):
            try:
                top = d.digit(m)
            except IndexError:
                break
            if len(central_word(d, m)) > 2 * pmax:
                break
            for j in range(1, top + 1):
                n = len(central_word(d, m, j))
                if n > 2 * pmax:
                    break
                assert n not in want
                want[n] = m
        levels = _central_levels(d, 2 * pmax + 1)
        assert all(n <= 2 * pmax for n in levels)
        for n in range(1, 2 * pmax + 1):
            assert levels.get(n) == want.get(n), n
        assert len(set(want.values())) > 1

    def test_fibonacci_level_four(self):
        assert central_word(FIB, 4).to_string("ab") == "abaababaaba"

    def test_d2_examples(self):
        assert central_word(D2, 1, 1).to_string("ab") == "aabaa"
        assert central_word(D2, 2).to_string("ab") == "aabaabaa"
        assert central_word(D2, 2, 1).to_string("ab") == "aabaabaaabaabaa"
        assert central_word(D2, 3).to_string("ab") == "aabaabaaabaabaaabaabaa"

    def test_level_zero_is_empty(self):
        assert len(central_word(FIB, 0)) == 0

    def test_repetition_validation(self):
        with pytest.raises(ValueError):
            central_word(FIB, 2, 2)
        with pytest.raises(ValueError):
            central_word(FIB, 2, -1)
        with pytest.raises(ValueError):
            central_word(DirectiveSequence.parse("2,2"), 5)

    def test_they_are_palindromic_prefixes(self):
        for d in (FIB, D2):
            for m in range(9):
                for j in range(d.digit(m) + 1):
                    c = central_word(d, m, j)
                    assert is_palindrome(c)
                    assert c == characteristic_prefix(d, len(c))

    def test_complete_list_of_palindromic_prefixes(self):
        for d in (FIB, D2):
            limit = len(central_word(d, 8))
            raw = characteristic_prefix(d, limit).raw
            actual = {
                n for n in range(limit + 1) if raw[:n] == raw[:n][::-1]
            }
            claimed = set()
            for m in range(9):
                for j in range(d.digit(m) + 1):
                    n = len(central_word(d, m, j))
                    if n <= limit:
                        claimed.add(n)
            assert claimed == actual


class TestExtension:
    def test_single_letter(self):
        ext = maximal_palindromic_extension(PalindromeOccurrence(FIB, 12, 13))
        assert (ext.p1, ext.p2) == (11, 14)

    def test_d2_example(self):
        occ = PalindromeOccurrence(D2, 3, 5)
        assert occ.factor().to_string("ab") == "aa"
        ext = maximal_palindromic_extension(occ)
        assert (ext.p1, ext.p2) == (0, 8)
        assert ext.factor() == central_word(D2, 2)

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            maximal_palindromic_extension(PalindromeOccurrence(FIB, 0, 2))

    def test_extensions_are_central_word_occurrences(self):
        # widening any palindromic occurrence far enough lands on an
        # occurrence of some palindromic prefix of the same word
        for d in (FIB, D2):
            raw = characteristic_prefix(d, 120).raw
            for p1 in range(120):
                for p2 in range(p1 + 1, 121):
                    if raw[p1:p2] != raw[p1:p2][::-1]:
                        continue
                    ext = maximal_palindromic_extension(
                        PalindromeOccurrence(d, p1, p2)
                    )
                    assert ext.p1 <= p1 and p2 <= ext.p2
                    assert p1 - ext.p1 == ext.p2 - p2
                    factor = ext.factor()
                    assert factor == characteristic_prefix(d, len(factor))


def palindromic_occurrences(d, pmax):
    raw = characteristic_prefix(d, pmax).raw
    for p2 in range(1, pmax + 1):
        for p1 in range(p2):
            if raw[p1:p2] == raw[p1:p2][::-1]:
                yield PalindromeOccurrence(d, p1, p2)


def mirror(x, m, y, d):
    """d_i - x_i below the pivot m, y at it, x_i above it."""
    digits = [d.digit(i) - x.digit(i) for i in range(m)] + [y]
    digits += [x.digit(i) for i in range(m + 1, len(x.digits))]
    return OstrowskiRep(d, tuple(digits))


def brute_occurrence_witness(occ):
    """Every legal vector of p1, in rep_sort_key order, crossed with
    every pivot m whose q_m + q_{m-1} <= p1 + p2 + 2 and whose d_m
    exists: the first mirror that decodes to p2 and is valid, marked
    fallback_used as the exhaustive search marks it; None if there is
    none."""
    d, p1, p2 = occ.d, occ.p1, occ.p2
    top = 0
    try:
        while d.q(top) + d.q(top - 1) <= p1 + p2 + 2:
            d.digit(top)
            top += 1
    except IndexError:
        pass
    for x in sorted(enumerate_legal_reps(p1, d), key=rep_sort_key):
        for m in range(top):
            y, rem = divmod(p2 - decode(mirror(x, m, 0, d)), d.q(m))
            if rem or y < 0:
                continue
            rep_p2 = mirror(x, m, y, d)
            if is_valid(rep_p2):
                return OccurrenceWitness(p1, p2, x, m, y, rep_p2, True)
    return None


def check_witness(w, occ):
    """The witness shape: canonical start, its mirror the end."""
    d = occ.d
    assert (w.p1, w.p2) == (occ.p1, occ.p2)
    assert w.rep_p1 == encode(occ.p1, d)
    assert w.y_m >= 0
    assert w.rep_p2 == mirror(w.rep_p1, w.m, w.y_m, d)
    assert decode(w.rep_p2) == occ.p2 and is_valid(w.rep_p2)
    if w.fallback_used:
        # pivot m would need y_m = -1: one s_m traded for
        # s_{m-1}^{d_{m-1}} s_{m-2}
        m, x = w.m + 2, w.rep_p1
        assert x.digit(m - 1) == x.digit(m) == 0
        assert w.y_m == d.digit(m - 2) - x.digit(m - 2) - 1
        assert decode(mirror(x, m, 0, d)) - d.q(m) == occ.p2


class TestWitness:
    def test_worked_example(self):
        w = occurrence_witness(PalindromeOccurrence(FIB, 12, 13))
        assert w.to_record() == {
            "p1": 12,
            "p2": 13,
            "rep_p1": "10101",
            "m": 1,
            "y_m": 1,
            "rep_p2": "10110",
            "fallback_used": False,
        }

    def test_prefix_occurrence(self):
        w = occurrence_witness(PalindromeOccurrence(FIB, 0, 11))
        assert w.rep_p1.render() == "0"
        assert (w.m, w.y_m) == (3, 1)
        assert w.rep_p2.render() == "1111"
        assert not w.fallback_used

    def test_pivot_two_below_extension(self):
        occ = PalindromeOccurrence(FIB, 13, 14)
        w = occurrence_witness(occ)
        assert w.to_record() == {
            "p1": 13,
            "p2": 14,
            "rep_p1": "100000",
            "m": 1,
            "y_m": 0,
            "rep_p2": "100001",
            "fallback_used": True,
        }
        ext = maximal_palindromic_extension(occ)
        assert (ext.p1, ext.p2) == (8, 19)
        assert ext.factor() == central_word(FIB, 3, 1)
        check_witness(w, occ)

    @pytest.mark.parametrize(
        "text", ["fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)"]
    )
    def test_matches_exhaustive_oracle(self, text):
        d = DirectiveSequence.parse(text)
        for occ in palindromic_occurrences(d, 150):
            assert brute_occurrence_witness(occ) is not None
            check_witness(occurrence_witness(occ), occ)

    def test_matches_exhaustive_oracle_random(self):
        rng = random.Random(20261018)
        for _ in range(20):
            d = random_directive(rng)
            for occ in palindromic_occurrences(d, 100):
                assert brute_occurrence_witness(occ) is not None
                check_witness(occurrence_witness(occ), occ)

    def test_matches_exhaustive_oracle_finite(self):
        # q_9 = 89; the maximal extension reads up to p1 + p2 symbols
        d = DirectiveSequence.parse("1,1,1,1,1,1,1,1,1")
        taken = 0
        for occ in palindromic_occurrences(d, 44):
            assert brute_occurrence_witness(occ) is not None
            w = occurrence_witness(occ)
            check_witness(w, occ)
            taken += w.fallback_used
        assert taken == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            occurrence_witness(PalindromeOccurrence(FIB, 5, 5))
        with pytest.raises(ValueError):
            occurrence_witness(PalindromeOccurrence(FIB, 0, 2))

    def test_every_occurrence_has_structured_witness(self):
        for d in (FIB, D2):
            raw = characteristic_prefix(d, 120).raw
            for p1 in range(120):
                for p2 in range(p1 + 1, 121):
                    if raw[p1:p2] != raw[p1:p2][::-1]:
                        continue
                    w = occurrence_witness(PalindromeOccurrence(d, p1, p2))
                    assert decode(w.rep_p1) == p1
                    assert is_legal(w.rep_p1)
                    assert decode(w.rep_p2) == p2
                    assert is_valid(w.rep_p2)
                    assert w.y_m >= 0
                    # mirrored digit structure around the pivot
                    for i in range(w.m):
                        assert w.rep_p2.digit(i) == d.digit(i) - w.rep_p1.digit(i)
                    assert w.rep_p2.digit(w.m) == w.y_m
                    top = max(len(w.rep_p1.digits), len(w.rep_p2.digits))
                    for i in range(w.m + 1, top):
                        assert w.rep_p2.digit(i) == w.rep_p1.digit(i)

    def test_z_vectors_differ_at_one_index_at_most(self):
        raw = characteristic_prefix(FIB, 100).raw
        for p1 in range(100):
            for p2 in range(p1 + 1, 101):
                if raw[p1:p2] != raw[p1:p2][::-1]:
                    continue
                w = occurrence_witness(PalindromeOccurrence(FIB, p1, p2))
                za = z_vector(w.rep_p1)
                zb = z_vector(w.rep_p2)
                width = max(len(za), len(zb))
                diffs = sum(
                    (za[i] if i < len(za) else 0) != (zb[i] if i < len(zb) else 0)
                    for i in range(width)
                )
                assert diffs <= 1


def digit_table(xs, qs, ds):
    """The digit table of p1 (see palindromes._table_step) from its
    canonical digits xs alone, each field computed from xs."""
    sums = _prefix_sums(xs, qs)
    sums += sums[-1:] * (len(qs) + 1 - len(sums))
    comp = [di - x for di, x in zip(ds, xs)]
    comp += ds[len(comp) :]
    top = wide_x = len(xs) - 1
    while wide_x >= 0 and xs[wide_x] < 10:
        wide_x -= 1
    wide_c = 0
    while wide_c < len(comp) and comp[wide_c] < 10:
        wide_c += 1
    high = _digit_string(xs[wide_x + 1 :][::-1])
    low = _digit_string(comp[:wide_c][::-1])
    rendered = (high or "0") if wide_x < 0 else _render(xs)
    return xs, sums, comp, rendered, top, high, low, wide_x, wide_c


def check_batch(d, pmax):
    """The batch lists the brute occurrences in (p2, p1) order, each
    with occurrence_witness's record; returns the records.  Its pairs
    are also the palindromic suffixes of every prefix, longest first,
    read off PalindromicTree."""
    records = list(occurrence_witnesses(d, pmax))
    occs = list(palindromic_occurrences(d, pmax))
    got = [(r["p1"], r["p2"]) for r in records]
    assert set(got) == {(o.p1, o.p2) for o in occs}
    assert got == [(o.p1, o.p2) for o in occs]
    tree = PalindromicTree()
    suffixes = []
    for p2, symbol in enumerate(characteristic_prefix(d, pmax).raw, 1):
        tree.add(symbol)
        suffixes += [(p2 - ell, p2) for ell in suffix_palindrome_lengths(tree)]
    assert got == suffixes
    for rec, occ in zip(records, occs):
        expected = occurrence_witness(occ).to_record()
        # == ignores key order; the records keep to_record()'s
        assert rec == expected and list(rec) == list(expected)
    return records


def rule_records(d, pmax, valid):
    """The batch's records, rebuilt one occurrence at a time from the
    witness rule with validity read from valid(digits): p1's canonical
    vector x must pass, then the mirror at m, the level of the maximal
    extension's central word, is tried, then the one at m - 2, each
    where its y is exact and >= 0; a FAIL where none passes."""
    levels = _central_levels(d, 2 * pmax)
    for occ in palindromic_occurrences(d, pmax):
        ext = maximal_palindromic_extension(occ)
        m = levels.get(ext.p2 - ext.p1)
        x = encode(occ.p1, d)
        record = {"p1": occ.p1, "p2": occ.p2, "status": "FAIL"}
        if m is not None and valid(x.digits):
            for pivot in (m, m - 2):
                if pivot < 0:
                    break
                rest = occ.p2 - decode(mirror(x, pivot, 0, d))
                y, rem = divmod(rest, d.q(pivot))
                if rem or y < 0:
                    continue
                rep = mirror(x, pivot, y, d)
                if valid(rep.digits):
                    record = OccurrenceWitness(
                        occ.p1, occ.p2, x, pivot, y, rep, pivot != m
                    ).to_record()
                    break
        yield record


class TestBatch:
    @pytest.mark.parametrize(
        "text", ["fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)",
                 "12,(1,11)", "1,(10)", "200,(1)"]
    )
    def test_matches_single_witness(self, text):
        check_batch(DirectiveSequence.parse(text), 150)

    def test_matches_single_witness_random(self):
        rng = random.Random(20261018)
        for _ in range(20):
            check_batch(random_directive(rng), 100)

    @pytest.mark.parametrize(
        "text", ["fib", "0,2,(1,3)", "200,(1)", "1,(50)", "12,(1,11)",
                 "1,1,1,1,1,1,1,1,1"]
    )
    def test_derived_tables_match_digits(self, text, monkeypatch):
        # every digit table the batch derives from a shorter start's
        # equals, in all nine fields, the table built from p1's greedy
        # digits, for every p1 < 5000 (every p1 below the whole word of
        # the finite 1,1,1,1,1,1,1,1,1), over the levels of its run
        # table; 0,2,(1,3) has q_0 = q_1 = 1, and 200,(1), 1,(50) and
        # 12,(1,11) have x and complement digits of 10 or more
        d = DirectiveSequence.parse(text)
        n = _extension_reach(d, 5000)
        qs = _ValidDigitDag(d, n).qs
        assert (qs[:2] == [1, 1]) == (text == "0,2,(1,3)")
        ds = [d.digit(i) for i in range(len(qs) - 1)]
        derived = _digit_tables(n, qs, ds)
        assert len(derived) == n
        for p1, table in enumerate(derived):
            xs = table[0]
            assert xs == tuple(_greedy_digits(p1, qs))
            assert is_canonical(OstrowskiRep(d, xs))
            assert table == digit_table(xs, qs, ds), p1
        # occurrence_witness folds the same step over p1's nonzero
        # digits, lowest first, on its own levels (on the finite word,
        # below the starts whose extension its end cuts)
        step_of = palindromes._table_step
        folded = []

        def spy(qs, ds):
            table, step = step_of(qs, ds)
            folded.append((qs, ds, table))

            def spied(table, k, x):
                folded[-1] = (qs, ds, step(table, k, x))
                return folded[-1][2]

            return table, spied

        monkeypatch.setattr(palindromes, "_table_step", spy)
        for p1 in range(n // 2 if d.is_finite else n):
            occurrence_witness(PalindromeOccurrence(d, p1, p1 + 1))
            qs, ds, table = folded.pop()
            assert table == digit_table(tuple(_greedy_digits(p1, qs)), qs, ds)

    def test_matches_single_witness_finite(self):
        d = DirectiveSequence.parse("1,1,1,1,1,1,1,1,1")
        records = check_batch(d, 44)
        assert sum(r["fallback_used"] for r in records) == 7

    def test_run_table_verdicts_match_is_valid(self):
        # every verdict the batch takes, on each canonical x and on each
        # mirror it tries, is is_valid's: its records are the witness
        # rule's with is_valid as the check (the rejecting walk is
        # test_run_table_rejects_one_walk's)
        for text in ("fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)"):
            d = DirectiveSequence.parse(text)

            def check(digits):
                return is_valid(OstrowskiRep(d, tuple(digits)))

            records = list(occurrence_witnesses(d, 150))
            assert records == list(rule_records(d, 150, check))

    @pytest.mark.parametrize("at_pivot", [False, True])
    @pytest.mark.parametrize("fallback", [False, True])
    def test_run_table_rejects_one_walk(self, monkeypatch, fallback, at_pivot):
        # one entry that the mirror of a chosen record reads below its
        # pivot (or at it) lowered under the digit placed there: the
        # records that change fall back to m - 2 or become FAIL, as the
        # witness rule with dag.valid as the check predicts, and no
        # other record changes
        d, pmax = DirectiveSequence.parse("0,2,(1,3)"), 80
        clean = list(occurrence_witnesses(d, pmax))
        dag = _ValidDigitDag(d, pmax)
        for r in clean:
            if r["fallback_used"] != fallback:
                continue
            p1, pivot = r["p1"], r["m"]
            digits = OstrowskiRep.parse(r["rep_p2"], d).digits
            pos, cut = 0, None
            for i in range(len(digits) - 1, -1, -1):
                if digits[i] and (i == pivot if at_pivot else i < pivot):
                    # only where p1's own vector still passes
                    run = dag.runs[i]
                    keep, run[pos] = run[pos], digits[i] - 1
                    x_valid = dag.valid(encode(p1, d).digits)
                    run[pos] = keep
                    if x_valid:
                        cut = i, pos, digits[i] - 1
                        break
                pos += digits[i] * d.q(i)
            if cut is not None:
                break
        assert cut is not None
        i, pos, value = cut
        build = _ValidDigitDag.__init__

        def corrupt(dag, d, n):
            build(dag, d, n)
            dag.runs[i][pos] = value

        monkeypatch.setattr(_ValidDigitDag, "__init__", corrupt)
        dag = _ValidDigitDag(d, pmax)
        records = list(occurrence_witnesses(d, pmax))
        assert records == list(rule_records(d, pmax, dag.valid))
        changed = [(a, b) for a, b in zip(clean, records) if a != b]
        assert r in [a for a, _ in changed]
        for a, b in changed:
            assert b.get("status") == "FAIL" or (
                b["fallback_used"] and not a["fallback_used"]
            )

    def test_bad_canonical_vector_fails_every_record(self, monkeypatch):
        # a run table that refuses x = encode(p1) at its lowest nonzero
        # digit i: mirrors pivoting above i keep x's digits only above
        # their pivot, so only the check of x itself sees the fault
        d, pmax, p1 = FIB, 40, 12
        clean = [r for r in occurrence_witnesses(d, pmax) if r["p1"] == p1]
        x = encode(p1, d).digits
        i = next(i for i, k in enumerate(x) if k)
        pos = p1 - x[i] * d.q(i)
        build = _ValidDigitDag.__init__

        def corrupt(dag, d, n):
            build(dag, d, n)
            dag.runs[i][pos] = x[i] - 1

        monkeypatch.setattr(_ValidDigitDag, "__init__", corrupt)
        dag = _ValidDigitDag(d, pmax)
        assert not dag.valid(x)
        # without that check, some mirror would pass on this table
        assert any(
            r["m"] > i and dag.valid(
                OstrowskiRep.parse(r["rep_p2"], d).digits[: r["m"] + 1],
                p1 - sum(k * d.q(j) for j, k in enumerate(x[: r["m"] + 1])),
            )
            for r in clean
        )
        records = list(occurrence_witnesses(d, pmax))
        mine = [r for r in records if r["p1"] == p1]
        assert len(mine) == len(clean)
        assert mine == [
            {"p1": p1, "p2": r["p2"], "status": "FAIL"} for r in mine
        ]
        # == ignores key order
        assert {tuple(r) for r in mine} == {("p1", "p2", "status")}
        for r in records:
            if "status" not in r:
                for key in ("rep_p1", "rep_p2"):
                    assert dag.valid(OstrowskiRep.parse(r[key], d).digits)

    @pytest.mark.parametrize(
        "text", ["fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)"]
    )
    def test_run_table_matches_is_valid_at_every_pivot(self, text):
        # the mirror of every occurrence at every pivot with an exact
        # y >= 0, accepted or rejected
        d = DirectiveSequence.parse(text)
        pmax = 120
        dag = _ValidDigitDag(d, pmax)
        verdicts = set()
        for occ in palindromic_occurrences(d, pmax):
            x = encode(occ.p1, d)
            for pivot in range(len(dag.qs)):
                y, rem = divmod(occ.p2 - decode(mirror(x, pivot, 0, d)), d.q(pivot))
                if rem or y < 0:
                    continue
                rep = mirror(x, pivot, y, d)
                verdict = is_valid(rep)
                assert dag.valid(list(rep.digits) + [0]) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_run_table_matches_is_valid_on_legal_vectors(self):
        for text in ("fib", "2,(2)", "0,2,(1,3)", "1,2,3"):
            d = DirectiveSequence.parse(text)
            n = 16
            dag = _ValidDigitDag(d, n)
            for total in range(n + 1):
                for rep in enumerate_legal_reps(total, d):
                    assert dag.valid(rep.digits) == is_valid(rep)

    def test_finite_directive_reads_the_whole_word(self):
        # q_3 = 17 < p1 + p2 = 19, yet the extension of (9..10] stops
        # at a mismatch inside the word
        d = DirectiveSequence.parse("1,2,3")
        ext = maximal_palindromic_extension(PalindromeOccurrence(d, 9, 10))
        assert (ext.p1, ext.p2) == (9, 10)
        check_batch(d, 10)

    def test_finite_directive_cut_extension(self):
        d = DirectiveSequence.parse("1,2,3")
        message = r"extend \(9\.\.11\]"
        with pytest.raises(ValueError, match=message):
            maximal_palindromic_extension(PalindromeOccurrence(d, 9, 11))
        for pmax in (11, 12, 17):
            with pytest.raises(ValueError, match=message):
                list(occurrence_witnesses(d, pmax))
        with pytest.raises(ValueError, match="prefix of length 18"):
            list(occurrence_witnesses(d, 18))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(occurrence_witnesses(FIB, 0))


class TestZVectors:
    def test_examples(self):
        assert z_vector(OstrowskiRep.parse("140000", D8)) == (0, 0, 0, 0, 4, 0)
        assert z_vector(OstrowskiRep.parse("1011221", D8)) == (0, 1, 1, 0, 1, 0, 0)
        assert z_vector(OstrowskiRep(FIB, ())) == ()

    def test_directive_bound_required(self):
        short = DirectiveSequence.parse("2,2")
        with pytest.raises(ValueError):
            z_vector(OstrowskiRep(short, (1, 1, 1)))


def brute_zd_max_gap(d, nmax):
    """Every pair of valid vectors of every N <= nmax, every digit; the
    first strict improvement is the witness."""
    best = 0
    witness = None
    for n in range(nmax + 1):
        reps = sorted(enumerate_valid_reps(n, d), key=rep_sort_key)
        zs = [z_vector(r) for r in reps]
        for a in range(len(reps)):
            za = zs[a]
            for b in range(a + 1, len(reps)):
                zb = zs[b]
                for i in range(max(len(za), len(zb))):
                    va = za[i] if i < len(za) else 0
                    vb = zb[i] if i < len(zb) else 0
                    if abs(va - vb) > best:
                        best = abs(va - vb)
                        witness = ZdGapWitness(n, i, reps[a], reps[b])
    return best, witness


def random_directive(rng):
    head = [rng.randrange(7)]
    head += [rng.randrange(1, 7) for _ in range(rng.randrange(3))]
    tail = [rng.randrange(1, 7) for _ in range(rng.randrange(1, 3))]
    return DirectiveSequence(tuple(head), tuple(tail))


class TestZdGap:
    def test_spike_directive(self):
        gap, witness = zd_max_gap(D8, 101)
        assert gap == 3
        assert witness is not None
        assert witness.digit_index == 4
        assert decode(witness.rep_a) == witness.n == decode(witness.rep_b)
        assert is_valid(witness.rep_a) and is_valid(witness.rep_b)
        za, zb = z_vector(witness.rep_a), z_vector(witness.rep_b)
        va = za[4] if len(za) > 4 else 0
        vb = zb[4] if len(zb) > 4 else 0
        assert abs(va - vb) == 3

    def test_fibonacci_stays_low(self):
        gap, witness = zd_max_gap(FIB, 150)
        assert gap == 2
        assert witness is not None

    def test_zero_range(self):
        assert zd_max_gap(FIB, 0) == (0, None)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            zd_max_gap(FIB, 10, cap=9)

    @pytest.mark.parametrize(
        "text,nmax",
        [
            ("fib", 150),
            ("2,(2)", 160),
            ("1,1,1,1,8,(1)", 101),
            ("1,1,1,1,8,(1)", 300),
            ("0,2,(1,3)", 120),
        ],
    )
    def test_matches_pairwise_oracle(self, text, nmax):
        d = DirectiveSequence.parse(text)
        assert zd_max_gap(d, nmax) == brute_zd_max_gap(d, nmax)

    def test_matches_pairwise_oracle_random(self):
        rng = random.Random(20261018)
        for _ in range(20):
            d = random_directive(rng)
            nmax = rng.randrange(161)
            assert zd_max_gap(d, nmax) == brute_zd_max_gap(d, nmax)

    def test_finite_directive_error_matches_oracle(self):
        d = DirectiveSequence.parse("2,2")
        with pytest.raises(ValueError) as oracle:
            brute_zd_max_gap(d, 40)
        with pytest.raises(ValueError) as fast:
            zd_max_gap(d, 40)
        assert str(fast.value) == str(oracle.value)
        # below q_2 = 7 every digit has a bound
        assert zd_max_gap(d, 6) == brute_zd_max_gap(d, 6)


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


def suffix_link_pal_lengths(raw):
    """The full suffix-link DP, without the early exit: dp[i] is one
    plus the least dp[i - |p|] over every palindromic suffix p of
    raw[:i], each read off the eertree."""
    tree = PalindromicTree()
    dp = [0]
    for i, symbol in enumerate(raw, 1):
        tree.add(symbol)
        dp.append(1 + min(dp[i - ell] for ell in suffix_palindrome_lengths(tree)))
    return dp


def traced_peak(function, raw):
    """Peak bytes that tracemalloc sees function(raw) allocate, after a
    warm-up call on a short prefix."""
    function(raw[:100])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        function(raw)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def check_pal_lengths(raw):
    """The one-pass DP row equals the oracle's, and consecutive values
    differ by at most 1 (PL(w) <= PL(wa) + 1, which the exit uses)."""
    dp = _pal_lengths(raw)
    assert dp == suffix_link_pal_lengths(raw)
    assert all(abs(b - a) <= 1 for a, b in zip(dp, dp[1:]))


class TestPalLengthRows:
    def test_every_short_word(self):
        for n in range(13):
            for bits in range(1 << n):
                check_pal_lengths(bytes((bits >> k) & 1 for k in range(n)))

    def test_random_words(self):
        # mostly not rich, so the step that finds its node already in
        # the tree runs too
        rng = random.Random(20261018)
        rich = 0
        for _ in range(200):
            raw = bytes(rng.randrange(2) for _ in range(rng.randrange(301)))
            check_pal_lengths(raw)
            rich += distinct_palindromic_factors(BinaryWord(raw))[1]
        assert rich < 50

    def test_sparse_random_words(self):
        # long runs of 0: long suffix chains and dp values that rise
        # and fall, so the walk's last-position bound moves both ways
        rng = random.Random(20261020)
        for _ in range(150):
            n = rng.randrange(401)
            check_pal_lengths(bytes(rng.random() < 0.1 for _ in range(n)))

    def test_linear_growth(self):
        # PL((001011)^k) grows linearly in k, so the table of last
        # positions grows every few symbols; the row covers every k <= 500
        check_pal_lengths(bytes((0, 0, 1, 0, 1, 1)) * 500)

    @pytest.mark.parametrize(
        "text",
        ["fib", "2,(2)", "1,1,1,1,8,(1)", "0,2,(1,3)", "200,(1)", "1,(50)"],
    )
    def test_characteristic_prefixes(self, text):
        # the last two have long suffix chains, which the bound cuts;
        # _pal_lengths sends these balanced words to the balanced pass
        # only, so the general pass is checked on them here
        d = DirectiveSequence.parse(text)
        raw = characteristic_prefix(d, 5000).raw
        check_pal_lengths(raw)
        assert _general_pal_lengths(raw) == _pal_lengths(raw)

    def test_memory_per_symbol(self):
        # the balanced pass, keyed by length and centre with its dp row
        # in bytes: about 20 bytes per symbol on Python 3.10-3.13
        raw = characteristic_prefix(FIB, 50_000).raw
        assert traced_peak(_pal_lengths, raw) <= 24 * len(raw)

    def test_general_pass_memory_per_symbol(self):
        # the general pass on PalindromicTree: one node per symbol here,
        # each with an id and a length of its own, about 113 bytes per
        # symbol on Python 3.11
        raw = b"\x00" * 65535 + b"\x01" + b"\x00" * 65535
        assert traced_peak(_general_pal_lengths, raw) <= 120 * len(raw)

    def test_words_with_00_and_11_skip_the_balanced_pass(self, monkeypatch):
        # the windows 00 and 11 hold 0 and 2 ones, so such a word is
        # unbalanced and the balanced pass would only refuse it
        def balanced(raw):
            raise AssertionError("the balanced pass ran")

        monkeypatch.setattr(palindromes, "_balanced_pal_lengths", balanced)
        fib = characteristic_prefix(FIB, 2000).raw
        for raw in (
            fib + b"\x01\x01\x01",
            bytes((0, 0, 1, 0, 1, 1)) * 50,
            b"\x00\x00\x01\x01",
        ):
            assert _pal_lengths(raw) == suffix_link_pal_lengths(raw)
        # fib holds 00 but not 11, and the complement 11 but not 00
        for raw in (fib, bytes(1 - a for a in fib)):
            with pytest.raises(AssertionError, match="balanced pass ran"):
                _pal_lengths(raw)


class TestBalancedPalLengths:
    def test_refuses_exactly_the_unbalanced_words(self):
        # short random words are mostly unbalanced, so both outcomes
        # occur often
        rng = random.Random(20261024)
        refused = 0
        for _ in range(4000):
            raw = bytes(rng.randrange(2) for _ in range(rng.randrange(60)))
            dp = _balanced_pal_lengths(raw)
            unbalanced = balance_witness(BinaryWord(raw)) is not None
            assert (dp is None) == unbalanced
            if dp is None:
                refused += 1
            else:
                assert dp == _general_pal_lengths(raw)
        assert 2000 < refused < 3900

    @pytest.mark.parametrize(
        "text", ["fib", "2,(2)", "1,(50)", "0,2,(1,3)", "3,1,(4,1,5)"]
    )
    def test_never_refuses_a_factor(self, text):
        # factors that are not prefixes are balanced but need not be
        # closed under reversal, so palindromes enter in another order
        rng = random.Random(text)
        raw = characteristic_prefix(DirectiveSequence.parse(text), 3000).raw
        for _ in range(300):
            start = rng.randrange(1, 2000)
            factor = raw[start : start + rng.randrange(1, 1000)]
            assert _balanced_pal_lengths(factor) == _general_pal_lengths(factor)


def narrow_bytearray(most, refused):
    """A bytearray whose single-item stores refuse values above most,
    as a bytearray refuses 256 and above; refused collects them."""

    class Narrow(bytearray):
        def __setitem__(self, index, value):
            if isinstance(index, int) and value > most:
                refused.append(value)
                raise ValueError(f"byte must be in range(0, {most + 1})")
            super().__setitem__(index, value)

    return Narrow


class TestBalancedRowPromotion:
    @pytest.mark.parametrize("most", [0, 1, 3, 5])
    def test_row_leaves_bytes_at_the_first_value_past_them(
        self, monkeypatch, most
    ):
        # palindromic lengths of balanced words grow too slowly to reach
        # 256 within a test, so a narrower row drives the promotion
        refused = []
        monkeypatch.setattr(
            palindromes, "bytearray", narrow_bytearray(most, refused),
            raising=False,
        )
        for text in ["fib", "2,(2)"]:
            raw = characteristic_prefix(DirectiveSequence.parse(text), 3000).raw
            assert _balanced_pal_lengths(raw) == _general_pal_lengths(raw)
        # once per word: the promoted row is a list
        assert refused == [most + 1, most + 1]


def walk_steps(function, raw):
    """The suffixes the walk of function, one of the two passes, reads
    after the longest one, counted by tracing the one line that reads
    such a suffix's dp."""
    lines, first = inspect.getsourcelines(function)
    (target,) = [
        first + j
        for j, text in enumerate(lines)
        if text.strip().startswith("value = dp[")
    ]
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == target:
            steps += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is function.__code__ else None

    sys.settrace(calls)
    try:
        function(raw)
    finally:
        sys.settrace(None)
    return steps


class TestPalLengthWalk:
    @pytest.mark.parametrize(
        "text, most",
        [("fib", 4.3), ("2,(2)", 4.4), ("200,(1)", 1.5), ("1,(50)", 12)],
    )
    def test_steps_per_symbol(self, text, most):
        # The walk is deterministic: with the bound by the last position
        # below the minimum it reads 4.17, 4.26, 1.38 and 11.77 suffixes
        # per symbol here.  Up to the floor alone it reads 6.98, 7.41,
        # 102.1 and 47.9; with the bound keyed one dp value too high,
        # 6.31, 6.65, 3.54 and 23.8, or 4.40, 4.46, 1.78 and 11.77 when
        # only the walk's update of the bound is off by one.
        d = DirectiveSequence.parse(text)
        raw = characteristic_prefix(d, 5000).raw
        assert walk_steps(_balanced_pal_lengths, raw) <= most * len(raw)

    def test_general_pass_steps(self):
        # 0^j has j palindromic suffixes, so the chains are long; the
        # general pass's walk reads 0.00 suffixes per symbol here, 499.6
        # without the stop at the last position below the minimum, with
        # or without the floor, and 999.8 without both bounds and the
        # exit at s = 0
        raw = b"\x00" * 2000 + b"\x01" + b"\x00" * 2000
        assert walk_steps(_general_pal_lengths, raw) <= len(raw)


class TestPalLength:
    def test_examples(self):
        assert pal_length(bw("abaabb")) == 3
        assert pal_length(bw("ab")) == 2
        assert pal_length(bw("")) == 0

    def test_one_iff_palindrome(self):
        rng = random.Random(424)
        for _ in range(200):
            n = rng.randrange(1, 15)
            word = BinaryWord(bytes(rng.randrange(2) for _ in range(n)))
            assert (pal_length(word) == 1) == is_palindrome(word)

    def test_matches_brute_force(self):
        rng = random.Random(20260819)
        for _ in range(300):
            n = rng.randrange(15)
            raw = bytes(rng.randrange(2) for _ in range(n))
            assert pal_length(BinaryWord(raw)) == brute_pal_length(raw)

    def test_subadditive(self):
        rng = random.Random(88)
        for _ in range(100):
            u = bytes(rng.randrange(2) for _ in range(rng.randrange(12)))
            v = bytes(rng.randrange(2) for _ in range(rng.randrange(12)))
            assert pal_length(BinaryWord(u + v)) <= pal_length(
                BinaryWord(u)
            ) + pal_length(BinaryWord(v))


class TestProfile:
    def test_first_record(self):
        assert pal_length_profile(FIB, 1) == [(1, 1)]

    def test_fibonacci_golden(self):
        expected = [
            tuple(pair)
            for pair in json.loads((DATA / "fib_profile_records.json").read_text())
        ]
        assert pal_length_profile(FIB, 100_000) == expected

    @pytest.mark.parametrize("text", ["2,(2)", "1,(2)", "0,(1,2)"])
    def test_golden_records(self, text):
        golden = json.loads((DATA / "profile_records.json").read_text())
        expected = [tuple(pair) for pair in golden["records"][text]]
        d = DirectiveSequence.parse(text)
        assert pal_length_profile(d, golden["length"]) == expected

    def test_large_records_extend_the_default_cap(self):
        # tests/check_large_records.py recomputes them in full
        large = json.loads((DATA / "large_records.json").read_text())
        for entry in large["directives"]:
            d = DirectiveSequence.parse(entry["d"])
            stored = [tuple(pair) for pair in entry["records"]]
            assert stored[-1] == (entry["length"], len(stored))
            assert pal_length_profile(d, 200_000) == [
                pair for pair in stored if pair[0] <= 200_000
            ]

    def test_record_structure(self):
        inc = DirectiveSequence.parse("1,2,3,4,5,6,7,8,(9)")
        records = pal_length_profile(inc, 20_000)
        positions = [pos for pos, _ in records]
        values = [val for _, val in records]
        assert positions == sorted(set(positions))
        assert values == list(range(1, len(values) + 1))
        assert values[-1] >= 4

    def test_profile_matches_direct_dp(self):
        raw = characteristic_prefix(FIB, 300)
        records = dict(pal_length_profile(FIB, 300))
        best = 0
        for i in range(1, 301):
            value = pal_length(raw[:i])
            if value > best:
                best = value
                assert records[i] == value

    def test_validation_and_cap(self):
        with pytest.raises(ValueError):
            pal_length_profile(FIB, 0)
        with pytest.raises(CapExceededError):
            pal_length_profile(FIB, 300_000)


class TestHardPrefix:
    def test_zero_budget(self):
        assert construct_hard_prefix(FIB, 0) == 1

    def test_budget_one(self):
        d = DirectiveSequence.parse("8,8,1,(1)")
        n = construct_hard_prefix(d, 1)
        assert n == 40
        assert pal_length(characteristic_prefix(d, n)) == 2

    def test_budget_two(self):
        d = DirectiveSequence.parse("14,14,14,(1)")
        n = construct_hard_prefix(d, 2)
        assert n == 1589
        assert pal_length(characteristic_prefix(d, n)) == 3

    def test_small_digits_rejected(self):
        with pytest.raises(ValueError):
            construct_hard_prefix(FIB, 1)
        with pytest.raises(ValueError):
            construct_hard_prefix(FIB, -1)

    def test_small_period_refused_after_the_explicit_digits(self, monkeypatch):
        # a period with no digit of at least 6Q + 2 never helps, so a
        # huge budget is refused without reading past the explicit digits
        read = []
        digit = DirectiveSequence.digit

        def spy(d, i):
            read.append(i)
            assert len(read) < 100, "read far past the first period"
            return digit(d, i)

        monkeypatch.setattr(DirectiveSequence, "digit", spy)
        with pytest.raises(ValueError) as info:
            construct_hard_prefix(FIB, 10**9)
        assert str(info.value) == (
            "needs 1000000001 directive digits of size at least "
            "6000000002, found 0"
        )
        assert max(read) < len(FIB.explicit)
        read.clear()
        d = DirectiveSequence.parse("20,20,(13)")
        with pytest.raises(ValueError) as info:
            construct_hard_prefix(d, 2)
        assert str(info.value) == (
            "needs 3 directive digits of size at least 14, found 2"
        )
        assert max(read) < len(d.explicit)

    def test_large_period_digits(self):
        # every period holds one large digit, so Q + 1 periods suffice
        d = DirectiveSequence.parse("0,(1,14)")
        assert construct_hard_prefix(d, 2) == 7 * (d.q(2) + d.q(4) + d.q(6))


class TestStartingAt:
    def test_basic(self):
        w = bw("aabaa")
        assert palindromes_starting_at(w, 0, 5) == [1, 2, 5]
        assert palindromes_starting_at(w, 1, 3) == [1, 3]
        assert palindromes_starting_at(w, 2, 5) == [1]

    def test_position_validation(self):
        with pytest.raises(ValueError):
            palindromes_starting_at(bw("ab"), 2, 1)
        with pytest.raises(ValueError):
            palindromes_starting_at(bw("ab"), -1, 1)

    def test_logarithmic_density(self):
        # with the empty word added, at most 2 + log_{4/3} maxlen
        # palindromes can begin at any one position
        import math

        maxlen = 100
        bound = 2 + math.log(maxlen) / math.log(4 / 3)
        w = characteristic_prefix(FIB, 2000)
        for i in range(len(w)):
            lengths = palindromes_starting_at(w, i, maxlen)
            assert len(lengths) + 1 <= bound
            for shorter, longer in zip(lengths, lengths[1:]):
                assert 3 * longer > 4 * shorter

    def test_nested_pair_periodicity(self):
        # two palindromes at one position force the longer one to be
        # periodic with period equal to the length difference
        raw = characteristic_prefix(FIB, 400).raw
        w = BinaryWord(raw)
        rng = random.Random(2024)
        for _ in range(60):
            i = rng.randrange(300)
            lengths = palindromes_starting_at(w, i, 100)
            for shorter, longer in zip(lengths, lengths[1:]):
                period = longer - shorter
                assert all(
                    raw[i + k] == raw[i + k + period]
                    for k in range(longer - period)
                )
