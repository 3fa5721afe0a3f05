"""Palindromic structure of characteristic words.

Covers palindromic factor counts, richness, central words, maximal
palindromic extensions, the occurrence-witness verifier (the
canonical digit vector of every palindromic occurrence's start,
mirrored around a pivot fixed by the occurrence's maximal extension,
is a valid vector of its end), digit distances and their
gaps, palindromic length via an eertree, and the hard-prefix
construction that forces the palindromic length up.

occurrence_witness checks one occurrence, each whole mirror through
is_valid; occurrence_witnesses, the batch behind `verify tpr`, yields
the same records for every occurrence up to a bound from one Manacher
pass.  The batch applies the witness rule inline: it reads a per-p1
table of digits, prefix sums and digit strings, and walks each mirror
off the valid-digit DAG's run table in its own loop (see
_witness_stream).

pal_length, pal_length_profile and `verify hard-prefix` share one
palindromic-length DP, _pal_lengths: a walk down the suffix links of
each prefix's longest palindromic suffix that stops at two proved
bounds.  In a balanced word a palindrome is fixed by its length and
centre, so the balanced pass inlines its own eertree that names each
node by those two and keeps one list of suffix-link deltas, with no
length or child lists; it holds its dp row in bytes and returns None
on an unbalanced word.  pal_length_profile runs only that pass, since a
characteristic prefix is balanced, and reports a refusal as a
TheoremViolationError; pal_length sends a word with both 00 and 11 as
factors straight to the general pass, which walks the nodes of a
PalindromicTree, and falls back to it on a refusal.
pal_length_profile(fib, 200_000), the default cap, takes 0.19 s and
10**6 symbols 1.17 s, at about 20 bytes per symbol (medians of 7
fresh-process runs on a shared 2-vCPU VM with Python 3.11.7); the
general pass takes 53-113 bytes per symbol on 131,071-symbol words.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import accumulate
from operator import mul, sub
from typing import NamedTuple

from ._record import _Record, _setfield
from .errors import CapExceededError, TheoremViolationError
from .ostrowski import (
    DEFAULT_ENUM_CAP,
    _ValidDigitDag,
    OstrowskiRep,
    _digit_string,
    _greedy_digits,
    _greedy_digits_below,
    _render,
    enumerate_valid_reps,
    is_valid,
    rep_sort_key,
)
from .words import (
    DEFAULT_RECURRENCE_CAP,
    BinaryWord,
    DirectiveSequence,
    PalindromicTree,
    _recurrence_length,
    _recurrence_prefix,
    _top_level,
    characteristic_prefix,
    standard_words,
)

__all__ = [
    "is_palindrome",
    "PalindromicTree",
    "palindrome_factor_count",
    "palindrome_factor_counts",
    "distinct_palindromic_factors",
    "central_word",
    "PalindromeOccurrence",
    "maximal_palindromic_extension",
    "OccurrenceWitness",
    "occurrence_witness",
    "occurrence_witnesses",
    "z_vector",
    "ZdGapWitness",
    "zd_max_gap",
    "pal_length",
    "pal_length_profile",
    "construct_hard_prefix",
    "palindromes_starting_at",
    "DEFAULT_PROFILE_CAP",
]

DEFAULT_PROFILE_CAP = 200_000
_DIGITS = "0123456789"


def is_palindrome(w: BinaryWord) -> bool:
    raw = w.raw
    return raw == raw[::-1]


def _length_counts(raw: bytes, nmax: int) -> list[int]:
    """Entry n <= nmax: the number of distinct palindromic factors of
    length n of raw (entry 0 counts the empty word), read as the
    histogram of node lengths of its eertree."""
    sizes = Counter(PalindromicTree(BinaryWord._from_raw(raw))._len)
    return [sizes[n] for n in range(nmax + 1)]


def palindrome_factor_count(
    d: DirectiveSequence, n: int, cap: int = DEFAULT_RECURRENCE_CAP
) -> int:
    """h(n): distinct palindromic factors of length n of the
    characteristic word.

    Its prefix of length R(n) = n + q_{k+1} + q_k - 1, q_k <= n < q_{k+1},
    holds every length-n factor (see words._recurrence_length), and the
    eertree of that prefix has one node per distinct palindromic factor,
    so h(n) is the number of its nodes of length n: O(R(n)) work.
    CapExceededError when R(n) exceeds the cap."""
    if n < 1:
        raise ValueError("factor length must be at least 1")
    return _length_counts(d._characteristic(_recurrence_length(d, n, cap)), n)[n]


def palindrome_factor_counts(
    d: DirectiveSequence, nmax: int, cap: int = DEFAULT_RECURRENCE_CAP
) -> list[int]:
    """[h(0), h(1), ..., h(nmax)], h(0) = 1, from one eertree: R increases
    with n, so the prefix of length R(nmax) holds every factor of length
    n <= nmax.  When some n <= nmax cannot be read (R(n) above the cap,
    or past the end of a finite word), it raises the error that
    palindrome_factor_count raises for the least such n."""
    if nmax < 1:
        raise ValueError("factor length must be at least 1")
    return _length_counts(_recurrence_prefix(d, nmax, cap), nmax)


def distinct_palindromic_factors(u: BinaryWord) -> tuple[int, bool]:
    """(P(u), is_rich) where P counts distinct palindromic factors
    including the empty one, and rich means P(u) = |u| + 1."""
    tree = PalindromicTree(u)
    count = tree.distinct_count + 1
    return count, count == len(u) + 1


def central_word(d: DirectiveSequence, n: int, j: int = 0) -> BinaryWord:
    """c_{n,j} = s_n^j c_n, where c_n is s_n s_{n-1} with its last two
    letters removed.  Requires 0 <= j <= d_n."""
    if n < 0:
        raise ValueError("central word index must be nonnegative")
    try:
        bound = d.digit(n)
    except IndexError:
        raise ValueError(
            f"directive sequence has no digit at index {n}"
        ) from None
    if not 0 <= j <= bound:
        raise ValueError(f"repetition count must lie in [0, {bound}], got {j}")
    words = standard_words(d, n)
    s_n = words[n + 1].raw
    s_prev = words[n].raw
    return BinaryWord._from_raw(s_n * j + (s_n + s_prev)[:-2])


class PalindromeOccurrence(_Record):
    """A factor occurrence (p1..p2] of the characteristic word of d,
    with 1-based content: the factor is symbols p1+1 through p2."""

    _fields = ("d", "p1", "p2")

    def __init__(self, d: DirectiveSequence, p1: int, p2: int):
        if not 0 <= p1 <= p2:
            raise ValueError("positions must satisfy 0 <= p1 <= p2")
        _setfield(self, "d", d)
        _setfield(self, "p1", p1)
        _setfield(self, "p2", p2)

    def factor(self) -> BinaryWord:
        return characteristic_prefix(self.d, self.p2)[self.p1 : self.p2]

    def is_palindromic(self) -> bool:
        return is_palindrome(self.factor())


def maximal_palindromic_extension(
    occ: PalindromeOccurrence,
) -> PalindromeOccurrence:
    """Widen (p1..p2] one symbol on each side while the factor stays a
    palindrome and p1 stays nonnegative.

    Reads at most p1 + p2 symbols, and never past the end of a finite
    word; ValueError if the widening reaches that end with p1 > 0,
    where the next symbol would decide it.
    """
    if not occ.is_palindromic():
        raise ValueError("occurrence is not palindromic")
    p1, p2 = occ.p1, occ.p2
    raw = characteristic_prefix(occ.d, _extension_reach(occ.d, p1 + p2)).raw
    end = len(raw)
    while p1 >= 1 and p2 < end and raw[p1 - 1] == raw[p2]:
        p1 -= 1
        p2 += 1
    if p1 and p2 == end:
        raise _cut_error(occ.p1, occ.p2, end)
    return PalindromeOccurrence(occ.d, p1, p2)


def _extension_reach(d: DirectiveSequence, length: int) -> int:
    """length, or the whole word of a finite sequence if shorter."""
    if d.is_finite:
        return min(length, d.q(len(d.explicit)))
    return length


def _cut_error(p1: int, p2: int, end: int) -> ValueError:
    return ValueError(
        f"directive sequence too short to extend ({p1}..{p2}]: its "
        f"maximal extension reaches the end of the word at {end}"
    )


def _central_levels(d: DirectiveSequence, bound: int) -> dict[int, int]:
    """{|c_{m,j}|: m} over the central words c_{m,j} with j >= 1 shorter
    than bound.

    Per level m the lengths (j+1) q_m + q_{m-1} - 2 for 1 <= j <= d_m
    fill an arithmetic progression of step q_m, which ends below the
    next level's first length 2 q_{m+1} + q_m - 2, so each length has at
    most one (m, j).  Level m adds fewer than bound / q_m lengths, so the
    table has O(bound) entries however large a digit is.
    """
    levels: dict[int, int] = {}
    for m in range(_top_level(d, bound) + 1):
        try:
            top = d.digit(m)
        except IndexError:  # past the end of a finite word
            break
        q_m, q_prev = d.q(m), d.q(m - 1)
        stop = min((top + 1) * q_m + q_prev - 1, bound)
        for length in range(2 * q_m + q_prev - 2, stop, q_m):
            levels[length] = m
    return levels


class OccurrenceWitness(_Record):
    """Digit-level witness for a palindromic occurrence (p1..p2]:
    the canonical vector of p1, whose mirrored completion (complement
    digits below the pivot m, pivot digit y_m, unchanged digits above)
    is a valid vector for p2.  fallback_used marks a pivot two levels
    below the maximal extension's (see occurrence_witness)."""

    _fields = ("p1", "p2", "rep_p1", "m", "y_m", "rep_p2", "fallback_used")

    def __init__(
        self, p1: int, p2: int, rep_p1: OstrowskiRep, m: int, y_m: int,
        rep_p2: OstrowskiRep, fallback_used: bool,
    ):
        _setfield(self, "p1", p1)
        _setfield(self, "p2", p2)
        _setfield(self, "rep_p1", rep_p1)
        _setfield(self, "m", m)
        _setfield(self, "y_m", y_m)
        _setfield(self, "rep_p2", rep_p2)
        _setfield(self, "fallback_used", fallback_used)

    def to_record(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "rep_p1": self.rep_p1.render(),
            "m": self.m,
            "y_m": self.y_m,
            "rep_p2": self.rep_p2.render(),
            "fallback_used": self.fallback_used,
        }


class _DigitTable(NamedTuple):
    """What the witness rule and the batch read of p1, built once per
    p1: its canonical digits xs (least significant first), the prefix
    sums sums[p] = sum_{i<p} x_i q_i (p1 from len(xs) on), the
    complement digits comp[i] = d_i - x_i, xs rendered, and x's top
    level top = len(xs) - 1.

    The rest is what a mirror's rendering is cut from.  wide_x is the
    level of x's highest digit of 10 or more (-1 if none is) and high
    x's digits above it; wide_c is the level of the lowest complement
    digit of 10 or more (len(comp) if none is) and low the complement
    digits below it; both strings are most significant first.  So at a
    pivot p with wide_x <= p <= wide_c and y < 10, the mirror renders as
    high[:top - p], then y, then low[wide_c - p:] (see _witness_stream).
    """

    xs: tuple[int, ...]
    sums: list[int]
    comp: list[int]
    rendered: str
    top: int
    high: str
    low: str
    wide_x: int
    wide_c: int


def _digit_table(xs: tuple[int, ...], qs, ds) -> _DigitTable:
    """The table of p1 from its canonical digits xs; qs holds q_i for
    every level a pivot reads and at least up to p1's top digit, and ds
    holds d_i below every pivot."""
    sums = _prefix_sums(xs, qs)
    sums += sums[-1:] * (len(qs) + 1 - len(sums))
    comp = list(map(sub, ds, xs))
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
    return _DigitTable(xs, sums, comp, rendered, top, high, low, wide_x,
                       wide_c)


def _prefix_sums(digits, qs) -> list[int]:
    """[S_0, ..., S_n] with S_p = sum_{i<p} k_i q_i over the n digits."""
    return list(accumulate(map(mul, digits, qs), initial=0))


def occurrence_witness(occ: PalindromeOccurrence) -> OccurrenceWitness:
    """Witness for a palindromic occurrence (p1..p2]: the canonical
    vector x = encode(p1), mirrored at pivot m or m - 2, where c_{m,j}
    is the occurrence's maximal extension (see _central_levels).

    At pivot p the mirror keeps x_i above p and takes d_i - x_i below
    it, so decode(mirror) = p2 forces
    y_p = (p2 - sum_{i>p} x_i q_i - sum_{i<p} (d_i - x_i) q_i) / q_p,
    which must be exact and >= 0; the mirror must then be valid.
    Pivot m is tried first.

    Pivot m - 2 is taken, and reported as fallback_used, where pivot m
    asks for y_m = -1: one copy of s_m too many.  There x_{m-1} = x_m
    = 0, so the pivot-m mirror has digit d_{m-1} at m - 1, and
    s_m = s_{m-1}^{d_{m-1}} s_{m-2} pays the missing s_m with those
    d_{m-1} copies of s_{m-1} and one s_{m-2}: digits m - 1 and m drop
    to 0 and digit m - 2 becomes d_{m-2} - x_{m-2} - 1, which is the
    pivot m - 2 mirror of the same x.  The derivation is not complete:
    that pivot m fails only with y_m = -1, x_{m-1} = x_m = 0 and
    x_{m-2} < d_{m-2}, and that the traded mirror is then valid, is
    measured, not proved.  It holds for all 439,198 occurrences of fib,
    2,(2) and 1,1,1,1,8,(1) up to p2 = 2000, of eight more directives
    up to 600, of 120 seeded random directives up to 300 and of seven
    finite ones; 4,608 of them take pivot m - 2.  So validity stays a
    check, and an occurrence neither pivot covers raises
    TheoremViolationError instead of passing.
    """
    if occ.p1 == occ.p2:
        raise ValueError("empty occurrences carry no witness")
    if not occ.is_palindromic():
        raise ValueError("occurrence is not palindromic")
    d, p1, p2 = occ.d, occ.p1, occ.p2
    ext = maximal_palindromic_extension(occ)
    length = ext.p2 - ext.p1
    m = _central_levels(d, length + 1).get(length)
    qs = [d.q(i) for i in range(max(_top_level(d, p1), m or 0) + 1)]
    ds = [d.digit(i) for i in range(m or 0)]
    table = _digit_table(tuple(_greedy_digits(p1, qs)), qs, ds)
    xs, sums, comp = table.xs, table.sums, table.comp
    dsums = _prefix_sums(ds, qs)
    # the mirror at p decodes to (D_p - X_p) + y q_p + (p1 - X_{p+1}),
    # D_p = dsums[p] and X_p = sums[p]: y costs one division
    for pivot in () if m is None else (m, m - 2):
        if pivot < 0:
            break
        rest = p2 - dsums[pivot] + sums[pivot] - p1 + sums[pivot + 1]
        y, rem = divmod(rest, qs[pivot])
        if rem == 0 and y >= 0:
            # the whole mirror, x's digits above the pivot included
            rep_p2 = OstrowskiRep(d, (*comp[:pivot], y, *xs[pivot + 1 :]))
            if is_valid(rep_p2):
                return OccurrenceWitness(p1, p2, OstrowskiRep(d, xs), pivot,
                                         y, rep_p2, pivot != m)
    raise TheoremViolationError(
        f"no witness exists for palindromic occurrence ({p1}..{p2}]"
    )


def occurrence_witnesses(d: DirectiveSequence, pmax: int):
    """Yield the record of every palindromic occurrence (p1..p2] with
    p2 <= pmax, ordered by p2, then p1: the witness's to_record(), or
    {"p1", "p2", "status": "FAIL"} where occurrence_witness would raise
    TheoremViolationError.  Each is read back from its text line (see
    _witness_lines), its keys put back in to_record()'s order."""
    keys = ("p1", "p2", "rep_p1", "m", "y_m", "rep_p2", "fallback_used",
            "status")
    for lines in _witness_lines(d, pmax)[0]:
        for record in map(json.loads, lines):
            yield {key: record[key] for key in keys if key in record}


def _witness_lines(d: DirectiveSequence, pmax: int, as_csv: bool = False):
    """The lines `verify tpr` prints for the records of
    occurrence_witnesses, as (chunks, tally): chunks yields lists of
    4096 lines (the last may hold fewer), and tally holds
    [occurrences, fallbacks, failures] once chunks is spent.  A line is
    the record's csv row, or json.dumps(record, sort_keys=True), which
    is both the text line and the json array entry; renderings hold
    only digits and dots, so nothing needs escaping.

    One Manacher pass ("A new linear-time on-line algorithm for finding
    the smallest initial palindrome of a string", J. ACM 1975) over the
    prefix of length 2 pmax gives the longest palindrome at every
    centre p1 + p2.  The palindromes at one centre are nested, so the
    occurrences there are the (p1..p2] with p1 at least the longest
    one's start; and since that prefix holds p1 + p2 symbols, the
    longest one is the maximal extension (the left edge stops it
    first).  So the work is O(pmax + occurrences): the lengths of the
    central words below 2 pmax are tabled once (_central_levels), each
    centre reads its level there once, and what the witness rule reads
    of p1 (its _DigitTable, renderings included) is built once per p1,
    from canonical digits derived from a shorter start's
    (_greedy_digits_below).

    Validity is read off the run table of the valid-digit DAG.  The
    canonical vector x of p1 is walked once, before its table is built;
    a mirror keeps x's digits above its pivot, so it is walked only
    from its pivot down, straight from the table's complement digits,
    inline in the loop over the records.  Every record of a p1 whose x
    fails that walk is a FAIL.  A record then costs one division for
    y, that walk, the join of three strings cut from the table (x's
    digits above the pivot, y, the complement digits below it) and one
    f-string.  Only a mirror with a digit of 10 or more is rendered
    digit by digit.  Nothing else is built per record.  On a finite
    directive at most the whole word is read; ValueError, before
    anything is returned, if an occurrence's maximal extension reaches
    its end with p1 > 0.
    """
    if pmax < 1:
        raise ValueError("the occurrence bound must be positive")
    end = _extension_reach(d, 2 * pmax)
    # (a finite word shorter than pmax raises here)
    raw = characteristic_prefix(d, max(end, pmax)).raw
    # Manacher over raw with a separator (2) around every symbol: the
    # centre of (p1..p2] is p1 + p2 and its radius p2 - p1.
    t = bytearray(b"\x02") * (2 * end + 1)
    t[1::2] = raw
    top = len(t) - 1
    rad = [0] * (2 * pmax)
    mid = right = 0  # the palindrome reaching furthest right so far
    for i in range(1, 2 * pmax):
        k = min(rad[2 * mid - i], right - i) if i < right else 0
        while k < i and i + k < top and t[i - k - 1] == t[i + k + 1]:
            k += 1
        rad[i] = k
        if i + k > right:
            mid, right = i, i + k
    starts: list[list[int]] = [[] for _ in range(pmax + 1)]  # by p2
    levels = _central_levels(d, 2 * pmax)  # rad[c] < 2 pmax
    level: list[int | None] = [None] * (2 * pmax)  # m by centre
    cut = None  # the first (p2, p1) whose extension the word's end cuts
    for c in range(1, 2 * pmax):
        lo = (c - rad[c]) // 2
        first, last = max(lo, c - pmax), (c - 1) // 2
        if first > last:
            continue
        if lo and c + rad[c] == top:
            here = (c - last, last)  # its innermost occurrence
            cut = here if cut is None else min(cut, here)
            continue
        level[c] = levels.get(rad[c])
        for p1 in range(first, last + 1):
            starts[c - p1].append(p1)
    if cut is not None:
        raise _cut_error(cut[1], cut[0], end)
    # The DAG's levels cover every level read: x has at most len(qs)
    # digits, q_m <= pmax since 2 q_m - 1 <= |c_{m,j}| < 2 pmax, and the
    # mirror reads d_i only below m.
    dag = _ValidDigitDag(d, pmax)
    qs = dag.qs
    ds = [d.digit(i) for i in range(len(qs) - 1)]
    # by p1 < pmax; None where x is not a path of the DAG
    tables = [_digit_table(xs, qs, ds) if dag.valid(xs) else None
              for xs in _greedy_digits_below(pmax, qs)]
    tally = [0, 0, 0]
    chunks = _witness_stream(starts, level, tables, qs, _prefix_sums(ds, qs),
                             dag.runs, as_csv, tally)
    return chunks, tally


def _witness_stream(starts, level, tables, qs, dsums, runs, as_csv, tally):
    """The chunks of _witness_lines, from its occurrences by p2 and the
    level, tables and run table it built: the witness rule of
    occurrence_witness, with each mirror walked off the run table from
    its pivot down in the loop itself."""
    lines = []
    fallbacks = failures = 0
    for p2, p1s in enumerate(starts):
        for p1 in p1s:
            table, m = tables[p1], level[p1 + p2]
            pivot = -1
            if table is not None and m is not None:
                xs, sums, comp, rendered, top, high, low, wide_x, wide_c = table
                for pivot in (m, m - 2):
                    if pivot < 0:
                        break
                    # x's digits above the pivot end at pos
                    pos = p1 - sums[pivot + 1]
                    q = qs[pivot]
                    y, rem = divmod(p2 - dsums[pivot] + sums[pivot] - pos, q)
                    if rem or y < 0 or y > runs[pivot][pos]:
                        continue
                    pos += y * q
                    for i in range(pivot - 1, -1, -1):
                        k = comp[i]
                        if k:
                            if k > runs[i][pos]:
                                break
                            pos += k * qs[i]
                    else:  # every digit fits: the witness is at this pivot
                        break
                else:  # neither pivot
                    pivot = -1
            if pivot < 0:
                failures += 1
                lines.append(f"{p1},{p2},,-1,-1,,false,FAIL" if as_csv else
                             f'{{"p1": {p1}, "p2": {p2}, "status": "FAIL"}}')
                continue
            if y < 10 and wide_x <= pivot <= wide_c:
                below = low[wide_c - pivot :]
                if pivot < top:  # led by x's top digit, which is not 0
                    rep = high[: top - pivot] + _DIGITS[y] + below
                else:
                    rep = (_DIGITS[y] + below).lstrip("0") or "0"
            else:
                rep = _render((*comp[:pivot], y, *xs[pivot + 1 :]))
            fallbacks += pivot != m
            flag = "false" if pivot == m else "true"
            lines.append(
                f"{p1},{p2},{rendered},{pivot},{y},{rep},{flag},ok" if as_csv
                else f'{{"fallback_used": {flag}, "m": {pivot}, "p1": {p1}, '
                f'"p2": {p2}, "rep_p1": "{rendered}", "rep_p2": "{rep}", '
                f'"y_m": {y}}}')
        while len(lines) >= 4096:  # chunks of one size reuse their memory
            tally[0] += 4096
            yield lines[:4096]
            del lines[:4096]
    tally[0] += len(lines)
    tally[1:] = fallbacks, failures
    if lines:
        yield lines


def z_vector(rep: OstrowskiRep) -> tuple[int, ...]:
    """Per-digit distance to the nearer of 0 and d_i:
    z_i = min(x_i, |d_i - x_i|)."""
    out = []
    for i, k in enumerate(rep.digits):
        try:
            di = rep.d.digit(i)
        except IndexError:
            raise ValueError(
                f"digit {i} has no directive bound to measure against"
            ) from None
        out.append(min(k, abs(di - k)))
    return tuple(out)


class ZdGapWitness(_Record):
    """Two valid vectors of the same integer whose z-distances differ
    by the reported maximum at the given digit."""

    _fields = ("n", "digit_index", "rep_a", "rep_b")

    def __init__(
        self, n: int, digit_index: int, rep_a: OstrowskiRep, rep_b: OstrowskiRep
    ):
        _setfield(self, "n", n)
        _setfield(self, "digit_index", digit_index)
        _setfield(self, "rep_a", rep_a)
        _setfield(self, "rep_b", rep_b)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "digit_index": self.digit_index,
            "rep_a": self.rep_a.render(),
            "rep_b": self.rep_b.render(),
        }


def zd_max_gap(
    d: DirectiveSequence, nmax: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, ZdGapWitness | None]:
    """Maximum over N <= nmax, over pairs of valid vectors of N and
    digit positions, of the z-distance gap |z_i(r1) - z_i(r2)|.

    One pass over the valid-digit DAG up to nmax serves every N: at
    digit i, the end bitsets of the edges with z_i = v, taken from the
    nodes the root reaches, OR into a mask whose set bits are the N
    with a valid vector having z_i = v.  The gap is the largest
    v2 - v1 whose masks meet, and only the smallest N where it occurs
    is enumerated, for the witness: the first pair of its vectors in
    rep_sort_key order, at the first digit, that shows the gap.
    """
    if nmax < 0:
        raise ValueError("the search bound must be nonnegative")
    if nmax > cap:
        raise CapExceededError(
            f"z-distance search is capped at {cap}, got {nmax}"
        )
    # z_i needs d_i, and the first N with a vector using the digit past
    # a finite directive is that digit's q.
    if d.is_finite:
        last = len(d.explicit)
        if d.q(last) <= nmax:
            raise ValueError(
                f"digit {last} has no directive bound to measure against"
            )
    dag = _ValidDigitDag(d, nmax)
    reach = dag.forward()
    best, first = 0, None
    for i, ends in enumerate(dag.below(-1)):  # -1 keeps every N
        di, q, run = d.digit(i), dag.qs[i], dag.runs[i]
        masks: dict[int, int] = {}
        for pos in reach[i]:
            for k in range(run[pos] + 1):
                v = min(k, abs(di - k))
                masks[v] = masks.get(v, 0) | ends[pos + k * q]
        values = sorted(masks)
        for a, v1 in enumerate(values):
            for v2 in values[a + 1 :]:
                both = masks[v1] & masks[v2]
                if both and v2 - v1 >= best:
                    n = (both & -both).bit_length() - 1
                    if v2 - v1 > best or n < first:
                        best, first = v2 - v1, n
    if best == 0:
        return 0, None
    reps = sorted(enumerate_valid_reps(first, d, cap=cap), key=rep_sort_key)
    zs = [z_vector(r) for r in reps]
    for a, za in enumerate(zs):
        for b in range(a + 1, len(reps)):
            zb = zs[b]
            for i in range(max(len(za), len(zb))):
                va = za[i] if i < len(za) else 0
                vb = zb[i] if i < len(zb) else 0
                if abs(va - vb) == best:
                    return best, ZdGapWitness(first, i, reps[a], reps[b])
    raise AssertionError("the gap's smallest N has no pair showing it")


def _pal_lengths(raw: bytes) -> list[int]:
    """dp[i] = palindromic length of raw[:i], for i = 0..len(raw): the
    balanced pass, or the general pass where it refuses raw.  A word
    with both 00 and 11 as factors is unbalanced (those windows hold 0
    and 2 ones), so it goes to the general pass at once."""
    if b"\x00\x00" in raw and b"\x01\x01" in raw:
        return _general_pal_lengths(raw)
    dp = _balanced_pal_lengths(raw)
    return _general_pal_lengths(raw) if dp is None else dp


def _balanced_pal_lengths(raw: bytes) -> list[int] | None:
    """_general_pal_lengths for a balanced word, or None if raw is
    unbalanced.

    In a balanced word two palindromes of the same length and centre
    are equal: otherwise their longest common central palindrome u has
    both 0u0 and 1u1 as factors (Lothaire, Prop. 2.1.3).  A palindrome
    of length L and centre c (the middle symbol, 0 when L is even) is
    therefore named by its key 2(L + 1) + c, and the eertree needs no
    length list and no child lists.  The roots are keys 0 (length -1)
    and 2 (length 0); L + 1 is key // 2; the child a p a of p is key
    p + 4, or 4 + a from the root of length -1.  back[key] is key minus
    the key of the longest proper palindromic suffix.  These deltas
    come from a few periods, so one small dict shares their int
    objects, and no int object is made per node.  Each delta but the
    unused back[0] is positive, so back[key] is 0 exactly when no
    palindrome has that key yet.

    A balanced word is rich (a factor of a Sturmian word, and those are
    rich), so each symbol's longest palindromic suffix is new and its
    key is free.  A taken key means a palindrome that is not new (the
    word is not rich) or a second palindrome of that length and centre;
    either way the word is unbalanced.  Conversely, an unbalanced word
    that is rich has factors a u a and b u b, and the later of them is a
    new longest palindromic suffix whose key the other holds.  So the
    pass returns None exactly when raw is unbalanced.

    Where the symbol before the link s of the parent p matches as well,
    the new node's link is a s a, and its delta is p's own, back[p]; on
    a characteristic prefix nearly every step takes that branch, which
    reads no dict.

    Positions are doubled: step i (1-based) runs at k = 2i + 2, the
    symbol raw[j] sits at slots 2j + 3 and 2j + 4 of word, and dp[j] at
    slots 2j - 1 and 2j of dp (dp[0] at slot 0 and at slot -1, the
    unwritten last one).  Slot k - key then holds dp[i - L] for either
    centre, so the walk needs no shift.
    The walk reads the same suffixes as the general pass, with the same
    two bounds, and last[v] holds the even slot of the last dp v.

    dp is a bytearray: fib first needs 13 palindromes at 31,622,993
    symbols.  A palindromic length of 256 or more makes the store raise
    ValueError, and the row becomes a list there, so the pass is exact on
    every word.  At the end word and back are freed, the odd slots are
    dropped in place, and the row is returned as a list.  About 20 bytes
    per symbol: one list of 2n pointers (back) and 2n bytes each of word
    and dp.
    """
    n = len(raw)
    word = bytearray(2 * n + 3)
    word[:3] = b"\x02\x02\x02"
    word[3::2] = raw
    word[4::2] = raw
    back = [0] * (2 * n + 4)
    back[2] = 2
    deltas = {}
    dp = bytearray(2 * n + 2)
    last = [0]  # dp[0] = 0, the empty prefix
    top = 1  # len(last)
    node = 2
    prev = 0  # dp[i - 1]
    for k, symbol in zip(range(4, 2 * n + 3, 2), raw):
        while word[k - node] != symbol:
            node -= back[node]
        key = node + 4 if node else 4 + symbol
        if back[key]:
            return None
        delta = back[node]
        suffix = node - delta  # 0 at either root
        if suffix and word[k - suffix] == symbol:
            # the link of a p a is a s a for the link s of p: the same
            # delta
            back[key] = delta
            suffix += 4
        else:
            if node:
                while word[k - suffix] != symbol:
                    suffix -= back[suffix]
                suffix = suffix + 4 if suffix else 4 + symbol
            else:
                suffix = 2
            delta = key - suffix
            back[key] = deltas.setdefault(delta, delta)
        node = key
        short = dp[k - key]
        if short > prev:
            short = prev
        if suffix > 2 and short > prev - 2 and short:
            stop = k - last[short - 1]
            while suffix >= stop:
                value = dp[k - suffix]
                if value < short:
                    short = value
                    if short == prev - 2:
                        break
                    stop = k - last[short - 1]
                suffix -= back[suffix]
        prev = short = short + 1
        try:
            dp[k - 3] = dp[k - 2] = short
        except ValueError:  # a palindromic length above 255
            dp = list(dp)
            dp[k - 3] = dp[k - 2] = short
        if short < top:
            last[short] = k - 2
        else:
            last.append(k - 2)
            top += 1
    del word, back  # before the list, which holds n + 1 pointers
    del dp[1::2]
    return list(dp)


def _general_pal_lengths(raw: bytes) -> list[int]:
    """dp[i] = palindromic length of raw[:i], for i = 0..len(raw), for
    any binary word.

    A PalindromicTree takes the whole word and lists the node of each
    prefix's longest palindromic suffix.  dp[i] is then one plus the
    least dp[i - |p|] over the palindromic suffixes p of raw[:i], read
    off the suffix links from the longest.  The walk keeps s, the least
    dp read so far, with the one-symbol suffix counted from the start,
    so s <= dp[i - 1].  Two bounds stop it:

    - The floor dp[i - 1] - 2: PL(w) <= PL(wa) + 1.  The last palindrome
      of wa is a or a u a, so w needs at most one palindrome more.
    - The last position below s.  PL(wa) <= PL(w) + 1 as well, so dp
      moves by at most 1 per symbol, and last[v], the last position so
      far whose dp is v, is the last position with dp < v + 1.  A
      suffix lowers s only if it starts at or before last[s - 1], so the
      walk stops at lengths below i - last[s - 1].  At s = 0 the whole
      prefix is a palindrome, and nothing is lower.

    Both are checked only when the longest palindromic suffix has a
    next one, that is when its suffix link is not a root; otherwise it
    is the one-symbol suffix and dp[i] = dp[i - 1] + 1.
    """
    tree = PalindromicTree()
    ends = []
    tree._feed(raw, ends)
    length, link = tree._len, tree._link
    dp = [0]
    last = [0]  # dp[0] = 0, the empty prefix
    top = 1  # len(last)
    prev = 0  # dp[i - 1]
    for i, node in enumerate(ends, 1):
        short = dp[i - length[node]]
        if short > prev:
            short = prev
        suffix = link[node]
        if suffix > 1 and short > prev - 2 and short:
            stop = i - last[short - 1]
            ell = length[suffix]
            while ell >= stop:
                value = dp[i - ell]
                if value < short:
                    short = value
                    if short == prev - 2:
                        break
                    stop = i - last[short - 1]
                suffix = link[suffix]
                ell = length[suffix]
        prev = short = short + 1
        dp.append(short)
        if short < top:
            last[short] = i
        else:
            last.append(i)
            top += 1
    return dp


def _check_profile_length(L: int, cap: int) -> None:
    """Refuse a prefix DP over more than cap symbols; it holds about
    20 bytes per symbol."""
    if L > cap:
        raise CapExceededError(f"profile length is capped at {cap}, got {L}")


def pal_length(u: BinaryWord) -> int:
    """Minimal number of palindromes concatenating to u (0 for the
    empty word by convention)."""
    return _pal_lengths(u.raw)[-1]


def pal_length_profile(
    d: DirectiveSequence, L: int, cap: int = DEFAULT_PROFILE_CAP
) -> list[tuple[int, int]]:
    """Record-breaking prefix palindromic lengths: the positions where
    pal_length(prefix) first attains 1, 2, 3, ..."""
    if L < 1:
        raise ValueError("profile length must be at least 1")
    _check_profile_length(L, cap)
    dp = _balanced_pal_lengths(characteristic_prefix(d, L).raw)
    if dp is None:
        raise TheoremViolationError(
            f"the characteristic prefix of length {L} is not balanced"
        )
    # A prefix one symbol longer needs at most one more palindrome, so
    # the records are the first positions of 1, 2, 3, ..., in order.
    records = []
    i = 0
    for value in range(1, max(dp) + 1):
        i = dp.index(value, i)
        records.append((i, value))
    return records


def construct_hard_prefix(d: DirectiveSequence, Q: int) -> int:
    """An N whose length-N characteristic prefix needs more than Q
    palindromes: put digit 3Q+1 at Q+1 positions whose directive digit
    is at least 6Q+2 (the vector is legal, hence valid)."""
    if Q < 0:
        raise ValueError("the palindrome budget must be nonnegative")
    if Q == 0:
        return 1
    threshold = 6 * Q + 2
    digit_value = 3 * Q + 1
    need = Q + 1
    # each period holds as many large digits as the first, so need
    # periods are enough when it holds one and none help when it does not
    periods = need if max(d.periodic, default=0) >= threshold else 0
    total = 0
    found = 0
    for m in range(len(d.explicit) + len(d.periodic) * periods):
        if d.digit(m) >= threshold:
            total += d.q(m)
            found += 1
            if found == need:
                return digit_value * total
    raise ValueError(
        f"needs {need} directive digits of size at least {threshold}, "
        f"found {found}"
    )


def palindromes_starting_at(w: BinaryWord, i: int, maxlen: int) -> list[int]:
    """Ascending lengths (1-based, nonempty) of palindromes beginning at
    0-based position i, up to length maxlen."""
    n = len(w)
    if not 0 <= i < n:
        raise ValueError(f"position must lie in [0, {n}), got {i}")
    raw = w.raw
    rev = raw[::-1]
    out = []
    for ell in range(1, min(maxlen, n - i) + 1):
        if raw[i : i + ell] == rev[n - i - ell : n - i]:
            out.append(ell)
    return out
