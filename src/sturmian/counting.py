"""Counting formulas and their brute-force oracles.

The closed forms (total count of balanced factors, face count of the
rotation-word line arrangement) are evaluated exactly with big integers.
Each one has an independent oracle: an enumeration of balanced words,
and an exact sweep / vertex count of the dual line arrangement in the
unit parameter square.

The balanced-word oracle counts every length up to n in one pass.  It
walks only the left special balanced words w (0w and 1w both balanced),
about n**3 / (2 pi**2) of them, since the count grows from length k to
k + 1 by the number of left special words of length k;
words._balanced_counts proves that identity and the facts that prune
the walk in O(1) per step.  The formula side, sturmian_totals, reads
every length off one totient sieve.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from itertools import accumulate

from ._record import _Record, _setfield
from .errors import CapExceededError
from .exactnum import ExactReal, _floor_quadratic, _radical_sign
from .words import BinaryWord, _balanced_counts, _require_unit

__all__ = [
    "euler_phi",
    "euler_phi_sieve",
    "sturmian_total",
    "sturmian_totals",
    "balanced_counts",
    "balanced_count",
    "rotation_face_count",
    "ArrangementLine",
    "arrangement_lines",
    "FaceSample",
    "rotation_word_samples",
    "rotation_word_count",
    "arrangement_face_count",
    "DEFAULT_BALANCED_CAP",
    "DEFAULT_SWEEP_CAP",
]

DEFAULT_BALANCED_CAP = 88
DEFAULT_SWEEP_CAP = 42


def euler_phi(q: int) -> int:
    """Count of 1 <= m <= q coprime to q."""
    if q < 1:
        raise ValueError("totient argument must be positive")
    result = q
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def euler_phi_sieve(n: int) -> list[int]:
    """Totients of 0..n in one pass (index 0 holds 0)."""
    if n < 0:
        raise ValueError("sieve bound must be nonnegative")
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def sturmian_total(n: int) -> int:
    """Total number of balanced binary words of length n, by the exact
    totient formula 1 + sum of phi(q) * (n + 1 - q) over q = 1..n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    phi = euler_phi_sieve(n)
    return 1 + sum(phi[q] * (n + 1 - q) for q in range(1, n + 1))


def sturmian_totals(n: int) -> list[int]:
    """sturmian_total of every length 0..n from one sieve: the total
    grows from n - 1 to n by phi(1) + ... + phi(n), so the totals are
    running sums of running sums of the totients."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return list(accumulate(accumulate(euler_phi_sieve(n)[1:]), initial=1))


def balanced_counts(n: int, cap: int = DEFAULT_BALANCED_CAP) -> list[int]:
    """Numbers of balanced binary words of lengths 0..n, all from one
    walk over their left special factors (see words._balanced_counts)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > cap:
        raise CapExceededError(
            f"balanced-word enumeration is capped at length {cap}, got {n}"
        )
    return _balanced_counts(n)


def balanced_count(n: int, cap: int = DEFAULT_BALANCED_CAP) -> int:
    """Number of balanced binary words of length n: balanced_counts(n)[n],
    from the one walk of words._balanced_counts."""
    return balanced_counts(n, cap)[n]


def rotation_face_count(n: int) -> int:
    """Faces of the order-n rotation arrangement in the unit square:
    2 + n(n+1)(n+2)/3 + 2 * sum of (n - q + 1) * phi(q)."""
    if n < 1:
        raise ValueError("order must be positive")
    phi = euler_phi_sieve(n)
    cubic = n * (n + 1) * (n + 2) // 3
    return 2 + cubic + 2 * sum((n - q + 1) * phi[q] for q in range(1, n + 1))


class ArrangementLine(_Record):
    """The line coeff * alpha + rho = level in the (alpha, rho) square.

    kind is 'integer' (level is a whole number), 'shifted' (level is a
    whole number minus sigma), or 'boundary' (rho = 0 or rho = 1).
    """

    _fields = ("coeff", "level", "kind")

    def __init__(self, coeff: int, level: ExactReal, kind: str):
        _setfield(self, "coeff", coeff)
        _setfield(self, "level", level)
        _setfield(self, "kind", kind)


def _families(order: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The order-n arrangement as families of parallel lines: (coeff, e)
    -> (lo, hi) for the lines coeff * alpha + rho = n + e * sigma with
    lo <= n <= hi.  In order: the boundaries rho = 0 and rho = 1, the
    integer lines (e = 0), then the shifted lines (e = -1)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    spans = {(0, 0): (0, 1)}
    spans.update({(q, 0): (1, q) for q in range(1, order + 1)})
    spans.update({(q, -1): (1, q + 1) for q in range(order + 1)})
    return spans


def _meetings(spans):
    """Yield (c1, e1, c2, e2, dns) for each two families with c1 > c2.

    Line n1 of the first family meets line n1 - dn of the second at
    alpha = (dn + de sigma) / dc, with dc = c1 - c2 and de = e1 - e2.
    As 0 < sigma < 1 and de is -1, 0 or 1, that lies in (0, 1) iff dn
    runs from (de <= 0) to dc - (de >= 0); dns is that range cut to the
    differences of the two families' n.
    """
    for (c1, e1), (lo1, hi1) in spans.items():
        for (c2, e2), (lo2, hi2) in spans.items():
            if c1 > c2:
                de = e1 - e2
                first = max(lo1 - hi2, int(de <= 0))
                last = min(hi1 - lo2, c1 - c2 - int(de >= 0))
                yield c1, e1, c2, e2, range(first, last + 1)


def arrangement_lines(order: int, sigma: ExactReal) -> list[ArrangementLine]:
    """All lines of the order-n arrangement that meet the open unit
    square, plus the two horizontal boundaries."""
    spans = _families(order)
    _require_unit(sigma, "sigma", strict_low=True)
    return [
        ArrangementLine(coeff, ExactReal(n) - sigma, "shifted") if e
        else ArrangementLine(coeff, ExactReal(n), "integer" if coeff else "boundary")
        for (coeff, e), (lo, hi) in spans.items() for n in range(lo, hi + 1)
    ]


# Points of the arrangement are tuples of plain integers: the
# coordinates of each value in the basis {1, sqrt(d)} of sigma's field
# Q(sqrt(d)), with one positive common denominator last.  A line
# coeff * alpha + rho = n + e * sigma meets another at
# ((N + E sigma) / Delta, ...) with small integers, and sigma =
# (a + b sqrt(d)) / c turns that into (c N + a E, b E) / (c Delta).
# Reducing by the gcd of all entries makes the tuple of a point unique;
# for a rational sigma (b = d = 0) it folds to plain rationals.


def _reduced(*entries: int) -> tuple[int, ...]:
    g = math.gcd(*entries)
    return tuple(x // g for x in entries) if g > 1 else entries


def _sorted_exact(items: list, keys: list[int], d: int) -> list:
    """Items (v, w, den, ...) ordered by (v + w sqrt(d)) / den, den > 0.

    keys[i] is a nondecreasing integer function of the value of items[i],
    such as floor(2**64 * value).  Distinct keys decide the order alone;
    if two keys tie, every pair is compared by an exact sign test.
    """
    if len(set(keys)) == len(keys):
        return [item for _, item in sorted(zip(keys, items))]
    return sorted(items, key=functools.cmp_to_key(
        lambda x, y: _radical_sign(x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], d)
    ))


def _floor64(v: int, w: int, den: int, d: int) -> int:
    """floor(2**64 * (v + w sqrt(d)) / den), for den > 0."""
    return _floor_quadratic(v << 64, w << 64, den, d)


class FaceSample(_Record):
    """One interior point of an arrangement face and its rotation word."""

    _fields = ("alpha", "rho", "word")

    def __init__(self, alpha: ExactReal, rho: ExactReal, word: BinaryWord):
        _setfield(self, "alpha", alpha)
        _setfield(self, "rho", rho)
        _setfield(self, "word", word)


def _face_word(a, b, r, s, u, v, c, d, n) -> bytearray:
    """Symbols 0..n-1 of the rotation word with alpha = (a + b sqrt(d))/c,
    rho = (r + s sqrt(d))/c and sigma = (u + v sqrt(d))/c, for plain
    integers, c > 0 and d squarefree: per symbol, _floor_quadratic's
    floor, inline, and one _radical_sign.  The sweep's words are short,
    where this beats the two inductions of words.rotation_word; the
    tests check the sweep against rotation_word.
    """
    isqrt = math.isqrt
    out = bytearray(n)
    for q in range(n):
        x0, x1 = r + q * a, s + q * b
        if x1 >= 0:
            m = (x0 + isqrt(x1 * x1 * d)) // c
        else:
            m = (x0 - isqrt(x1 * x1 * d - 1) - 1) // c
        # {x} <= 1 - sigma  <=>  x + sigma <= m + 1; equality gives 0.
        if _radical_sign(x0 + u - (m + 1) * c, x1 + v, d) > 0:
            out[q] = 1
    return out


def _strips(sigma: ExactReal, length: int, cap: int):
    """Sweep the vertical strips of the order length - 1 arrangement.

    Yield (alpha, levels, words) per strip: alpha is the strip's middle,
    levels the heights 0 < h_1 < ... < h_k < 1 of the lines over alpha
    with 0 and 1 added, and words[j] the raw rotation word of the face
    between levels[j] and levels[j + 1].  alpha and the levels are
    (v, w, den) tuples of Q(sqrt(d)).
    """
    if length < 1:
        raise ValueError("length must be positive")
    if length > cap:
        raise CapExceededError(
            f"rotation-word sweep is capped at length {cap}, got {length}"
        )
    if sigma.is_rational:
        raise ValueError("sweep needs an irrational sigma (rational slopes degenerate)")
    _require_unit(sigma, "sigma", strict_low=True)
    sa, sb, sc, d = sigma.a, sigma.b, sigma.c, sigma.d

    spans = _families(length - 1)
    breaks = {(0, 0, 1), (1, 0, 1)}
    for c1, e1, c2, e2, dns in _meetings(spans):
        dc, de = c1 - c2, e1 - e2
        for dn in dns:
            breaks.add(_reduced(dn * sc + de * sa, de * sb, sc * dc))
    breaks = list(breaks)
    cuts = _sorted_exact(breaks, [_floor64(*pt, d) for pt in breaks], d)

    crossing = [fam for fam in spans if fam != (0, 0)]
    for (u0, u1, uc), (v0, v1, vc) in zip(cuts, cuts[1:]):
        m0, m1, m = _reduced(u0 * vc + v0 * uc, u1 * vc + v1 * uc, 2 * uc * vc)
        den, a0, a1, s0, s1 = sc * m, sc * m0, sc * m1, sa * m, sb * m
        # Over alpha, family (coeff, e) meets the open square in one
        # line: n = floor(t) + 1 with t = coeff * alpha - e * sigma, at
        # height n - t.  From f = floor(2**64 t) come both n and the
        # sort key ceil(2**64 (n - t)) = 2**64 n - f.
        heights, keys = [], []
        for coeff, e in crossing:
            t0, t1 = coeff * a0 - e * s0, coeff * a1 - e * s1
            f = _floor64(t0, t1, den, d)
            n = (f >> 64) + 1
            heights.append((n * den - t0, -t1, den, coeff, e))
            keys.append((n << 64) - f)
        heights = _sorted_exact(heights, keys, d)
        # The word halfway up to the lowest line, over the denominator 2 den.
        word = _face_word(
            2 * a0, 2 * a1, heights[0][0], heights[0][1], 2 * s0, 2 * s1, 2 * den, d, length
        )
        words = [bytes(word)]
        for _, _, _, coeff, e in heights:
            # Crossing a line upward wraps {coeff*alpha + rho} past an
            # integer (symbol becomes 0) or past 1 - sigma (symbol
            # becomes 1).
            word[coeff] = 1 if e else 0
            words.append(bytes(word))
        yield (m0, m1, m), [(0, 0, den), *heights, (den, 0, den)], words


def rotation_word_samples(sigma: ExactReal, length: int, cap: int = DEFAULT_SWEEP_CAP):
    """Yield one FaceSample per face of the arrangement of order
    length - 1, sweeping vertical strips between consecutive exact
    alpha-breakpoints; the sample's rho is halfway between the lines
    that bound its face in the strip.

    Faces straddling several strips are sampled once per strip; callers
    that count distinct words de-duplicate on the word.
    """
    d = sigma.d
    for (a0, a1, ac), levels, words in _strips(sigma, length, cap):
        alpha = ExactReal._squarefree(a0, a1, ac, d)
        for low, high, raw in zip(levels, levels[1:], words):
            rho = ExactReal._squarefree(low[0] + high[0], low[1] + high[1], 2 * low[2], d)
            yield FaceSample(alpha, rho, BinaryWord._from_raw(raw))


def rotation_word_count(sigma: ExactReal, length: int, cap: int = DEFAULT_SWEEP_CAP) -> int:
    """Number of distinct rotation words of the given length over all
    (alpha, rho) in the unit square, counted by the exact sweep."""
    seen = set()
    for _, _, words in _strips(sigma, length, cap):
        seen.update(words)
    return len(seen)


def arrangement_face_count(sigma: ExactReal, order: int) -> int:
    """Faces of the order-n arrangement inside the unit square:
    1 + L + the sum over interior vertices of (lines through it - 1),
    with L the number of lines other than rho = 0 and rho = 1.

    Each of those L lines crosses the open square from side to side.
    Drawn one after another, a line with k distinct interior points on
    earlier lines is cut into k + 1 segments, each splitting one face
    in two; a vertex on m lines is such a point for all but the first
    of them, so it adds m - 1.  Points on the square's sides split no
    face.  Independent of rotation_face_count.

    Vertices are found per pair of parallel families, not per pair of
    lines: at each alpha in (0, 1) where two families meet, one line of
    a family at most lies strictly inside the square, so the work is
    O(order^3), not O(order^4).  Each two lines that meet inside are
    found once, so a vertex on m lines is found p = m(m - 1)/2 times
    and m - 1 = (sqrt(8p + 1) - 1) / 2.
    """
    spans = _families(order)
    del spans[0, 0]  # rho = 0 and rho = 1 cut no face
    _require_unit(sigma, "sigma", strict_low=True)
    sa, sb, sc, d = sigma.a, sigma.b, sigma.c, sigma.d
    found = defaultdict(int)  # interior vertex -> times found
    for c1, e1, c2, e2, dns in _meetings(spans):
        dc, de = c1 - c2, e1 - e2
        den = sc * dc
        a1 = de * sb
        t1 = c1 * a1 - e1 * sb * dc
        for dn in dns:
            # alpha = (a0 + a1 sqrt(d)) / den.  Line n1 of the first
            # family is at height n1 - t there, with t = c1 alpha - e1
            # sigma = (t0 + t1 sqrt(d)) / den, which lies in (0, 1) iff
            # t is not whole (t1 sqrt(d) = 0 if it is) and n1 =
            # floor(t) + 1.  A line at such a height is in its span.
            a0 = dn * sc + de * sa
            t0 = c1 * a0 - e1 * sa * dc
            f = _floor_quadratic(t0, t1, den, d)
            if t0 != f * den or (t1 and d):
                found[_reduced(a0, a1, (f + 1) * den - t0, -t1, den)] += 1
    lines = sum(hi - lo + 1 for lo, hi in spans.values())
    return 1 + lines + sum((math.isqrt(8 * p + 1) - 1) // 2 for p in found.values())
