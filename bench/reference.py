"""Reference computations for the benchmark's output checks.

Nothing here imports `sturmian`: every expected value is computed from
the definitions, with its own directive parser, q-table, standard-word
recursion and arithmetic, so a fault in the package cannot hide itself
by agreeing with its own helpers.

Words are bytes objects of symbol values 0 and 1.  Digit vectors are
tuples stored least significant first, with trailing zeros stripped.
"""

from __future__ import annotations

import math


class Directive:
    """Digits d_0, d_1, ... given as explicit digits then a periodic tail.

    Accepts the spellings `fib`, `1,2,3`, `1,(2,3)` and `(1)`.
    """

    def __init__(self, text: str):
        s = text.replace(" ", "")
        if s == "fib":
            s = "1,(1)"
        head, tail = s, ""
        if "(" in s:
            head, _, tail = s.partition("(")
            tail = tail.rstrip(")")
        self.head = [int(v) for v in head.split(",") if v]
        self.tail = [int(v) for v in tail.split(",") if v]

    def digit(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        if not self.tail:
            raise IndexError(i)
        return self.tail[(i - len(self.head)) % len(self.tail)]


def q_table(d: Directive, levels: int) -> list[int]:
    """[q_0, ..., q_levels]: lengths of s_0 .. s_levels, q_{-1} = q_0 = 1."""
    before, cur = 1, 1
    out = [cur]
    for i in range(levels):
        before, cur = cur, d.digit(i) * cur + before
        out.append(cur)
    return out


def standard_words(d: Directive, levels: int) -> list[bytes]:
    """[s_0, ..., s_levels] with s_{-1} = 1, s_0 = 0 and
    s_{i+1} = s_i^{d_i} s_{i-1}."""
    before, cur = b"\x01", b"\x00"
    out = [cur]
    for i in range(levels):
        before, cur = cur, cur * d.digit(i) + before
        out.append(cur)
    return out


def characteristic(d: Directive, length: int) -> bytes:
    """Length-`length` prefix of the characteristic word (d_0 >= 1, so
    every s_i with i >= 1 is a prefix of it)."""
    before, cur = b"\x01", b"\x00"
    i = 0
    while len(cur) < length or i < 1:
        before, cur = cur, cur * d.digit(i) + before
        i += 1
    return cur[:length]


def parse_digits(rendered: str) -> tuple[int, ...]:
    """A rendered vector (most significant first, `.`-separated when a
    digit needs two decimals) as a least-significant-first tuple."""
    parts = rendered.split(".") if "." in rendered else list(rendered)
    return _strip(tuple(int(p) for p in reversed(parts)))


def _strip(digits) -> tuple[int, ...]:
    digits = list(digits)
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def decode(digits, d: Directive) -> int:
    qs = q_table(d, len(digits))
    return sum(k * qs[i] for i, k in enumerate(digits))


def is_legal(digits, d: Directive) -> bool:
    return all(0 <= k <= d.digit(i) for i, k in enumerate(digits))


def is_valid(digits, d: Directive) -> bool:
    """s_n^{k_n} ... s_0^{k_0} is the prefix of the characteristic word."""
    words = standard_words(d, len(digits))
    joined = b"".join(words[i] * digits[i] for i in range(len(digits) - 1, -1, -1))
    return joined == characteristic(d, len(joined))


def mirror(x, m: int, y_m: int, d: Directive) -> tuple[int, ...]:
    """d_i - x_i below the pivot m, y_m at it, x_i above it."""
    size = max(len(x), m + 1)
    out = []
    for i in range(size):
        xi = x[i] if i < len(x) else 0
        out.append(d.digit(i) - xi if i < m else y_m if i == m else xi)
    return _strip(out)


def palindrome_radii(word: bytes) -> list[int]:
    """Manacher over the 2n+1 centres: entry C is the longest palindrome
    length with centre C, where the factor word[s:e] has centre s + e."""
    t = [2] * (2 * len(word) + 1)
    t[1::2] = word
    size = len(t)
    rad = [0] * size
    centre = right = 0
    for i in range(size):
        r = min(rad[2 * centre - i], right - i) if i < right else 0
        while i - r - 1 >= 0 and i + r + 1 < size and t[i - r - 1] == t[i + r + 1]:
            r += 1
        rad[i] = r
        if i + r > right:
            centre, right = i, i + r
    return rad


def palindrome_occurrences(word: bytes) -> set[tuple[int, int]]:
    """Every (s, e) with word[s:e] a nonempty palindrome."""
    out = set()
    for c, longest in enumerate(palindrome_radii(word)):
        for length in range(2 - c % 2, longest + 1, 2):
            out.add(((c - length) // 2, (c + length) // 2))
    return out


def pal_length_records(word: bytes) -> list[tuple[int, int]]:
    """(i, k) where the palindromic length of word[:i] first reaches k.

    Min-DP over the palindromes ending at each position; those are the
    centres C < 2e with C + radius(C) >= 2e, kept in a list as e grows.
    """
    rad = palindrome_radii(word)
    dp = [0] * (len(word) + 1)
    active: list[int] = []
    records = []
    best = 0
    for e in range(1, len(word) + 1):
        two_e = 2 * e
        active.append(two_e - 2)
        active.append(two_e - 1)
        active = [c for c in active if c + rad[c] >= two_e]
        dp[e] = 1 + min(dp[c - e] for c in active)
        if dp[e] > best:
            best = dp[e]
            records.append((e, best))
    return records


def valid_vectors(d: Directive, nmax: int) -> dict[int, list[tuple[int, ...]]]:
    """All valid digit vectors of every N <= nmax, keyed by N.

    A valid vector of N tiles the length-N prefix by k_top copies of
    s_top, then k_{top-1} copies of s_{top-1}, and so on down to s_0, so
    one walk from position 0 over decreasing levels meets every one.
    """
    qs = q_table(d, 64)
    top = max(i for i, q in enumerate(qs) if q <= max(nmax, 1))
    words = standard_words(d, top)
    prefix = characteristic(d, nmax)
    found: dict[int, list[tuple[int, ...]]] = {}
    digits = [0] * (top + 1)

    def place(level: int, pos: int) -> None:
        if level < 0:
            found.setdefault(pos, []).append(_strip(digits))
            return
        block = words[level]
        k = 0
        while True:
            digits[level] = k
            place(level - 1, pos)
            if prefix[pos : pos + len(block)] != block:
                break
            pos += len(block)
            k += 1
        digits[level] = 0

    place(top, 0)
    return found


def z_vector(digits, d: Directive) -> list[int]:
    return [min(k, abs(d.digit(i) - k)) for i, k in enumerate(digits)]


def zd_max_gap(d: Directive, nmax: int) -> int:
    """max over N <= nmax and digit i of the spread of z_i over the
    valid vectors of N (a missing digit reads 0)."""
    best = 0
    for vectors in valid_vectors(d, nmax).values():
        zs = [z_vector(v, d) for v in vectors]
        width = max(len(z) for z in zs)
        for i in range(width):
            column = [z[i] if i < len(z) else 0 for z in zs]
            best = max(best, max(column) - min(column))
    return best


def totient(q: int) -> int:
    result, m, p = q, q, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def balanced_total(n: int) -> int:
    """Balanced binary words of length n: 1 + sum phi(q)(n + 1 - q)."""
    return 1 + sum(totient(q) * (n + 1 - q) for q in range(1, n + 1))


def face_count(n: int) -> int:
    """Faces of the order-n rotation arrangement in the unit square:
    2 + n(n+1)(n+2)/3 + 2 sum (n - q + 1) phi(q)."""
    cubic = n * (n + 1) * (n + 2) // 3
    return 2 + cubic + 2 * sum((n - q + 1) * totient(q) for q in range(1, n + 1))


def _floor_quadratic(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b sqrt(d)) / c) for c > 0 and d not a square."""
    if b == 0:
        return a // c
    root = math.isqrt(b * b * d)
    return (a + (root if b > 0 else -root - 1)) // c


def mechanical(slope, rho, n: int, flavor: str) -> bytes:
    """First n symbols of the lower (floor) or upper (ceiling) mechanical
    word of slope (a + b sqrt(d)) / c and rational intercept p / q."""
    a, b, c, d = slope
    p, q = rho
    sign = 1 if flavor == "lower" else -1

    def level(k: int) -> int:
        # sign * floor(sign * (k * slope + rho)); the ceiling for sign -1
        return sign * _floor_quadratic(
            sign * (k * a * q + p * c), sign * k * b * q, c * q, d
        )

    values = [level(k) for k in range(n + 1)]
    return bytes(values[k + 1] - values[k] for k in range(n))


def is_balanced(word: bytes) -> bool:
    """Every window length sees at most two adjacent counts of symbol 1."""
    ones = [0]
    for v in word:
        ones.append(ones[-1] + v)
    n = len(word)
    for ell in range(1, n):
        sums = [ones[i + ell] - ones[i] for i in range(n - ell + 1)]
        if max(sums) - min(sums) > 1:
            return False
    return True


def factor_count(word: bytes, n: int) -> int:
    """Distinct length-n factors of `word`."""
    return len({word[i : i + n] for i in range(len(word) - n + 1)})


def palindrome_factor_count(word: bytes, n: int) -> int:
    """Distinct palindromic length-n factors of `word`."""
    found = {word[i : i + n] for i in range(len(word) - n + 1)}
    return sum(f == f[::-1] for f in found)


def doubling_count(d: Directive, n: int, count, limit: int = 1 << 16):
    """The value `count` takes on a prefix of the characteristic word whose
    length starts at max(64, 4n), doubles, and stops at the first length
    that gives the same count as the one before.  That rule is the
    documented fault of the package's factor counts: inside a long run of
    one letter two prefixes agree before the count is complete.  None
    past `limit` symbols."""
    length = max(64, 4 * n)
    before = None
    while length <= limit:
        value = count(characteristic(d, length), n)
        if value == before:
            return value
        before = value
        length *= 2
    return None
