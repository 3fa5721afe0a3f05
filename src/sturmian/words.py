"""Finite and infinite binary words.

Mechanical and rotation words are generated from exact slope/intercept
parameters; standard and characteristic words come from a directive
sequence.  Also here: factor sets and factor counts read off a prefix
of proved length, the balance test with counterexample witness, block
partitions of characteristic words, a power-freeness check, and the
eertree of palindromic factors, PalindromicTree, that the balance test,
the palindrome tools and the general palindromic-length pass share.
The balanced-word count (_balanced_counts, two trees) and
palindromes._balanced_pal_lengths, which keys its nodes by length and
centre, carry their own inlined eertrees.

Both slope words come from one Rauzy induction: a rotation word steps
as an upper minus a lower mechanical word of its angle.

A word is stored one symbol per byte (values 0 and 1) and can be
rendered over {0,1} or {a,b} with the fixed letter coding 0 <-> a,
1 <-> b.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from ._record import _Record, _setfield
from .errors import CapExceededError
from .exactnum import (
    ContinuedFraction,
    ExactReal,
    MixedRadicalError,
    _floor_quadratic,
    _sign2,
    compare,
)

__all__ = [
    "BinaryWord",
    "DirectiveSequence",
    "MechanicalParams",
    "mechanical_word",
    "rotation_word",
    "standard_words",
    "characteristic_prefix",
    "factor_set",
    "characteristic_factor_count",
    "is_balanced",
    "balance_witness",
    "PalindromicTree",
    "n_partition",
    "has_kth_power",
    "DEFAULT_RECURRENCE_CAP",
    "DEFAULT_STABILIZE_CAP",
]

# Longest prefix a factor count may scan: the cap on R(n) (see
# _recurrence_length).
DEFAULT_RECURRENCE_CAP = 1 << 20
# The former name, from when the counts doubled a prefix until stable.
DEFAULT_STABILIZE_CAP = DEFAULT_RECURRENCE_CAP

_FROM_CHAR = {"0": 0, "1": 1, "a": 0, "b": 1}
# the translate table of each rendering alphabet
_ALPHABETS = {
    a: bytes.maketrans(b"\x00\x01", a.encode()) for a in ("01", "ab")
}


def _parse_symbols(text: str) -> bytes:
    try:
        return bytes(_FROM_CHAR[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad word symbol {exc.args[0]!r}") from None


class BinaryWord:
    """Immutable finite word over a two-letter alphabet."""

    __slots__ = ("_bits",)

    def __init__(self, symbols=()):
        if isinstance(symbols, BinaryWord):
            self._bits = symbols._bits
        elif isinstance(symbols, str):
            self._bits = _parse_symbols(symbols)
        else:
            raw = bytes(symbols)
            if raw.translate(None, b"\x00\x01"):
                raise ValueError("symbols must be 0 or 1")
            self._bits = raw

    @classmethod
    def _from_raw(cls, raw: bytes) -> BinaryWord:
        w = object.__new__(cls)
        w._bits = raw
        return w

    @classmethod
    def from_string(cls, text: str) -> BinaryWord:
        return cls(text)

    @property
    def raw(self) -> bytes:
        """The symbols as a bytes object of 0/1 values."""
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BinaryWord._from_raw(self._bits[index])
        return self._bits[index]

    def __iter__(self):
        return iter(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self):
        return hash(self._bits)

    def __add__(self, other: BinaryWord) -> BinaryWord:
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return BinaryWord._from_raw(self._bits + other._bits)

    def __mul__(self, times: int) -> BinaryWord:
        if not isinstance(times, int):
            return NotImplemented
        return BinaryWord._from_raw(self._bits * times)

    __rmul__ = __mul__

    def reverse(self) -> BinaryWord:
        return BinaryWord._from_raw(self._bits[::-1])

    def count(self, symbol: int) -> int:
        return self._bits.count(symbol)

    def startswith(self, prefix: BinaryWord) -> bool:
        return self._bits.startswith(prefix._bits)

    def find(self, sub: BinaryWord, start: int = 0) -> int:
        return self._bits.find(sub._bits, start)

    def occurrences(self, sub: BinaryWord):
        """Yield the start positions of all occurrences of sub (0-based)."""
        pos = self._bits.find(sub._bits)
        while pos >= 0:
            yield pos
            pos = self._bits.find(sub._bits, pos + 1)

    def to_string(self, alphabet: str = "01") -> str:
        if alphabet not in _ALPHABETS:
            raise ValueError("alphabet must be '01' or 'ab'")
        return self._bits.translate(_ALPHABETS[alphabet]).decode("ascii")

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"BinaryWord({self.to_string()!r})"


class DirectiveSequence(_Record):
    """Digit sequence d_0, d_1, ... driving the standard-word recursion.

    The explicit digits may be followed by a periodic tail that repeats
    forever.  d_0 may be zero; every later digit must be positive.

    Each instance keeps the two objects every tool reads: the table of
    lengths q_i (see q) and a prefix of the characteristic word, both
    grown on demand.  They are not fields, so equality and hashing see
    only the digits.
    """

    _fields = ("explicit", "periodic")

    def __init__(self, explicit: tuple[int, ...], periodic: tuple[int, ...] = ()):
        explicit = tuple(int(v) for v in explicit)
        periodic = tuple(int(v) for v in periodic)
        if not explicit and not periodic:
            raise ValueError("a directive sequence needs at least one digit")
        if explicit and explicit[0] < 0:
            raise ValueError("d_0 must be nonnegative")
        if any(v < 1 for v in explicit[1:]) or any(v < 1 for v in periodic):
            raise ValueError("digits after d_0 must be positive")
        _setfield(self, "explicit", explicit)
        _setfield(self, "periodic", periodic)
        self.__dict__["_qs"] = [1, 1]  # q_{-1}, q_0, ...
        self.__dict__["_prefix"] = b""

    @property
    def is_finite(self) -> bool:
        return not self.periodic

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be nonnegative")
        if i < len(self.explicit):
            return self.explicit[i]
        if self.periodic:
            return self.periodic[(i - len(self.explicit)) % len(self.periodic)]
        raise IndexError(
            f"directive sequence has only {len(self.explicit)} digits"
        )

    def digits(self, count: int) -> list[int]:
        return [self.digit(i) for i in range(count)]

    def q(self, i: int) -> int:
        """q_i, the length of the standard word s_i (i >= -1):
        q_{-1} = q_0 = 1 and q_{i+1} = d_i q_i + q_{i-1}.  Past the end
        of a finite sequence it raises IndexError, as digit() does."""
        if i < -1:
            raise IndexError("length index must be at least -1")
        qs = self._qs
        while len(qs) <= i + 1:
            qs.append(self.digit(len(qs) - 2) * qs[-1] + qs[-2])
        return qs[i + 1]

    def _characteristic(self, length: int) -> bytes:
        """The first `length` symbols of the characteristic word, cut
        from the kept prefix."""
        if length > len(self._prefix):
            self._grow(length)
        return self._prefix[:length]

    def _grow(self, length: int) -> None:
        """Rebuild the kept prefix at least twice as long (at most the
        whole word of a finite sequence), so n symbols cost O(log n)
        builds."""
        want = max(length, 2 * len(self._prefix))
        if self.is_finite:
            whole = self.q(len(self.explicit))
            if length > whole:
                raise ValueError(
                    f"directive sequence too short for a prefix of length {length}"
                )
            want = min(want, whole)
        s_prev, s_cur = b"\x01", b"\x00"  # s_{-1}, s_0
        i = 0
        while len(s_cur) < want or i < 1:
            # Build s_{i+1} = s_i^{d_i} s_{i-1}, stopping early once the
            # partial concatenation (a prefix of the limit word) is long
            # enough.
            chunks = []
            size = 0
            for _ in range(self.digit(i)):
                chunks.append(s_cur)
                size += len(s_cur)
                if size >= want:
                    break
            else:
                chunks.append(s_prev)
            s_prev, s_cur = s_cur, b"".join(chunks)
            i += 1
        self.__dict__["_prefix"] = s_cur[:want]

    def slope(self) -> ExactReal:
        """The slope of the characteristic word, as a continued fraction
        value [0; 1+d_0, d_1, d_2, ...]."""
        if self.periodic:
            if self.explicit:
                head = (0, 1 + self.explicit[0], *self.explicit[1:])
                tail = self.periodic
            else:
                head = (0, 1 + self.periodic[0])
                tail = self.periodic[1:] + self.periodic[:1]
            return ContinuedFraction(head, tail).value()
        quots = [0, 1 + self.explicit[0], *self.explicit[1:]]
        while len(quots) > 1 and quots[-1] == 1:
            quots.pop()
            quots[-1] += 1
        return ContinuedFraction(tuple(quots)).value()

    @classmethod
    def parse(cls, text: str) -> DirectiveSequence:
        s = text.strip().replace(" ", "")
        if s == "fib":
            return cls((1,), (1,))
        head, tail = s, ""
        if s.endswith(")"):
            i = s.find("(")
            if i < 0:
                raise ValueError(f"bad directive sequence string: {text!r}")
            head, tail = s[:i], s[i + 1 : -1]
            if head:
                if not head.endswith(","):
                    raise ValueError(f"bad directive sequence string: {text!r}")
                head = head[:-1]
        try:
            explicit = tuple(int(v) for v in head.split(",")) if head else ()
            periodic = tuple(int(v) for v in tail.split(",")) if tail else ()
        except ValueError:
            raise ValueError(f"bad directive sequence string: {text!r}") from None
        return cls(explicit, periodic)

    def __str__(self) -> str:
        parts = [str(v) for v in self.explicit]
        if self.periodic:
            parts.append("(" + ",".join(str(v) for v in self.periodic) + ")")
        return ",".join(parts)


def _require_unit(value: ExactReal, name: str, strict_low: bool) -> None:
    low_ok = compare(value, 0) > 0 if strict_low else compare(value, 0) >= 0
    if not (low_ok and compare(value, 1) < 0):
        bracket = "(0,1)" if strict_low else "[0,1)"
        raise ValueError(f"{name} must lie in {bracket}, got {value}")


class MechanicalParams(_Record):
    """Slope, intercept, and flavor (lower or upper) of a mechanical word."""

    _fields = ("sigma", "rho", "flavor")

    def __init__(self, sigma: ExactReal, rho: ExactReal, flavor: str = "lower"):
        if flavor not in ("lower", "upper"):
            raise ValueError("flavor must be 'lower' or 'upper'")
        _require_unit(sigma, "sigma", strict_low=True)
        _require_unit(rho, "rho", strict_low=False)
        _setfield(self, "sigma", sigma)
        _setfield(self, "rho", rho)
        _setfield(self, "flavor", flavor)


def _ratio_floor(u0: int, v0: int, u1: int, v1: int, d: int) -> int:
    """floor((u0 + v0 sqrt(d)) / (u1 + v1 sqrt(d))) for plain integers
    and a positive divisor: the quotient times the divisor's conjugate
    over its norm, nonzero as d is 0 or squarefree."""
    norm = u1 * u1 - v1 * v1 * d
    if norm < 0:
        norm, u1, v1 = -norm, -u1, -v1
    return _floor_quadratic(u0 * u1 - v0 * v1 * d, v0 * u1 - u0 * v1, norm, d)


def mechanical_word(params: MechanicalParams, n: int) -> BinaryWord:
    """First n symbols of the mechanical word, indexed from 0.

    The lower flavor takes differences of floors of k*sigma + rho, so
    its symbol k is 1 iff {k*sigma + rho} >= 1 - sigma: it codes the
    orbit of x = {rho} under the rotation x -> x + lam1 of [0, lam0 +
    lam1), lam0 = 1 - sigma and lam1 = sigma, by the interval I0 =
    [0, lam0) or I1 = [lam0, lam0 + lam1) that holds each point.  The
    upper flavor takes differences of ceilings, ceil(t) = -floor(-t),
    which makes it the complement of the lower word of slope 1 - sigma
    and intercept -rho; it is built as that word with 0 and 1 swapped.

    The word comes from Rauzy induction on that rotation (Rauzy,
    "Echanges d'intervalles et transformations induites", Acta Arith.
    1979; Lothaire, "Algebraic Combinatorics on Words", 2002, ch. 2).
    One level takes the first return to a subinterval, which is again
    a rotation of two intervals, coded by a word w':

    - lam0 >= lam1, a = floor(lam0 / lam1): the return to [a*lam1,
      lam0 + lam1), moved to 0, is the rotation of (lam0 - a*lam1,
      lam1) from x - j*lam1, j = min(a, floor(x / lam1)), and
      w = 0^(a-j) tau(w') with tau: 0 -> 0, 1 -> 1 0^a;
    - lam0 < lam1, b = floor(lam1 / lam0): the return to [0, lam0 +
      lam1 - b*lam0) is the rotation of (lam0, lam1 - b*lam0) from
      x - f*lam0, f = floor((x - lam1 + b*lam0) / lam0) clamped to
      [0, b], and w = 1^f tau(w') with tau: 0 -> 0 1^b, 1 -> 1.

    Each level leaves the smaller length on top, so the two kinds
    alternate, and a, b are the partial quotients of the slope, as
    Euclid's algorithm on (lam0, lam1) finds them: for the lower flavor
    and sigma = [0; a1, a2, ...] they are a1 - 1 (skipped if 0), a2,
    a3, ...  So the levels are as many as the partial quotients used.
    Below a level of the first kind w' has no 00, and below one of the
    second kind no 11, so m symbols of w' give at least m +
    a*floor(m/2) symbols of w, and w' needs 2*ceil((N - p) / (a + 2))
    symbols when w needs N and its prefix gives p.  That integer bound
    is at most 2*ceil(N/3), below N while N > 4 (at N = 4 and a = 1 it
    is 4 again).  The levels stop there, where the rotation runs symbol
    by symbol, or when a length reaches 0 (a rational slope), where the
    word below is constant.  Going up, each level is one bytes.replace
    of tau on w', with the prefix joined in front and the whole cut to
    N symbols.  An image longer than the word is cut to N + 1 symbols,
    which changes nothing in the first N.

    Every decision is exact.  With sigma = (A + B sqrt(d)) / C, lam0
    and lam1 are (u + v sqrt(d)) / C and x is +-rho plus such a value,
    for plain integers u, v.  Each quotient a, b is one
    _floor_quadratic of a ratio in Q(sqrt(d)).  Each count j, f is a
    bisection over [0, a] or [0, b]; each of its steps is the sign of x
    minus a multiple of a length, by _sign2, which is _radical_sign in
    one field and handles rho in a second field d2.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    sigma = params.sigma
    raw = _mechanical_raw(
        sigma.a, sigma.b, sigma.c, sigma.d, params.rho, 0, 0, params.flavor == "upper", n
    )
    return BinaryWord._from_raw(raw)


def _mechanical_raw(sa, sb, c, d, rho, u, v, upper, n) -> bytes:
    """mechanical_word's induction for the slope (sa + sb sqrt(d)) / c in
    (0, 1) and the intercept rho + (u + v sqrt(d)) / c in [0, 1), for
    plain integers sa, sb, u, v, c > 0 and rho in any field.  The part
    (u, v) lets rotation_word pass an intercept that spans two fields.
    """
    lam0, lam1 = (c - sa, -sb), (sa, sb)
    zero, one = b"\x00", b"\x01"
    r, s, e, d2 = rho.a, rho.b, rho.c, rho.d
    if upper:
        # x = {-t} for the intercept t: 1 - t, or 0 if t = 0
        lift = c if _sign2(c * r + e * u, e * v, d, c * s, d2) else 0
        zero, one, lam0, lam1, r, s, u, v = one, zero, lam1, lam0, -r, -s, lift - u, -v
    # x = (r + s sqrt(d2)) / e + (u + v sqrt(d)) / c is kept as (u, v);
    # its sign is that of c*e*x.
    cr, cs, x = c * r, c * s, (u, v)

    def count(u: int, v: int, du: int, dv: int, hi: int) -> int:
        """The largest k in [0, hi] with x - k*lam >= 0, or 0 if there
        is none, for x kept as (u, v) and lam = (du + dv sqrt(d)) / c."""
        lo = 0
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if _sign2(cr + e * (u - mid * du), e * (v - mid * dv), d, cs, d2) >= 0:
                lo = mid
            else:
                hi = mid - 1
        return lo

    levels = []
    size = n
    while size > 4 and any(lam0) and any(lam1):
        (u0, v0), (u1, v1), (u, v) = lam0, lam1, x
        a = _ratio_floor(u0, v0, u1, v1, d)
        if a:
            j = count(u, v, u1, v1, a)
            lam0 = (u0 - a * u1, v0 - a * v1)
            x = (u - j * u1, v - j * v1)
            sym, other, lead = one, zero, a - j
        else:
            a = _ratio_floor(u1, v1, u0, v0, d)
            lam1 = (u1 - a * u0, v1 - a * v0)
            f = count(u - lam1[0], v - lam1[1], u0, v0, a)
            x = (u - f * u0, v - f * v0)
            sym, other, lead = zero, one, f
        lead = min(lead, size)
        levels.append((sym, sym + other * min(a, size), other * lead, size))
        size = 2 * -((lead - size) // (a + 2))
    (u0, v0), (u1, v1) = lam0, lam1
    if not any(lam1):
        word = zero * size
    elif not any(lam0):
        word = one * size
    else:
        out = []
        for _ in range(size):
            u, v = x
            if count(u, v, u0, v0, 1):  # x >= lam0
                out.append(one)
                x = (u - u0, v - v0)
            else:
                out.append(zero)
                x = (u + u1, v + v1)
        word = b"".join(out)
    for sym, image, prefix, size in reversed(levels):
        word = word.replace(sym, image)
        # the inner word is freed first, and the join is the only copy
        word = b"".join((prefix, memoryview(word)[: size - len(prefix)]))
    assert len(word) == n
    return word


def rotation_word(alpha: ExactReal, rho: ExactReal, sigma: ExactReal, n: int) -> BinaryWord:
    """Word r of length n with r[q] = 0 iff {q*alpha + rho} <= 1 - sigma.

    The boundary case {q*alpha + rho} = 1 - sigma maps to symbol 0.
    alpha, rho, sigma may live in up to two distinct quadratic fields;
    three distinct radicals raise MixedRadicalError.

    With x_q = q*alpha + rho, r[q] = ceil(x_q + sigma) - floor(x_q) - 1.
    Let k = floor(rho + sigma) and rho'' = rho + sigma - k, in [0, 1).
    The floors step as the lower mechanical word L of (alpha, rho) and
    the ceilings as the upper one U of (alpha, rho''), so r[0] = k +
    [rho'' != 0] - 1, which is [rho > 1 - sigma], and r[q+1] = r[q] +
    U[q] - L[q].  Both words come from mechanical_word's induction, and
    alpha = 0 gives a constant word.  rho'' goes to it as a value in
    one field plus a part in alpha's field (sigma's, if alpha is
    rational), so rho and sigma may lie in two fields.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    _require_unit(alpha, "alpha", strict_low=False)
    _require_unit(rho, "rho", strict_low=False)
    _require_unit(sigma, "sigma", strict_low=True)
    if len({alpha.d, rho.d, sigma.d} - {0}) > 2:
        raise MixedRadicalError("three distinct radicals in one comparison")
    side = compare(rho, 1 - sigma)
    start = int(side > 0)
    if alpha.is_zero() or n < 2:
        return BinaryWord._from_raw(bytes([start]) * n)
    shift = sigma - int(side >= 0)
    d = alpha.d or sigma.d
    if sigma.d in (0, d):
        part, rest = shift, rho
    elif rho.d in (0, d):
        part, rest = rho, shift
    else:  # rho and sigma share a field other than alpha's
        part, rest = ExactReal(0), rho + shift
    a, b, c = alpha.a, alpha.b, alpha.c
    low = _mechanical_raw(a, b, c, d, rho, 0, 0, False, n - 1)
    # the slope over c * part.c, to carry the part over the same denominator
    f = part.c
    up = _mechanical_raw(a * f, b * f, c * f, d, rest, part.a * c, part.b * c, True, n - 1)
    return BinaryWord._from_raw(bytes(accumulate(map(sub, up, low), initial=start)))


def standard_words(d: DirectiveSequence, n: int) -> list[BinaryWord]:
    """The standard words s_{-1}, s_0, ..., s_n as a list of n+2 words.

    s_{-1} = b, s_0 = a, and s_{i+1} = s_i^{d_i} s_{i-1}.  For i >= 1,
    s_i is the length-q_i prefix of the characteristic word.
    """
    if n < -1:
        raise ValueError("index must be at least -1")
    raw = d._characteristic(d.q(n)) if n >= 1 else b""
    words = [b"\x01", b"\x00"] + [raw[: d.q(i)] for i in range(1, n + 1)]
    return [BinaryWord._from_raw(w) for w in words[: n + 2]]


def characteristic_prefix(d: DirectiveSequence, length: int) -> BinaryWord:
    """Prefix of the characteristic word of d (the limit of the s_n)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return BinaryWord._from_raw(d._characteristic(length))


def factor_set(w: BinaryWord, n: int) -> set[BinaryWord]:
    """All distinct length-n factors of w."""
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    if n > len(w):
        raise ValueError(f"factor length {n} exceeds word length {len(w)}")
    raw = w.raw
    return {
        BinaryWord._from_raw(raw[i : i + n]) for i in range(len(w) - n + 1)
    }


def _top_level(d: DirectiveSequence, n: int) -> int:
    """The largest i >= 0 with q_i <= n, or the last index of a finite
    sequence if that comes first."""
    i = 0
    try:
        while d.q(i + 1) <= n:
            i += 1
    except IndexError:
        pass
    return i


def _recurrence_length(d: DirectiveSequence, n: int, cap: int) -> int:
    """R(n) = n + q_{k+1} + q_k - 1 for n >= 1, k the largest index with
    q_k <= n: the length of a prefix of the characteristic word of d
    that holds every length-n factor.

    R is the recurrence function of Morse and Hedlund ("Symbolic
    dynamics II. Sturmian trajectories", 1940): every factor of length
    R(n) holds every factor of length n.  ValueError when a finite d
    has no q_{k+1}; CapExceededError when R(n) exceeds the cap, checked
    before any prefix is built.  (Reading the prefix of a finite d
    refuses an R(n) past its whole word.)
    """
    k = _top_level(d, n)
    try:
        length = n + d.q(k + 1) + d.q(k) - 1
    except IndexError:
        raise ValueError(
            f"directive sequence too short to hold every factor of length {n}"
        ) from None
    if length > cap:
        raise CapExceededError(
            f"factors of length {n} need a {length}-symbol prefix, "
            f"above the {cap}-symbol cap"
        )
    return length


def _recurrence_prefix(d: DirectiveSequence, nmax: int, cap: int) -> bytes:
    """The prefix of length R(nmax) (nmax >= 1), which holds every
    factor of every length n <= nmax, since R increases with n.

    When some n <= nmax cannot be read, it raises the error of the
    least such n, the one a loop over n = 1..nmax reading each prefix
    of length R(n) would meet first.  Failures form a tail: k grows
    with n, and R increases, within a level q_k <= n < q_{k+1} by one
    per step and across the step to level k + 1 because
    q_{k+2} > q_{k+1}.  So the least failing n is found level by level,
    where R(n) = n + q_{k+1} + q_k - 1 is linear: a level with no
    q_{k+1} fails from its start q_k; otherwise the first failure is
    the least n with R(n) above the cap or the whole finite word.
    """
    limit = cap
    if d.is_finite:
        limit = min(cap, d.q(len(d.explicit)))
    n = nmax
    k = _top_level(d, 1)
    while d.q(k) <= nmax:
        try:
            top = d.q(k + 1)
        except IndexError:
            n = d.q(k)
            break
        first = max(d.q(k), limit - top - d.q(k) + 2)
        if first < top:
            n = min(first, nmax)
            break
        k += 1
    # n is nmax, or else the least failing n, whose error this raises
    return d._characteristic(_recurrence_length(d, n, cap))


def _factors(d: DirectiveSequence, n: int, cap: int) -> set[bytes]:
    """The length-n factors (n >= 1) of the characteristic word of d,
    read in one scan off its prefix of length R(n) (see
    _recurrence_length)."""
    length = _recurrence_length(d, n, cap)
    raw = d._characteristic(length)
    return {raw[i : i + n] for i in range(length - n + 1)}


def characteristic_factor_count(
    d: DirectiveSequence, n: int, cap: int = DEFAULT_RECURRENCE_CAP
) -> int:
    """Number of distinct length-n factors of the characteristic word,
    read off its prefix of length R(n) (see _factors); CapExceededError
    when R(n) exceeds the cap."""
    if n < 0:
        raise ValueError("factor length must be nonnegative")
    if n == 0:
        return 1
    return len(_factors(d, n, cap))


class PalindromicTree:
    """Eertree over a growing word of 0/1 symbols (Rubinchik and Shur,
    "EERTREE", 2015).

    One node per distinct nonempty palindromic factor, plus the two
    roots: node 0 of length -1 and node 1 of length 0.  Nodes are ints
    indexing parallel lists: the length, the suffix link (the longest
    proper palindromic suffix) and, per symbol a, the child a u a of
    node u, 0 when absent (a root is never a child).
    """

    __slots__ = ("_word", "_len", "_link", "_child", "_last")

    def __init__(self, word: BinaryWord | None = None):
        # word[0] is a sentinel that matches no symbol: it stands before
        # a suffix as long as the whole prefix, so no index is negative
        self._word = bytearray(b"\x02")
        self._len = [-1, 0]
        self._link = [0, 0]
        self._child = ([0, 0], [0, 0])
        self._last = 1
        if word is not None:
            self._feed(word.raw)

    def _feed(self, symbols, ends: list | None = None) -> None:
        """Append each symbol, keeping the node of the longest
        palindromic suffix; ends, if given, receives that node after
        each symbol."""
        word, length, link = self._word, self._len, self._link
        child0, child1 = self._child
        node = self._last
        start = len(word)
        word.extend(symbols)
        for pos in range(start, len(word)):
            symbol = word[pos]
            while word[pos - length[node] - 1] != symbol:
                node = link[node]
            to = child1 if symbol else child0
            found = to[node]
            if not found:
                found = len(length)
                if node == 0:
                    suffix = 1
                else:
                    suffix = link[node]
                    while word[pos - length[suffix] - 1] != symbol:
                        suffix = link[suffix]
                    suffix = to[suffix]
                length.append(length[node] + 2)
                link.append(suffix)
                child0.append(0)
                child1.append(0)
                to[node] = found
            node = found
            if ends is not None:
                ends.append(node)
        self._last = node

    def add(self, symbol: int) -> bool:
        """Append one symbol; True iff a new palindrome appeared."""
        if symbol not in (0, 1):
            raise ValueError("symbols must be 0 or 1")
        size = len(self._len)
        self._feed((symbol,))
        return len(self._len) > size

    @property
    def distinct_count(self) -> int:
        """Number of distinct nonempty palindromic factors so far."""
        return len(self._len) - 2


def is_balanced(w: BinaryWord) -> bool:
    """True iff, for every window length, the counts of symbol 1 over all
    windows of that length spread by at most 1."""
    return balance_witness(w) is None


def balance_witness(w: BinaryWord):
    """None if w is balanced; otherwise (1, u, v): two equal-length
    factors u, v whose counts of symbol 1 differ by at least 2, the
    1-poorer factor first.

    w is unbalanced iff, for some palindrome p, both 0p0 and 1p1 are
    factors (Lothaire, "Algebraic Combinatorics on Words", 2002,
    Prop. 2.1.3), and the shortest windows whose counts spread by 2
    have length |p| + 2 for the shortest such p.  The eertree of w
    lists p as the shortest node with both children; one scan of the
    windows of that length returns the first poorest and the first
    richest.
    """
    raw = w.raw
    tree = PalindromicTree(w)
    to0, to1 = tree._child
    ell = min(
        (tree._len[u] + 2 for u in range(1, len(to0)) if to0[u] and to1[u]),
        default=None,
    )
    if ell is None:
        return None
    lo = hi = acc = raw[:ell].count(1)
    lo_at = hi_at = 0
    for i in range(1, len(raw) - ell + 1):
        acc += raw[i + ell - 1] - raw[i - 1]
        if acc < lo:
            lo, lo_at = acc, i
        if acc > hi:
            hi, hi_at = acc, i
    return (
        1,
        BinaryWord._from_raw(raw[lo_at : lo_at + ell]),
        BinaryWord._from_raw(raw[hi_at : hi_at + ell]),
    )


def _balanced_counts(n: int) -> list[int]:
    """Numbers B(0), ..., B(n) of balanced binary words of lengths 0..n,
    from one depth-first walk over their left special factors.

    Call a balanced word w left special when 0w and 1w are both
    balanced, and let LS(k) count those of length k.  Three facts
    shape the walk:

    - B(k + 1) = B(k) + LS(k).  Deleting the first symbol maps each
      balanced word of length k + 1 to a balanced word w of length k,
      since a suffix of a balanced word is balanced, and the words it
      maps to w are those of 0w, 1w that are balanced.  There is at
      least one: w is a factor of a Sturmian word (Lothaire, "Algebraic
      Combinatorics on Words", 2002, Prop. 2.1.17), which is recurrent,
      so w occurs there after some symbol a, and aw, a factor of a
      Sturmian word, is balanced.  There are two exactly when w is
      left special; summing over w gives the identity.
    - The left special words are closed under prefixes: if 0w and 1w
      are balanced, so are their factors 0u and 1u for each prefix u
      of w.  So the walk reaches every one of them by appending a
      symbol to a shorter one, and prunes every other branch.
    - They are closed under complement, since complementing every
      symbol maps balanced words onto balanced words.  So the walk
      visits only those that start with 0, and doubles LS(k) for
      k >= 1 (LS(0) = 1: 0 and 1 are balanced).

    The walk carries the eertrees of 0w and of 1w and undoes them on
    backtrack.  Appending x to a balanced word u unbalances it iff the
    longest palindromic suffix x p x of ux is new while (1-x) p (1-x)
    is a factor of u (Prop. 2.1.3, see balance_witness): a pair 0p0,
    1p1 must appear at this step, and only the longest palindromic
    suffix can be new.  So wx is left special iff one child lookup
    on node p refuses x in neither tree.  Balanced words are rich: they
    are the factors of Sturmian words, which are rich (Droubay, Justin
    and Pirillo, 2001), and factors of rich words are rich (Glen,
    Justin, Widmer and Zamboni, 2009).  So each step adds one node to
    each tree, the node of the prefix of length k is k + 1, and undoing
    a step clears one child entry per tree.

    Nodes are ints as in PalindromicTree.  In place of the suffix link
    each node v has a direct link per symbol a: the longest proper
    palindromic suffix of v that v precedes by a, or the root 0 of
    length -1 when there is none.  That finds p, and the suffix of a
    new node, in one lookup each, where suffix links would need a walk
    whose amortized bound backtracking voids.  The walk descends into
    one left special extension and stacks the other when both exist;
    it keeps its own stack, so no length can exhaust Python's.  It
    stops at length n - 2, where it only counts the extensions, and
    visits about n**3 / (2 pi**2) words.
    """
    if n < 3:
        return [1, 2, 4][: n + 1]
    size = n + 2
    pad = [0] * (size - 4)
    # The walk starts at w = 0.  Tree a is the eertree of 0w = 00: node 2
    # is the palindrome 0, a child of the root 0 (of length -1), and node
    # 3 is 00, a child of the root 1 (of length 0).  Tree b is that of
    # 1w = 10: nodes 2 and 3 are 1 and 0, both children of the root 0.
    # Each tree reads its own word.
    len_a = [-1, 0, 1, 2] + pad
    a0 = [2, 3] + [0] * (size - 2)
    a1 = [0] * size
    ab0 = [0, 0, 1, 2] + pad
    ab1 = [0] * size
    up_a = [0, 0, 0, 1] + pad  # the node p of v = x p x
    word_a = bytearray(size)
    len_b = [-1, 0, 1, 1] + pad
    b0 = [3] + [0] * (size - 1)
    b1 = [2] + [0] * (size - 1)
    bb0 = [0, 0, 0, 1] + pad
    bb1 = [0, 0, 1, 0] + pad
    up_b = [0] * size
    word_b = bytearray(size)
    word_b[0] = 1
    half = [0, 1] + [0] * (n - 2)  # LS(k) / 2 for k >= 1
    pending = []  # (depth, p in a, p in b) for appending 1
    leaf = n - 2
    depth = 1
    while True:
        # In each tree, the node p for appending 0 and for appending 1:
        # the longest palindromic suffix when the symbol before it
        # matches, else that node's direct link.
        node = depth + 2
        i = depth - len_a[node]
        if i < 0:
            pa0, pa1 = ab0[node], ab1[node]
        elif word_a[i]:
            pa0, pa1 = ab0[node], node
        else:
            pa0, pa1 = node, ab1[node]
        i = depth - len_b[node]
        if i < 0:
            pb0, pb1 = bb0[node], bb1[node]
        elif word_b[i]:
            pb0, pb1 = bb0[node], node
        else:
            pb0, pb1 = node, bb1[node]
        ok0 = not (pa0 and a1[pa0] or pb0 and b1[pb0])
        ok1 = not (pa1 and a0[pa1] or pb1 and b0[pb1])
        if depth < leaf and (ok0 or ok1):
            if not ok0:
                x, pa, pb = 1, pa1, pb1
            else:
                if ok1:
                    pending.append((depth, pa1, pb1))
                x, pa, pb = 0, pa0, pb0
        else:
            if depth == leaf:
                half[n - 1] += ok0 + ok1
            if not pending:
                break
            d, pa, pb = pending.pop()
            x = 1
            # Back to depth d: drop the nodes d + 3 .. depth + 2.
            while depth > d:
                v = depth + 2
                if word_a[depth]:
                    a1[up_a[v]] = b1[up_b[v]] = 0
                else:
                    a0[up_a[v]] = b0[up_b[v]] = 0
                depth -= 1
        depth += 1
        half[depth] += 1
        word_a[depth] = word_b[depth] = x
        v = depth + 2
        len_a[v] = len_a[pa] + 2
        len_b[v] = len_b[pb] + 2
        up_a[v], up_b[v] = pa, pb
        if x:
            s = a1[ab1[pa]] if pa else 1
            t = b1[bb1[pb]] if pb else 1
            a1[pa] = b1[pb] = v
        else:
            s = a0[ab0[pa]] if pa else 1
            t = b0[bb0[pb]] if pb else 1
            a0[pa] = b0[pb] = v
        # s and t are the longest proper palindromic suffixes of v in
        # each tree; the symbol before one in v is at depth - its length.
        if word_a[depth - len_a[s]]:
            ab0[v], ab1[v] = ab0[s], s
        else:
            ab0[v], ab1[v] = s, ab1[s]
        if word_b[depth - len_b[t]]:
            bb0[v], bb1[v] = bb0[t], t
        else:
            bb0[v], bb1[v] = t, bb1[t]
    counts = [1, 2]  # LS(0) = 1
    for k in range(1, n):
        counts.append(counts[-1] + 2 * half[k])
    return counts


def n_partition(d: DirectiveSequence, m: int, length: int) -> list[int]:
    """Decompose the characteristic prefix into blocks s_m and s_{m-1}.

    Returns the block levels in order (each entry is m or m-1); the
    blocks' concatenation is the longest full-block prefix of length at
    most `length`.
    """
    if m < 0:
        raise ValueError("partition level must be nonnegative")
    if length < 0:
        raise ValueError("length must be nonnegative")
    seq_prev, seq_cur = [m - 1], [m]
    i = m
    while d.q(i) < length or i < 1:
        seq_prev, seq_cur = seq_cur, seq_cur * d.digit(i) + seq_prev
        i += 1
    block_len = {m: d.q(m), m - 1: d.q(m - 1)}
    out = []
    total = 0
    for tag in seq_cur:
        b = block_len[tag]
        if total + b > length:
            break
        out.append(tag)
        total += b
        if total == length:
            break
    return out


def has_kth_power(w: BinaryWord, k: int) -> bool:
    """True iff w contains a factor u^k with u nonempty."""
    if k < 1:
        raise ValueError("power must be positive")
    if k == 1:
        return len(w) > 0
    n = len(w)
    if n < k:
        return False
    # x carries a sentinel bit above the n symbol bits, so leading zero
    # symbols survive the int conversion.
    x = int("1" + w.to_string("01"), 2)
    for p in range(1, n // k + 1):
        y = ~(x ^ (x >> p)) & ((1 << (n - p)) - 1)
        run = (k - 1) * p
        # y has a run of `run` set bits iff some u^k with |u| = p occurs.
        got = 1
        z = y
        while got < run and z:
            step = min(got, run - got)
            z &= z >> step
            got += step
        if z:
            return True
    return False
