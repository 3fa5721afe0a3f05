"""Exact arithmetic for rationals and real quadratic irrationals.

Every value is (a + b*sqrt(d)) / c with arbitrary-precision integers.
Rationals are stored with b == d == 0; otherwise d is squarefree and >= 2.
Normalization (gcd(a, b, c) == 1, c > 0, square part of d folded into b)
makes the encoding of a value unique, so equality is field-by-field and
hashing is consistent.

Sums, differences, products and quotients must stay inside one quadratic
field Q(sqrt(d)); mixing two radicals raises MixedRadicalError.  Order
comparisons are exact and *are* allowed across two different fields:
the sign of v + w1*sqrt(d1) + w2*sqrt(d2) for plain integers (_sign2)
is decided by squaring and never stores a two-radical value.  compare
and the mechanical and rotation words of `words` decide their
cross-field cases through it.
"""

from __future__ import annotations

import math
import re

from ._record import _Record, _setfield

__all__ = [
    "ExactReal",
    "ContinuedFraction",
    "MixedRadicalError",
    "compare",
    "cf_value",
    "cf_expand",
    "parse_real",
]


class MixedRadicalError(ValueError):
    """Arithmetic tried to combine two distinct square roots."""


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as f*f*d with d squarefree; return (f, d)."""
    f, d = 1, n
    p = 2
    while p * p <= d:
        sq = p * p
        while d % sq == 0:
            d //= sq
            f *= p
        p += 1 if p == 2 else 2
    return f, d


def _radical_sign(v: int, w: int, d: int) -> int:
    """Sign of v + w*sqrt(d) for plain integers, d >= 0."""
    if w == 0 or d == 0:
        return _sign(v)
    if w > 0:
        if v >= 0:
            return 1
        return _sign(w * w * d - v * v)
    if v <= 0:
        return -1
    return _sign(v * v - w * w * d)


def _floor_quadratic(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / c) for plain integers, c > 0, d >= 0.

    floor((a + x) / c) = floor((a + floor(x)) / c) for real x, and
    floor(b*sqrt(d)) is isqrt(b^2 d) for b >= 0 and
    -ceil(|b| sqrt(d)) = -isqrt(b^2 d - 1) - 1 for b < 0 (d > 0).
    """
    if b >= 0 or d == 0:
        return (a + math.isqrt(b * b * d)) // c
    return (a - math.isqrt(b * b * d - 1) - 1) // c


def _sign2(v: int, w1: int, d1: int, w2: int, d2: int) -> int:
    """Sign of v + w1*sqrt(d1) + w2*sqrt(d2) for plain integers, with d1
    and d2 each 0 or squarefree.

    For distinct d1, d2 >= 1 and w1, w2 != 0, the sign t of
    r = w1 sqrt(d1) + w2 sqrt(d2) is that of r sqrt(d1) = w1 d1 +
    w2 sqrt(d1 d2).  If v is 0 or of sign t, t is the answer; otherwise
    the sign of v^2 - r^2 = v^2 - w1^2 d1 - w2^2 d2 - 2 w1 w2 sqrt(d1 d2)
    decides.  Neither r nor v^2 - r^2 is 0, as d1 d2 is not a square.
    """
    if d1 == d2:
        return _radical_sign(v, w1 + w2, d1)
    if w2 == 0 or d2 == 0:
        return _radical_sign(v, w1, d1)
    if w1 == 0 or d1 == 0:
        return _radical_sign(v, w2, d2)
    t = _radical_sign(w1 * d1, w2, d1 * d2)
    if v * t >= 0:
        return t
    if _radical_sign(v * v - w1 * w1 * d1 - w2 * w2 * d2, -2 * w1 * w2, d1 * d2) > 0:
        return -t
    return t


class ExactReal:
    """(a + b*sqrt(d)) / c in normalized form."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int = 0, c: int = 1, d: int = 0):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("sqrt argument must be nonnegative")
        if b != 0 and d != 0:
            f, d = _squarefree_split(d)
            b *= f
            if d == 1:
                a, b, d = a + b, 0, 0
        self._normalize(a, b, c, d)

    @classmethod
    def _squarefree(cls, a: int, b: int, c: int, d: int) -> ExactReal:
        """(a + b*sqrt(d)) / c for c != 0 and d already 0 or squarefree.

        Arithmetic results and values built from another value's field
        come this way: they skip the trial division of the public
        constructor but get the same normal form.
        """
        self = object.__new__(cls)
        self._normalize(a, b, c, d)
        return self

    def _normalize(self, a: int, b: int, c: int, d: int) -> None:
        if b == 0 or d == 0:
            b, d = 0, 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(a, b), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def rational(cls, p: int, q: int = 1) -> ExactReal:
        return cls(p, 0, q, 0)

    @classmethod
    def sqrt(cls, n: int) -> ExactReal:
        return cls(0, 1, 1, n)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def sign(self) -> int:
        return _radical_sign(self.a, self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _common_d(self, other: ExactReal) -> int:
        if self.d and other.d and self.d != other.d:
            raise MixedRadicalError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d or other.d

    @staticmethod
    def _coerce(value) -> "ExactReal":
        if isinstance(value, ExactReal):
            return value
        if isinstance(value, int):
            return ExactReal(value)
        return NotImplemented

    def __add__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return ExactReal._squarefree(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> ExactReal:
        return ExactReal._squarefree(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return ExactReal._squarefree(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> ExactReal:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.b == 0:
            return ExactReal._squarefree(self.c, 0, self.a, 0)
        # 1/x = c*(a - b*sqrt(d)) / (a^2 - b^2 d); the norm is nonzero
        # because d is squarefree >= 2 and b != 0.
        norm = self.a * self.a - self.b * self.b * self.d
        return ExactReal._squarefree(self.c * self.a, -self.c * self.b, norm, self.d)

    def __truediv__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> ExactReal:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __lt__(self, other) -> bool:
        return compare(self, other) < 0

    def __le__(self, other) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return compare(self, other) >= 0

    def _cmp_int(self, n: int) -> int:
        return _radical_sign(self.a - n * self.c, self.b, self.d)

    def floor(self) -> int:
        """Exact, with no correction step.

        In normal form c > 0, and b != 0 implies d squarefree >= 2, so
        b^2 d is never a perfect square (each prime of d divides it to an
        odd power).  Hence isqrt(b^2 d - 1) = isqrt(b^2 d), and the
        ceiling of |b| sqrt(d) that _floor_quadratic takes for b < 0 is
        exactly isqrt(b^2 d) + 1.  For b = 0 it returns a // c.
        """
        return _floor_quadratic(self.a, self.b, self.c, self.d)

    def __float__(self) -> float:
        scale = 1 << 64
        num = self.a * scale + self.b * math.isqrt(self.d * scale * scale)
        return num / (self.c * scale)

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        joint = "+" if self.b >= 0 else "-"
        core = f"({self.a}{joint}{abs(self.b)}*sqrt({self.d}))"
        return core if self.c == 1 else f"{core}/{self.c}"

    def __repr__(self) -> str:
        return f"ExactReal({self.a}, {self.b}, {self.c}, {self.d})"


def compare(x, y) -> int:
    """Exact three-way comparison; cross-field pairs are allowed."""
    x = ExactReal(x) if isinstance(x, int) else x
    y = ExactReal(y) if isinstance(y, int) else y
    # the sign of (x - y) * x.c * y.c
    return _sign2(x.a * y.c - y.a * x.c, x.b * y.c, x.d, -y.b * x.c, y.d)


class ContinuedFraction(_Record):
    """[a0; a1, a2, ...] with an optional purely periodic tail.

    quotients holds a0 and the explicit partial quotients; periodic, when
    nonempty, repeats forever after them.  A finite expansion with more
    than one quotient must end with a quotient >= 2, the canonical form
    ([..., a, 1] is always written [..., a+1]).
    """

    _fields = ("quotients", "periodic")

    def __init__(self, quotients: tuple[int, ...], periodic: tuple[int, ...] = ()):
        quotients = tuple(int(v) for v in quotients)
        periodic = tuple(int(v) for v in periodic)
        if not quotients:
            raise ValueError("a continued fraction needs at least a0")
        if quotients[0] < 0:
            raise ValueError("a0 must be nonnegative")
        if any(v < 1 for v in quotients[1:]) or any(v < 1 for v in periodic):
            raise ValueError("partial quotients must be positive")
        if not periodic and len(quotients) > 1 and quotients[-1] < 2:
            raise ValueError("canonical finite expansions end with a quotient >= 2")
        _setfield(self, "quotients", quotients)
        _setfield(self, "periodic", periodic)

    def value(self) -> ExactReal:
        return cf_value(self)

    def __str__(self) -> str:
        head = str(self.quotients[0])
        parts = [str(v) for v in self.quotients[1:]]
        if self.periodic:
            parts.append("(" + ",".join(str(v) for v in self.periodic) + ")")
        return f"[{head};{','.join(parts)}]" if parts else f"[{head}]"

    @classmethod
    def parse(cls, text: str) -> ContinuedFraction:
        s = text.strip().replace(" ", "")
        m = re.fullmatch(r"\[(\d+)(?:;(.*))?\]", s)
        if not m:
            raise ValueError(f"bad continued fraction string: {text!r}")
        head = int(m.group(1))
        rest = m.group(2) or ""
        quotients = [head]
        periodic: list[int] = []
        if rest:
            pm = re.fullmatch(r"(?:(\d+(?:,\d+)*),?)?(?:\((\d+(?:,\d+)*)\))?", rest)
            if not pm or (pm.group(1) is None and pm.group(2) is None):
                raise ValueError(f"bad continued fraction string: {text!r}")
            if pm.group(1):
                quotients.extend(int(v) for v in pm.group(1).split(","))
            if pm.group(2):
                periodic = [int(v) for v in pm.group(2).split(",")]
        return cls(tuple(quotients), tuple(periodic))


def cf_value(cf: ContinuedFraction) -> ExactReal:
    """Exact value of a finite or eventually periodic continued fraction."""
    if cf.periodic:
        # Fixed point of the tail: y = (A y + B) / (C y + D) where the
        # matrix is the product of [[t, 1], [1, 0]] over one period.  The
        # positive root is the right one since B, C > 0 force one root of
        # each sign.
        A, B, C, D = 1, 0, 0, 1
        for t in cf.periodic:
            A, B, C, D = A * t + B, A, C * t + D, C
        disc = (D - A) * (D - A) + 4 * B * C
        v = ExactReal(A - D, 1, 2 * C, disc)
        if v.is_rational:
            raise ValueError("periodic tail collapsed to a rational value")
        terms = cf.quotients
    else:
        v = ExactReal(cf.quotients[-1])
        terms = cf.quotients[:-1]
    for a in reversed(terms):
        v = ExactReal(a) + v.inverse()
    return v


def cf_expand(x: ExactReal, count: int) -> list[int]:
    """First partial quotients [0, a1, ..., a_count] of x in (0, 1).

    Rational x may exhaust earlier; the finite expansion then ends with
    its canonical last quotient (always >= 2 with the floor algorithm).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if x.sign() <= 0 or x._cmp_int(1) >= 0:
        raise ValueError("cf_expand needs 0 < x < 1")
    out = [0]
    v = x
    for _ in range(count):
        v = v.inverse()
        a = v.floor()
        out.append(a)
        v = v - ExactReal(a)
        if v.is_zero():
            break
    return out


# an optional denominator, which has a nonzero digit
_DEN = r"(?:/(\d*[1-9]\d*))?"
_RATIONAL_RE = re.compile(r"([+-]?\d+)" + _DEN)
_QUAD_RE = re.compile(r"\(([+-]?\d+)([+-])(?:(\d+)\*)?sqrt\((\d+)\)\)" + _DEN)
_ROOT_RE = re.compile(r"([+-]?\d+\*)?sqrt\((\d+)\)" + _DEN)


def parse_real(text: str) -> ExactReal:
    """Parse 'p', 'p/q', '(a+b*sqrt(d))/c' or 'sqrt(d)' forms; a zero
    denominator is malformed text, a ValueError."""
    s = text.strip().replace(" ", "")
    m = _RATIONAL_RE.fullmatch(s)
    if m:
        return ExactReal(int(m.group(1)), 0, int(m.group(2) or 1), 0)
    m = _QUAD_RE.fullmatch(s)
    if m:
        b = int(m.group(3) or 1)
        if m.group(2) == "-":
            b = -b
        return ExactReal(int(m.group(1)), b, int(m.group(5) or 1), int(m.group(4)))
    m = _ROOT_RE.fullmatch(s)
    if m:
        b = int(m.group(1)[:-1]) if m.group(1) else 1
        return ExactReal(0, b, int(m.group(3) or 1), int(m.group(2)))
    raise ValueError(f"bad exact-real string: {text!r}")
