"""Counting formulas and their brute-force oracles.

The closed forms (total count of balanced factors, face count of the
rotation-word line arrangement) are evaluated exactly with big integers.
Each one has an independent oracle: exhaustive enumeration of balanced
words, and an exact sweep / face enumeration of the dual line
arrangement in the unit parameter square.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .exactnum import ExactReal, compare
from .words import BinaryWord, rotation_word

__all__ = [
    "euler_phi",
    "euler_phi_sieve",
    "sturmian_total",
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

DEFAULT_BALANCED_CAP = 40
DEFAULT_SWEEP_CAP = 14


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


def _try_extend(bits, ones, mn, mx, x):
    """Append symbol x, updating per-window-length one-count ranges.

    Returns (ok, changed): ok is False when some window length now
    spreads by more than 1; changed lists the (length, old_min, old_max)
    entries to restore on backtrack.
    """
    j = len(bits)
    s = ones[-1] + x
    bits.append(x)
    ones.append(s)
    changed = []
    ok = True
    for ell in range(1, j + 2):
        v = s - ones[j + 1 - ell]
        lo = mn[ell]
        hi = mx[ell]
        if v < lo or v > hi:
            nlo = v if v < lo else lo
            nhi = v if v > hi else hi
            if nhi - nlo > 1:
                ok = False
                break
            changed.append((ell, lo, hi))
            mn[ell] = nlo
            mx[ell] = nhi
    return ok, changed


def _undo_extend(bits, ones, mn, mx, changed):
    for ell, lo, hi in changed:
        mn[ell] = lo
        mx[ell] = hi
    bits.pop()
    ones.pop()


def _count_completions(n, bits, ones, mn, mx):
    if len(bits) == n:
        return 1
    total = 0
    for x in (0, 1):
        ok, changed = _try_extend(bits, ones, mn, mx, x)
        if ok:
            total += _count_completions(n, bits, ones, mn, mx)
        _undo_extend(bits, ones, mn, mx, changed)
    return total


def balanced_count(n: int, cap: int = DEFAULT_BALANCED_CAP) -> int:
    """Number of balanced binary words of length n, counted by walking
    the tree of balanced prefixes (unbalanced prefixes cannot extend to
    balanced words, so pruning loses nothing)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > cap:
        raise CapExceededError(
            f"balanced-word enumeration is capped at length {cap}, got {n}"
        )
    return _count_completions(n, [], [0], [n + 2] * (n + 1), [-1] * (n + 1))


def rotation_face_count(n: int) -> int:
    """Faces of the order-n rotation arrangement in the unit square:
    2 + n(n+1)(n+2)/3 + 2 * sum of (n - q + 1) * phi(q)."""
    if n < 1:
        raise ValueError("order must be positive")
    phi = euler_phi_sieve(n)
    cubic = n * (n + 1) * (n + 2) // 3
    return 2 + cubic + 2 * sum((n - q + 1) * phi[q] for q in range(1, n + 1))


@dataclass(frozen=True)
class ArrangementLine:
    """The line coeff * alpha + rho = level in the (alpha, rho) square.

    kind is 'integer' (level is a whole number), 'shifted' (level is a
    whole number minus sigma), or 'boundary' (rho = 0 or rho = 1).
    """

    coeff: int
    level: ExactReal
    kind: str

    def height_at(self, alpha: ExactReal) -> ExactReal:
        return self.level - alpha * self.coeff


def _check_sigma(sigma: ExactReal) -> None:
    if not (sigma.sign() > 0 and compare(sigma, 1) < 0):
        raise ValueError(f"sigma must lie in (0,1), got {sigma}")


def arrangement_lines(order: int, sigma: ExactReal) -> list[ArrangementLine]:
    """All lines of the order-n arrangement that meet the open unit
    square, plus the two horizontal boundaries."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_sigma(sigma)
    lines = [
        ArrangementLine(0, ExactReal(0), "boundary"),
        ArrangementLine(0, ExactReal(1), "boundary"),
    ]
    for q in range(1, order + 1):
        for level in range(1, q + 1):
            lines.append(ArrangementLine(q, ExactReal(level), "integer"))
    for q in range(0, order + 1):
        for level in range(1, q + 2):
            lines.append(ArrangementLine(q, ExactReal(level) - sigma, "shifted"))
    return lines


@dataclass(frozen=True)
class FaceSample:
    """One interior point of an arrangement face and its rotation word."""

    alpha: ExactReal
    rho: ExactReal
    word: BinaryWord


def rotation_word_samples(sigma: ExactReal, length: int, cap: int = DEFAULT_SWEEP_CAP):
    """Yield one FaceSample per face of the arrangement of order
    length - 1, sweeping vertical strips between consecutive exact
    alpha-breakpoints.

    Faces straddling several strips are sampled once per strip; callers
    that count distinct words de-duplicate on the word.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if length > cap:
        raise CapExceededError(
            f"rotation-word sweep is capped at length {cap}, got {length}"
        )
    if sigma.is_rational:
        raise ValueError("sweep needs an irrational sigma (rational slopes degenerate)")
    _check_sigma(sigma)

    lines = arrangement_lines(length - 1, sigma)
    breaks = {ExactReal(0), ExactReal(1)}
    for i, li in enumerate(lines):
        for lj in lines[i + 1 :]:
            if li.coeff == lj.coeff:
                continue
            a = (li.level - lj.level) / (li.coeff - lj.coeff)
            if a.sign() > 0 and compare(a, 1) < 0:
                breaks.add(a)
    cuts = sorted(breaks)
    two = ExactReal(2)
    zero, one = ExactReal(0), ExactReal(1)
    for idx in range(len(cuts) - 1):
        a_mid = (cuts[idx] + cuts[idx + 1]) / two
        heights = []
        for ln in lines:
            if ln.kind == "boundary":
                continue
            h = ln.height_at(a_mid)
            if h.sign() > 0 and compare(h, 1) < 0:
                heights.append((h, ln))
        heights.sort(key=lambda item: item[0])
        levels = [zero] + [h for h, _ in heights] + [one]
        rho = (levels[0] + levels[1]) / two
        word = bytearray(rotation_word(a_mid, rho, sigma, length).raw)
        yield FaceSample(a_mid, rho, BinaryWord._from_raw(bytes(word)))
        for j, (_, ln) in enumerate(heights):
            # Crossing a line upward wraps {coeff*alpha + rho} past an
            # integer (symbol becomes 0) or past 1 - sigma (symbol
            # becomes 1).
            word[ln.coeff] = 0 if ln.kind == "integer" else 1
            rho = (levels[j + 1] + levels[j + 2]) / two
            yield FaceSample(a_mid, rho, BinaryWord._from_raw(bytes(word)))


def rotation_word_count(sigma: ExactReal, length: int, cap: int = DEFAULT_SWEEP_CAP) -> int:
    """Number of distinct rotation words of the given length over all
    (alpha, rho) in the unit square, counted by the exact sweep."""
    seen = set()
    for sample in rotation_word_samples(sigma, length, cap=cap):
        seen.add(sample.word.raw)
    return len(seen)


def arrangement_face_count(sigma: ExactReal, order: int) -> int:
    """Faces of the order-n arrangement inside the unit square, counted
    through the Euler relation on the exact intersection graph.

    Independent of rotation_face_count: this builds every vertex and
    edge of the subdivision (square edges included) and returns
    edges - vertices + 1.
    """
    lines = arrangement_lines(order, sigma)
    zero, one = ExactReal(0), ExactReal(1)

    def in_unit(t: ExactReal) -> bool:
        return t.sign() >= 0 and compare(t, one) <= 0

    points_on: dict[tuple, set] = {("l", i): set() for i in range(len(lines))}
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
            r = li.height_at(a)
            if not in_unit(r):
                continue
            pt = (a, r)
            points_on[("l", i)].add(pt)
            points_on[("l", j)].add(pt)
    for vi, v in enumerate((zero, one)):
        for i, li in enumerate(lines):
            r = li.height_at(v)
            if in_unit(r):
                pt = (v, r)
                points_on[("v", vi)].add(pt)
                points_on[("l", i)].add(pt)

    vertices = set()
    edges = 0
    for pts in points_on.values():
        if not pts:
            continue
        vertices |= pts
        # A curve through k distinct points splits into k - 1 segments.
        edges += len(pts) - 1
    return edges - len(vertices) + 1
