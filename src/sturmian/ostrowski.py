"""Numeration system attached to a directive sequence.

A nonnegative integer N is written as a digit vector (k_0, k_1, ...)
with N = sum of k_i * q_i, where q_i is the length of the i-th standard
word.  Digits are stored least significant first; renderings are most
significant first.  Three properties of a digit vector matter here:

  canonical  greedy digits (k_i <= d_i, and k_i = d_i forces
             k_{i-1} = 0, with k_0 <= d_0); unique per N up to leading
             zeros
  legal      0 <= k_i <= d_i only
  valid      the concatenation s_n^{k_n} ... s_0^{k_0} really is the
             length-N prefix of the characteristic word

Every canonical vector is legal and every legal vector is valid; the
converses fail, which is why validity gets an exhaustive enumerator.
"""

from __future__ import annotations

from ._record import _Record, _setfield
from .errors import CapExceededError
from .words import (
    BinaryWord,
    DirectiveSequence,
    _top_level,
    characteristic_prefix,
    standard_words,
)

__all__ = [
    "standard_lengths",
    "OstrowskiRep",
    "encode",
    "decode",
    "is_legal",
    "is_canonical",
    "is_valid",
    "digits_to_word",
    "enumerate_valid_reps",
    "enumerate_legal_reps",
    "rep_sort_key",
    "DEFAULT_ENUM_CAP",
]

DEFAULT_ENUM_CAP = 5000


def standard_lengths(d: DirectiveSequence, n: int) -> list[int]:
    """[q_{-1}, q_0, ..., q_n] with q_{-1} = q_0 = 1 and
    q_{i+1} = d_i q_i + q_{i-1}."""
    if n < -1:
        raise ValueError("index must be at least -1")
    return [d.q(i) for i in range(-1, n + 1)]


class OstrowskiRep(_Record):
    """A digit vector over a directive sequence, least significant first.

    Trailing zero digits (leading zeros in the rendered form) are
    stripped, so representations that differ only by leading zeros
    compare equal.
    """

    _fields = ("d", "digits")

    def __init__(self, d: DirectiveSequence, digits: tuple[int, ...]):
        digs = tuple(map(int, digits))
        if digs and min(digs) < 0:
            raise ValueError("digits must be nonnegative")
        while digs and digs[-1] == 0:
            digs = digs[:-1]
        _setfield(self, "d", d)
        _setfield(self, "digits", digs)

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be nonnegative")
        return self.digits[i] if i < len(self.digits) else 0

    @property
    def top(self) -> int:
        """Index of the most significant stored digit (-1 for zero)."""
        return len(self.digits) - 1

    def render(self) -> str:
        return _render(self.digits)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str, d: DirectiveSequence) -> OstrowskiRep:
        s = text.strip()
        parts = s.split(".") if "." in s else list(s)
        if not parts or not all(p.isdigit() for p in parts):
            raise ValueError(f"bad digit string: {text!r}")
        return cls(d, tuple(int(p) for p in reversed(parts)))


_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _render(digits) -> str:
    """A digit vector, least significant first, as OstrowskiRep.render
    shows it: most significant first, leading zeros dropped, and the
    digits joined by dots if any is 10 or more."""
    top = len(digits)
    while top and not digits[top - 1]:
        top -= 1
    if not top:
        return "0"
    msb = digits[top - 1 :: -1]
    if max(msb) < 10:
        return _digit_string(msb)
    return ".".join(map(str, msb))


def _digit_string(msb) -> str:
    """Digits 0..9, in the order given, as one string, zeros kept."""
    return bytes(msb).translate(_DIGIT_CHARS).decode("ascii")


def rep_sort_key(rep: OstrowskiRep):
    """Deterministic ordering: by top index, then lexicographically from
    the most significant digit down."""
    return (len(rep.digits), tuple(reversed(rep.digits)))


def encode(N: int, d: DirectiveSequence) -> OstrowskiRep:
    """The canonical (greedy, most significant first) digit vector of N.

    Greedy extraction keeps every digit within its bound and zeroes the
    digit below any maxed-out one, so the result is canonical.
    """
    if N < 0:
        raise ValueError("only nonnegative integers are representable")
    top = _top_level(d, N)
    try:
        d.q(top + 1)
    except IndexError:
        raise ValueError(
            f"finite directive sequence cannot represent {N} "
            f"(its digit range stops below that value)"
        ) from None
    qs = [d.q(j) for j in range(top + 1)]
    return OstrowskiRep(d, tuple(_greedy_digits(N, qs)))


def _greedy_digits(N: int, qs) -> list[int]:
    """The canonical digits of N, least significant first, over the
    levels qs = [q_0, ..., q_t] with q_{t+1} > N; leading zeros
    dropped.  Digit j is taken greedily from the top, so the remainder
    below it is less than q_j."""
    out = [0] * len(qs)
    for j in range(len(qs) - 1, -1, -1):
        out[j], N = divmod(N, qs[j])
    while out and not out[-1]:
        out.pop()
    return out


def _greedy_digits_below(n: int, qs) -> list[tuple[int, ...]]:
    """_greedy_digits of every N < n (n >= 1), each from a shorter N's.
    With k the top level (q_k <= N < q_{k+1}) and N = x_k q_k + r,
    greedy extraction takes x_k at level k and then r's digits, all
    below k since r < q_k: x(N) is x(r), then zeros up to level k, then
    x_k."""
    out = [()]
    k = 0
    for N in range(1, n):
        while k + 1 < len(qs) and qs[k + 1] <= N:
            k += 1
        x_k, r = divmod(N, qs[k])
        low = out[r]
        out.append(low + (0,) * (k - len(low)) + (x_k,))
    return out


def decode(rep: OstrowskiRep) -> int:
    """sum of k_i * q_i over the stored digits."""
    return sum(k * rep.d.q(i) for i, k in enumerate(rep.digits))


def is_legal(rep: OstrowskiRep) -> bool:
    """True iff every digit satisfies 0 <= k_i <= d_i."""
    for i, k in enumerate(rep.digits):
        try:
            if k > rep.d.digit(i):
                return False
        except IndexError:
            return False
    return True


def is_canonical(rep: OstrowskiRep) -> bool:
    """True iff legal and no digit below a maxed-out digit is nonzero."""
    if not is_legal(rep):
        return False
    digs = rep.digits
    for i in range(1, len(digs)):
        if digs[i] == rep.d.digit(i) and digs[i - 1] != 0:
            return False
    return True


def digits_to_word(rep: OstrowskiRep) -> BinaryWord:
    """The concatenation s_n^{k_n} ... s_0^{k_0}, whatever its validity."""
    if not rep.digits:
        return BinaryWord()
    words = standard_words(rep.d, len(rep.digits) - 1)
    parts = []
    for i in range(len(rep.digits) - 1, -1, -1):
        k = rep.digits[i]
        if k:
            parts.append(words[i + 1].raw * k)
    return BinaryWord._from_raw(b"".join(parts))


def is_valid(rep: OstrowskiRep) -> bool:
    """True iff the digit-induced concatenation equals the characteristic
    prefix of length decode(rep)."""
    w = digits_to_word(rep)
    return w.raw == characteristic_prefix(rep.d, len(w)).raw


class _ValidDigitDag:
    """The valid digit vectors of every N <= n, as paths in one DAG.

    While digits are placed most significant first, the copies already
    placed cover the first pos symbols of the characteristic prefix, so
    a partial vector is just a node (level i, position pos), the same
    for every N.  An edge takes k >= 0 consecutive copies of s_i, each
    matching the prefix where it lands, from (i, pos) to
    (i - 1, pos + k * q_i); the paths from (top, 0) that leave level 0
    at position N are the valid vectors of N.  runs[i][pos] is the most
    copies of s_i that fit at pos, so the edges out of (i, pos) are
    k = 0..runs[i][pos].
    """

    def __init__(self, d: DirectiveSequence, n: int):
        self.n = n
        self.qs = standard_lengths(d, _top_level(d, n))[1:]
        prefix = characteristic_prefix(d, n).raw
        self.runs = []
        for q, w in zip(self.qs, standard_words(d, len(self.qs) - 1)[1:]):
            # the positions where s_i matches, from bytes.find, filled
            # from the right so each run extends the one q further on
            w, hits = w.raw, []
            p = prefix.find(w)
            while p >= 0:
                hits.append(p)
                p = prefix.find(w, p + 1)
            run = [0] * (n + 1)
            for p in reversed(hits):
                run[p] = run[p + q] + 1
            self.runs.append(run)

    def valid(self, digits, pos: int = 0) -> bool:
        """True iff the digit vector (least significant first) is a path
        from the node (len(digits) - 1, pos).  With pos 0 that node is
        the root, and for a vector decoding to at most n this is
        is_valid read off the run table.  Trailing zeros are allowed."""
        top = len(digits) - 1
        while top >= 0 and not digits[top]:
            top -= 1
        if top >= len(self.runs):
            return False
        runs, qs = self.runs, self.qs
        for i in range(top, -1, -1):
            k = digits[i]
            if k:
                if k > runs[i][pos]:
                    return False
                pos += k * qs[i]
        return True

    def forward(self) -> list[set[int]]:
        """For each level, the positions its nodes are reached at from
        the root."""
        reach = [{0}]
        # from the top level down to level 1, each feeding the one below
        for q, run in zip(self.qs[:0:-1], self.runs[:0:-1]):
            here = reach[-1]
            reach.append({p + k * q for p in here for k in range(run[p] + 1)})
        return reach[::-1]

    def below(self, targets: int):
        """Yield, for each level from 0 up, the end bitsets of the
        level under it: entry pos has bit N set iff bit N of targets is
        set and some path from (i - 1, pos) leaves level 0 at N."""
        ends = [(1 << p) & targets for p in range(self.n + 1)]
        for q, run in zip(self.qs, self.runs):
            yield ends
            ends = ends[:]
            # k >= 1 copies at pos are one copy, then k - 1 from pos + q.
            for p in range(self.n - q, -1, -1):
                if run[p]:
                    ends[p] |= ends[p + q]


def enumerate_valid_reps(
    N: int, d: DirectiveSequence, cap: int = DEFAULT_ENUM_CAP
) -> set[OstrowskiRep]:
    """All valid digit vectors of N.

    Walks the paths of the valid-digit DAG up to N that end at N
    (see _ValidDigitDag): an edge is taken only when the end bitset of
    its target node holds N, so no dead branch is visited.
    """
    if N < 0:
        raise ValueError("only nonnegative integers are representable")
    if N > cap:
        raise CapExceededError(
            f"valid-representation enumeration is capped at {cap}, got {N}"
        )
    dag = _ValidDigitDag(d, N)
    ok = list(dag.below(1 << N))
    out: set[OstrowskiRep] = set()

    def descend(i: int, pos: int, acc: list[int]) -> None:
        if i < 0:
            out.add(OstrowskiRep(d, tuple(reversed(acc))))
            return
        q, run, alive = dag.qs[i], dag.runs[i], ok[i]
        acc.append(0)
        for k in range(run[pos] + 1):
            p = pos + k * q
            if alive[p]:
                acc[-1] = k
                descend(i - 1, p, acc)
        acc.pop()

    descend(len(dag.qs) - 1, 0, [])
    return out


def enumerate_legal_reps(
    N: int, d: DirectiveSequence, cap: int = DEFAULT_ENUM_CAP
) -> set[OstrowskiRep]:
    """All legal digit vectors summing to N (validity not required)."""
    if N < 0:
        raise ValueError("only nonnegative integers are representable")
    if N > cap:
        raise CapExceededError(
            f"legal-representation enumeration is capped at {cap}, got {N}"
        )
    # Legal digits need their bound d_i, so a finite sequence stops at
    # its last digit.
    top = _top_level(d, N)
    if d.is_finite:
        top = min(top, len(d.explicit) - 1)
    qs = standard_lengths(d, top)
    # Largest sum reachable using digits 0..idx, for pruning.
    reach = [0] * (top + 1)
    run = 0
    for j in range(top + 1):
        run += d.digit(j) * qs[j + 1]
        reach[j] = run
    out: set[OstrowskiRep] = set()

    def descend(idx: int, rem: int, acc: list[int]) -> None:
        if idx < 0:
            if rem == 0:
                out.add(OstrowskiRep(d, tuple(reversed(acc))))
            return
        if rem > reach[idx]:
            return
        q = qs[idx + 1]
        for k in range(min(rem // q, d.digit(idx)) + 1):
            acc.append(k)
            descend(idx - 1, rem - k * q, acc)
            acc.pop()

    descend(top, N, [])
    return out
