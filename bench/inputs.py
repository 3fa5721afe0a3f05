"""The benchmark's inputs, drawn from the seed and built with the package.

Run as a script, this is the set-up that `setup_s` times: a fresh
interpreter that imports `sturmian.cli`, before any other module of the
benchmark, and builds one workload's inputs.  It imports nothing else,
so the figure is the program's time to ready, as a CLI user pays it.

    python3 bench/inputs.py WORKLOAD SEED

The fixed inputs are the same for every seed.  The seed draws one extra
directive sequence per workload (small digits, periodic tail) and, in
`exact`, the intercepts and the flipped position.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

import sturmian.cli  # noqa: E402  (the CLI's import is part of set-up)
from sturmian.exactnum import parse_real  # noqa: E402
from sturmian.words import (  # noqa: E402
    BinaryWord,
    DirectiveSequence,
    characteristic_prefix,
)

# search: (directive, verify tpr --pmax, verify zd --nmax), sized so that
# each verb takes about half of the round.
SEARCH = [("fib", 300, 170), ("2,(2)", 300, 400), ("1,1,1,1,8,(1)", 300, 300)]
SEARCH_SEEDED = (150, 100)

# profile: (directive, pal profile --length); fib above the default cap
# of 200 000 symbols.
PROFILE = [("fib", 220_000), ("2,(2)", 80_000)]
PROFILE_SEEDED = 30_000

# exact.  On 200,(1) the doubling in the two factor counts stops when
# the prefixes a^64 and a^128 agree, so some of its counts are wrong;
# they are counted as failed until the prefix length is proved.
FACTOR_DIRECTIVES = ["fib", "200,(1)"]
KNOWN_FAULT = "200,(1)"
FACTOR_NMAX = 60
BALANCED_N = 34
FACE_SIGMA, FACE_ORDER = "(-1+sqrt(2))", 14
# slopes (a + b sqrt(d)) / c and their CLI spelling
SLOPES = [
    ((-1, 1, 1, 2), "(-1+sqrt(2))"),
    ((3, -1, 2, 5), "(3-sqrt(5))/2"),
    ((0, 1, 7, 7), "sqrt(7)/7"),
]
RHO_DENOMINATOR = 7
MECHANICAL_LENGTH = 10_000
BALANCE_LENGTH = 3000

_MASK = (1 << 64) - 1


class Draws:
    """A 64-bit linear congruential generator keyed by workload and seed.

    It stands in for `random` so that the set-up child loads no module
    that the package does not load itself.
    """

    def __init__(self, workload: str, seed: int):
        state = seed & _MASK
        for ch in workload:
            state = (state * 1_000_003 + ord(ch)) & _MASK
        self.state = state
        for _ in range(4):  # move away from the nearby keys of nearby seeds
            self.below(2)

    def below(self, n: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & _MASK
        return (self.state >> 32) % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def seeded_directive(draws: Draws) -> str:
    head = [draws.between(1, 3) for _ in range(draws.between(1, 3))]
    tail = [draws.between(1, 3) for _ in range(draws.between(1, 3))]
    return ",".join(map(str, head)) + ",(" + ",".join(map(str, tail)) + ")"


def search(draws: Draws) -> list:
    return SEARCH + [(seeded_directive(draws), *SEARCH_SEEDED)]


def profile(draws: Draws) -> list:
    return PROFILE + [(seeded_directive(draws), PROFILE_SEEDED)]


def exact(draws: Draws) -> dict:
    seeded = seeded_directive(draws)
    prefix = characteristic_prefix(DirectiveSequence.parse(seeded), BALANCE_LENGTH)
    flip_at = draws.between(BALANCE_LENGTH // 3, 2 * BALANCE_LENGTH // 3 - 1)
    flipped = bytearray(prefix.raw)
    flipped[flip_at] ^= 1
    factor = FACTOR_DIRECTIVES + [seeded]
    return {
        "seeded": seeded,
        "sigma": parse_real(FACE_SIGMA),
        "rhos": [draws.between(0, RHO_DENOMINATOR - 1) for _ in SLOPES],
        "prefix": prefix,
        "flipped": BinaryWord(flipped),
        "factor": [(text, DirectiveSequence.parse(text)) for text in factor],
    }


WORKLOADS = {"search": search, "profile": profile, "exact": exact}


def build(workload: str, seed: int):
    """The inputs of workload `workload` for `seed`."""
    return WORKLOADS[workload](Draws(workload, seed))


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
