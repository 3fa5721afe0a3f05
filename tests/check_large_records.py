"""Recompute the large fib palindromic-length records outside tier-1.

Reads tests/data/fib_large_records.json, recomputes the records with
pal_length_profile over the stored length, and exits 1 on a mismatch.
It prints the wall time and the process's peak resident memory.  The
DP holds the whole prefix, about 34 bytes per symbol, so expect
about 1.1 GB and 35 s for record 13 at 31,622,993 symbols.

    python tests/check_large_records.py

pytest does not collect this file (its name does not start with test_).
"""

import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sturmian.palindromes import pal_length_profile  # noqa: E402
from sturmian.words import DirectiveSequence  # noqa: E402


def main() -> int:
    golden = json.loads((HERE / "data" / "fib_large_records.json").read_text())
    length = golden["length"]
    expected = [tuple(pair) for pair in golden["records"]]
    start = time.perf_counter()
    got = pal_length_profile(DirectiveSequence.parse("fib"), length, cap=length)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"fib, {length} symbols: {wall:.2f} s, peak RSS {peak:.0f} MB")
    if got != expected:
        print(f"mismatch: expected {expected}, got {got}")
        return 1
    print(f"{len(got)} records match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
