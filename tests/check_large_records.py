"""Recompute the large palindromic-length records outside tier-1.

Reads tests/data/large_records.json, recomputes the records of each
stored directive with pal_length_profile over its stored length, and
exits 1 on a mismatch.  It prints the wall time of each directive and
the process's peak resident memory.  The DP holds the whole prefix,
about 20 bytes per symbol: `fib` record 13 at 31,622,993 symbols took
43 s and 680 MB, and `2,(2)` record 11 at 15,937,305 took 21 s, 65 s
in all (shared 2-vCPU VM, Python 3.11.7).

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
    golden = json.loads((HERE / "data" / "large_records.json").read_text())
    failed = 0
    for entry in golden["directives"]:
        d, length = entry["d"], entry["length"]
        expected = [tuple(pair) for pair in entry["records"]]
        start = time.perf_counter()
        got = pal_length_profile(DirectiveSequence.parse(d), length, cap=length)
        wall = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{d}, {length} symbols: {wall:.2f} s, peak RSS so far {peak:.0f} MB")
        if got != expected:
            print(f"mismatch: expected {expected}, got {got}")
            failed += 1
        else:
            print(f"{len(got)} records match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
