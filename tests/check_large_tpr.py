"""Check the pinned large `verify tpr` outputs outside tier-1.

Runs `python -m sturmian verify tpr` on each entry of "large_cases" in
tests/data/tpr_stdout_sha256.json, hashes its stdout as it arrives,
and exits 1 if an exit code, byte count or sha256 differs.  It prints
the wall time and peak resident memory of each run.  Run it under an
address-space limit to check the memory too, as the CI job does:

    (ulimit -v 143360; python tests/check_large_tpr.py)

pytest does not collect this file (its name does not start with test_).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")


def run(case) -> tuple[int, int, str, float, float]:
    """(exit code, stdout bytes, stdout sha256, wall s, peak RSS MB)."""
    argv = [sys.executable, "-m", "sturmian", "verify", "tpr", "--d", case["d"],
            "--pmax", str(case["pmax"]), "--cap", str(case["cap"]),
            "--format", case["format"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("STURM_CAP", None)
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    digest, size = hashlib.sha256(), 0
    for block in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(block)
        size += len(block)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return code, size, digest.hexdigest(), wall, usage.ru_maxrss / 1024


def main() -> int:
    doc = json.loads((HERE / "data" / "tpr_stdout_sha256.json").read_text())
    failed = 0
    for case in doc["large_cases"]:
        code, size, sha, wall, peak = run(case)
        print(f"{case['d']} --pmax {case['pmax']} --format {case['format']}: "
              f"{wall:.2f} s, peak RSS {peak:.0f} MB")
        if (code, size, sha) != (case["exit"], case["bytes"], case["sha256"]):
            print(f"mismatch: exit {code}, {size} bytes, sha256 {sha}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
