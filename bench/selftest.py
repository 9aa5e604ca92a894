"""Self-test of the benchmark's checks: a bad command must count as failed.

    python3 bench/selftest.py

Runs one real `ring` command and checks it passes. Then it corrupts that
command's transforms.json so a hardened target leaves the ring, and runs a
command that must exit non-zero (its data directory does not exist). Each of
the two must count as one failed operation. Exits 0 when all three hold.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    env = run.thread_env()
    deadline = time.monotonic() + run.HARD_LIMIT_S
    try:
        wl = run.prepare("ring", 0, work / "inputs")
        good = run.run_op(wl.argv, work / "good", False, deadline, env)
        run.check(good, wl, None)

        corrupt = run.run_op(wl.argv, work / "corrupt", False, deadline, env)
        path = corrupt.out_dir / "transforms.json"
        doc = json.loads(path.read_text())
        doc["targets"][0][0] = 8  # vertex 0 of the 16-ring neighbours 15, 0, 1
        path.write_text(json.dumps(doc))
        run.check(corrupt, wl, good)

        missing = ["train", "--dataset", "cifar10", "--data-dir",
                   str(work / "no-such-dir"), "--steps", "1"]
        nonzero = run.run_op(missing, work / "nonzero", False, deadline, env)
        run.check(nonzero, wl, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cases = [("clean ring command passes", not good.problems, good),
             ("corrupted transforms.json fails", bool(corrupt.problems), corrupt),
             ("non-zero exit fails", bool(nonzero.problems), nonzero)]
    for label, ok, op in cases:
        print(f"{'PASS' if ok else 'FAIL'}: {label}: {op.problems or 'no problems'}")
    failed_ops = sum(bool(op.problems) for _, _, op in cases)
    print(f"{failed_ops} of {len(cases)} operations counted as failed")
    return 0 if all(ok for _, ok, _ in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
