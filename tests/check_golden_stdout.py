#!/usr/bin/env python3
"""Run a program and compare its stdout byte for byte with a golden file.

    check_golden_stdout.py <program> <golden-file>

Fails when the program exits nonzero or its stdout differs from the golden
file (a unified diff is printed). With MERCURY_REGEN_GOLDEN=1 in the
environment the golden file is rewritten from this run instead; do that only
when the program's output legitimately changes.
"""
import difflib
import os
import subprocess
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    program, golden = sys.argv[1], sys.argv[2]
    run = subprocess.run([program], stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"{program} exited with status {run.returncode}", file=sys.stderr)
        return 1
    if os.environ.get("MERCURY_REGEN_GOLDEN") == "1":
        with open(golden, "wb") as out:
            out.write(run.stdout)
        print(f"regenerated {golden} ({len(run.stdout)} bytes)")
        return 0
    with open(golden, "rb") as f:
        expected = f.read()
    if run.stdout == expected:
        return 0
    diff = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(keepends=True),
        run.stdout.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=golden, tofile=f"{program} stdout")
    sys.stdout.writelines(diff)
    print(f"\nstdout differs from {golden}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
