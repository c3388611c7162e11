#!/usr/bin/env python3
"""Self-test of the max_rss launcher.

    check_max_rss.py <max_rss-binary>

A trivial child must read under 4 MB (a launcher that inherits a large
parent's high-water mark cannot), a child that touches 32 MB must read at
least that, and the child's exit status must pass through.
"""
import os
import subprocess
import sys
import tempfile


def run(launcher, argv, report):
    status = subprocess.run([launcher, "-o", report] + argv, check=False).returncode
    with open(report) as f:
        key, value = f.read().split()
    assert key == "max_rss_kb", key
    return status, int(value)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    launcher = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "rss.txt")

        status, kb = run(launcher, ["/bin/true"], report)
        print(f"/bin/true: status {status}, max RSS {kb} kB")
        if status != 0 or kb >= 4 * 1024:
            failures.append("/bin/true must exit 0 under 4 MB")

        status, kb = run(launcher, ["/bin/sh", "-c", "exit 3"], report)
        print(f"sh -c 'exit 3': status {status}, max RSS {kb} kB")
        if status != 3:
            failures.append("the child's exit status must pass through")

        touch = "b = bytearray(32 << 20)\nfor i in range(0, len(b), 4096): b[i] = 1"
        status, kb = run(launcher, [sys.executable, "-c", touch], report)
        print(f"32 MB child: status {status}, max RSS {kb} kB")
        if status != 0 or kb < 32 * 1024:
            failures.append("a child touching 32 MB must read at least 32 MB")

    status = subprocess.run([launcher], stderr=subprocess.DEVNULL,
                            check=False).returncode
    if status != 2:
        failures.append("no program must be a usage error (status 2)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
