#!/usr/bin/env python3
"""End-to-end checks of the trace files on disk and `mercury_ctl chrome`.

    check_trace_files.py chrome <mercury_ctl> <data-dir>
    check_trace_files.py write-errors <mercury_ctl> <bench> <data-dir>

chrome: converting tests/data/golden_batch.trace.jsonl reproduces the
committed golden_batch.trace.json byte for byte, and a copy with one
corrupted line is refused (nonzero exit, the skipped-line count named).

write-errors: a bench whose trace file cannot be written (it is a symlink
to /dev/full) says so on stderr, prints no `trace:` line and exits
nonzero, and the converter exits nonzero when its stdout is /dev/full.
"""
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)


def check_chrome(ctl, data_dir):
    jsonl = os.path.join(data_dir, "golden_batch.trace.jsonl")
    with open(os.path.join(data_dir, "golden_batch.trace.json"), "rb") as f:
        expected = f.read()
    run = subprocess.run([ctl, "chrome", jsonl], capture_output=True, check=False)
    check(run.returncode == 0,
          f"chrome on the golden trace exited {run.returncode}: {run.stderr!r}")
    check(run.stdout == expected,
          "chrome output differs from golden_batch.trace.json")

    with open(jsonl, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    lines[len(lines) // 2] = b'{"t":1,"ph":"i","cat":"fault",\n'
    with tempfile.TemporaryDirectory() as tmp:
        corrupt = os.path.join(tmp, "corrupt.trace.jsonl")
        with open(corrupt, "wb") as f:
            f.writelines(lines)
        run = subprocess.run([ctl, "chrome", corrupt], capture_output=True,
                             text=True, check=False)
    check(run.returncode != 0, "chrome accepted a trace with a corrupted line")
    check(f"1 of {len(lines)} lines" in run.stderr,
          f"chrome did not name the skipped line: {run.stderr!r}")
    check(run.stdout == "", "chrome wrote output for a corrupted trace")


def check_write_errors(ctl, bench, data_dir):
    name = os.path.basename(bench)
    with tempfile.TemporaryDirectory() as tmp:
        os.symlink("/dev/full", os.path.join(tmp, f"{name}.trace.jsonl"))
        env = dict(os.environ, MERCURY_TRACE_DIR=tmp)
        run = subprocess.run([bench], env=env, capture_output=True, text=True,
                             check=False)
    check("could not write" in run.stderr,
          f"{name} did not warn about its unwritable trace: {run.stderr!r}")
    check("\ntrace: " not in run.stdout,
          f"{name} reported a trace it could not write")
    check(run.returncode != 0,
          f"{name} exited 0 although its trace could not be written")

    jsonl = os.path.join(data_dir, "golden_batch.trace.jsonl")
    with open("/dev/full", "wb") as full:
        run = subprocess.run([ctl, "chrome", jsonl], stdout=full,
                             stderr=subprocess.PIPE, check=False)
    check(run.returncode != 0, "chrome exited 0 with stdout on /dev/full")


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "chrome":
        check_chrome(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 5 and sys.argv[1] == "write-errors":
        check_write_errors(sys.argv[2], sys.argv[3], sys.argv[4])
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for message in FAILURES:
        print(f"FAIL: {message}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
