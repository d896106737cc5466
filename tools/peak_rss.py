"""Run one tubelink CLI call in a fresh interpreter and print its exit code and
that process's own peak resident set size.

    python tools/peak_rss.py -- <tubelink args>

The call runs `tubelink.cli.entry` with the given arguments, importing
tubelink from the src/ next to this file; its stdout and stderr pass
through. At exit the process reports its peak over a pipe: VmHWM of
/proc/self/status, the high-water mark of the memory it has had since it
was started. getrusage(RUSAGE_SELF).ru_maxrss is not used, because Linux
also counts in it the memory of the process that spawned it at the moment
of spawning: a child that peaks at 13 MiB read 313 MiB under a parent of
300 MiB, and a test run under pytest read pytest's own peak. Two lines
follow the call's own output:

    exit <code>
    peak_rss_mb <MiB, or - when the process was killed before its exit>

This script exits with the call's exit code. It runs on Linux only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the child: argv[1] is the pipe's fd, the rest tubelink's arguments
CHILD = """\
import atexit, os, sys
fd = int(sys.argv.pop(1))

def report():
    with open("/proc/self/status") as f:
        os.write(fd, next(line.split()[1] for line in f if line.startswith("VmHWM:")).encode())

atexit.register(report)
sys.argv[0] = "tubelink"
from tubelink.cli import entry
entry()
"""


def peak_rss(args: list[str]) -> tuple[int, float | None]:
    """The exit code of `tubelink *args` in a fresh interpreter and its own
    peak RSS in MiB (VmHWM is in KiB), or None for a process that ended
    without running its exit handlers, such as one killed by a signal."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    read, write = os.pipe()
    with os.fdopen(read, "rb") as report:
        try:
            code = subprocess.run([sys.executable, "-c", CHILD, str(write), *args], env=env,
                                  pass_fds=(write,)).returncode
        finally:
            os.close(write)
        kib = report.read()
    return code, int(kib) / 1024 if kib else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] != ["--"]:
        print("usage: python tools/peak_rss.py -- <tubelink args>", file=sys.stderr)
        return 2
    code, mib = peak_rss(argv[1:])
    print(f"exit {code}\npeak_rss_mb {'-' if mib is None else f'{mib:.1f}'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
