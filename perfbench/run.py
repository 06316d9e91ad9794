#!/usr/bin/env python3
"""Build and run the protected-device-I/O benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pio --seed 1 --seconds 15 --trace 0

The benchmark is an OCaml executable of this directory; this script
builds it (and the libraries it links) with dune and then runs it with
the same arguments.  The last line of standard output is the JSON
result.  Without the repository's sources beside this directory the
build cannot start and the script exits with code 2, printing no result.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark starts set-up children) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    # No shared dune cache: the build writes only under _build here.
    build = ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
             "./perfbench/bench.exe"]
    if run(build, timeout=850, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rc = run([EXE] + sys.argv[1:], timeout=175)
    return 2 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
