#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune (the
build's output goes to standard error), then runs it with the same
arguments; the last line of its standard output is the JSON result.
Exits non-zero without printing a result when the build or the run
fails.

On a host shared with other tenants one core can be busy for a whole
run while the other is quiet. For the single-threaded workloads the
benchmark's thread is therefore moved to the next core every quarter
second, so that every operation is also timed on the quieter core (the
benchmark reads each operation's quietest quarter of samples). The
serve workload and the traced run start threads of their own, which
would inherit a one-core mask, so they run unpinned.
"""
import os
import subprocess
import sys
import time

# A build directory of its own, so that a developer's concurrent dune
# builds in _build never wait on the benchmark's lock or the reverse.
BUILD_DIR = ".bench_build"
BUILD = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet", "./perfbench/main.exe"]
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
ROTATE_S = 0.25


def arg(name):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else None


def run(cmd, rotate):
    cpus = sorted(os.sched_getaffinity(0)) if rotate else []
    child = subprocess.Popen(cmd)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    turn = 0
    while True:
        try:
            return child.wait(timeout=ROTATE_S)
        except subprocess.TimeoutExpired:
            pass
        if time.monotonic() > deadline:
            child.kill()
            child.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 3
        if len(cpus) > 1:
            turn += 1
            try:
                os.sched_setaffinity(child.pid, {cpus[turn % len(cpus)]})
            except OSError:
                pass


def main():
    try:
        build = subprocess.run(BUILD, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rotate = arg("--trace") == "0" and arg("--workload") != "serve"
    return run([EXE] + sys.argv[1:], rotate)


if __name__ == "__main__":
    sys.exit(main())
