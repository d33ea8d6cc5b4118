#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 taskbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 taskbench/run.py --self-test

Run from the repository root. The first call configures and builds the
simulator library from src/ plus the benchmark driver (Release) into
$CARGO_TARGET_DIR, or .bench_build when it is unset; later calls only
rebuild what changed. Build output goes to stderr. The driver's
standard output is passed through unchanged, so its last line is the
benchmark's JSON result. Scratch files live in a per-process directory
under the build directory and are removed on exit; a traced run
(--trace 1) leaves its spans in <build dir>/spans.json (Chrome
trace-event format).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Ceiling on one driver run; the benchmark contract allows 180 s.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure (once) and build; return the driver path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("taskbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "taskbench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(build_dir)
    if driver is None:
        return 3
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [driver] + argv
    if "--self-test" not in argv:
        cmd += ["--work", work]
        # The traced run keeps its spans next to the build.
        cmd += ["--spans", os.path.join(build_dir, "spans.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the driver.
        print("taskbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
