#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_small|engine_large|cache_rw \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark program is built from
source with dune (release profile, build directory .bench_build), then
run with the same arguments; its last line of standard output is the
JSON summary.  Exits non-zero, printing no summary, when the checkout
cannot be built or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("missing %s: run from the root of a repository checkout" % need, 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)
    cmd = [dune, "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, TARGET]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main():
    exe = build()
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
