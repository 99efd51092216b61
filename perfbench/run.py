#!/usr/bin/env python3
"""Builds the benchmark and the `lily-serve` binary from source, then runs
one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Workloads: paper-compare, dag-2k-cut, serve-mixed. The last
line of standard output is the result object; see perfbench/README.md.
Build output goes to standard error. Cargo writes to CARGO_TARGET_DIR
(default `.bench_build`). Exits non-zero, without a result, when the
build fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--quiet"] + args
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    cargo_build(["--manifest-path", "Cargo.toml", "--bin", "lily-serve"], env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    server = os.path.abspath(os.path.join(release, "lily-serve"))
    cmd = [bench] + sys.argv[1:] + ["--server-bin", server]
    # Its own process group, so a timed-out run takes the server it
    # started down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def interrupted(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 4
    stop_group(proc)
    sys.exit(code)


def stop_group(proc):
    """Kills whatever is left of the run's process group, waits until
    none of it is running, and removes the run's serve state (the
    benchmark keeps it under .bench_state/serve-<its pid>)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass
    shutil.rmtree(os.path.join(".bench_state", "serve-%d" % proc.pid), ignore_errors=True)
    try:
        os.rmdir(".bench_state")
    except OSError:
        pass


if __name__ == "__main__":
    main()
