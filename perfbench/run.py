#!/usr/bin/env python3
"""Build refnet from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a refnet checkout.  Builds bin/refnet.exe and
perfbench/refbench.exe with dune (inside the checkout's _build), then
runs refbench in its own process group, so a daemon left behind by a
crashed or timed-out run is killed before this script exits.  The last
line of stdout is refbench's JSON result; its exit code is passed on.
Extra arguments (for instance --size tiny) go to refbench unchanged.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 860
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "bin", os.path.join("perfbench", "refbench.ml")]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def commit():
    """The checkout's commit, or 'unknown' outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def reap_group(pgid):
    """Kill whatever is left in the run's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log("processes of the run survived SIGKILL")


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        log("not a refnet checkout (missing %s)" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/refnet.exe", "./perfbench/refbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 2
    if build.returncode != 0:
        log("build failed with exit %d" % build.returncode)
        return 2
    out_dir = ".perfbench"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join("_build", "default", "perfbench", "refbench.exe")] + sys.argv[1:] + [
        "--refnet", os.path.join("_build", "default", "bin", "refnet.exe"),
        "--commit", commit(),
        "--out", out_dir,
    ]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        reap_group(proc.pid)
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
