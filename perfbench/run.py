#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload integrate|query|session \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds perfbench/main.exe with dune
into .bench_build/, runs it in a fresh store directory under .bench_work/
(removed afterwards) and passes its output through: the last line of
stdout is one JSON object with the metrics. --trace 1 runs the program
twice, each a fresh process: untraced for half the seconds, then traced
over the same ops. Exits non-zero, without a result, if the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def filesystem(path):
    """The filesystem type of the mount holding [path], from mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def run(args, deadline):
    """Runs the program; returns its stdout lines, or exits on failure."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("%s exited with %d" % (EXE, proc.returncode))
    lines = out.splitlines()
    if not lines:
        fail("no output")
    return lines


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    build()
    work = os.path.join(WORK_DIR, "%s-%d" % (a.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", str(a.trace),
                  "--dir", os.path.join(work, "store"),
                  "--nproc", str(len(os.sched_getaffinity(0))),
                  "--store-fs", filesystem(work)]
        if a.trace == 0:
            lines = run(common, deadline)
        else:
            plain = json.loads(run(common + ["--phase", "plain"], deadline)[-1])
            m = plain["metrics"]
            lines = run(common + [
                "--phase", "traced",
                "--replay", str(int(m["plain_ops"]["value"])),
                "--plain-busy", repr(m["plain_busy_s"]["value"]),
                "--plain-attempted", str(plain["attempted"]),
                "--plain-failed", str(plain["failed"])], deadline)
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result line")
        print("\n".join(lines))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    main()
