#!/usr/bin/env python3
"""Builds and runs the repo's benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library from ../src plus the benchmark binary into $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; later calls only re-check the
build. Build output goes to a log file there, so standard output carries
only the benchmark's report, whose last line is the JSON result. Exits
non-zero, without a result, when the build fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_group(cmd, log, env, timeout):
    """Runs cmd in a process group of its own and waits for it. On a
    timeout, or when this script is stopped, kills the whole group (make
    and the compilers too) and waits. Returns the exit code."""
    try:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, start_new_session=True)
    except OSError as e:
        log.write("perfbench: %s\n" % e)
        return 1
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log.write("perfbench: %s timed out after %d s\n" % (cmd[0], timeout))
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(out):
    """Configures (once) and builds; returns the binary path or None."""
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            code = run_group(cmd, log, env, 850)
            if code != 0:
                # A failed configure must not leave a cache that skips it.
                if cmd[1] == "-S":
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except OSError:
                        pass
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write(tail)
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def source_stamp():
    """The git commit when there is one, plus a digest of the sources."""
    commit = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def main():
    # SIGTERM unwinds like an exception, so the build group and the run
    # are killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of every workload, clean and with a "
                             "planted bug that the checks must catch")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--inject", help="planted bug: server-publish-stale "
                                         "or seminaive-skip-delta")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    out_dir = os.path.join(out, "out")
    if args.selftest:
        cmd = [binary, "--selftest", "--out-dir", out_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir, "--commit", source_stamp()]
        if args.tiny:
            cmd.append("--tiny")
        if args.inject:
            cmd += ["--inject", args.inject]
    # A run takes about --seconds plus its set-ups and checks, which replay
    # what the load committed; a traced run splits --seconds over its
    # phases. At 25 s the limit stays under three minutes. The self-test
    # is a fixed tiny size.
    timeout = 170 if args.selftest else 3 * args.seconds + 90
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 3


if __name__ == "__main__":
    sys.exit(main())
