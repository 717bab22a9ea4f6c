#!/usr/bin/env python3
"""Build the antdense benchmark from this source tree and run one workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload walk-regular --seed 1 --seconds 50 \
        --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library included) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed.  Build output goes to stderr.  The benchmark's
stdout is passed through: its last line is the result object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("walk-regular", "sweep-churn")
RUN_TIMEOUT_S = 170


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def source_revision():
    """The git commit of a clean tree.  Otherwise a digest of the sources,
    after "<commit>-dirty+" when the tree is a modified git checkout."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = git("rev-parse", "HEAD")
            if not git("status", "--porcelain"):
                return commit
            commit += "-dirty+"
        except (OSError, subprocess.CalledProcessError):
            commit = ""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return commit + "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "antbench", "antbench_selftest"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no antdense source tree around " + HERE,
              file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run(
            [os.path.join(build_dir, "antbench_selftest")]).returncode

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "antbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%r" % args.seconds,
               "--trace=%d" % args.trace,
               "--workdir=" + workdir,
               "--commit=" + source_revision()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
