#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
fasttts library and the benchmark driver from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. With --trace 1 the spans are written
next to the build as spans-<workload>.jsonl.

Exits non-zero without a result line when the build fails or an output
check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("solo_beam32", "bursty_continuous", "multiturn_sliced")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", "4",
                "--target", "perfbench_driver"]
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [configure]) + [compile_]:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    driver = build(build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
