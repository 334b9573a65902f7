#!/usr/bin/env python3
"""Builds and runs the xsec end-to-end benchmark.

Usage (from the repository root):

  python3 e2ebench/run.py --workload <hot_invoke|policy_churn|extension_churn>
                          --seed <n> --seconds <s> --trace <0|1>
  python3 e2ebench/run.py --selftest

The benchmark binary is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; build output goes to stderr. The run's
human-readable metric lines go to stdout, and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status is
non-zero when the build fails, the run fails, or the system allowed an access
the oracle says must be denied.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_invoke", "policy_churn", "extension_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    binary = os.path.join(build_dir, "xsec_e2e")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "xsec_e2e", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return binary if os.path.exists(binary) else None


def run(binary, args):
    """Runs the binary, relays its output, and returns its exit status."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 3) or not lines:
        sys.stdout.write(proc.stdout)
        print("e2ebench: xsec_e2e exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("e2ebench: no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of every workload; asserts zero failures")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    if opts.selftest:
        status = 0
        for workload in WORKLOADS:
            code = subprocess.call([binary, "--workload", workload, "--seed", "7", "--selftest"],
                                   timeout=RUN_TIMEOUT_S)
            status = status or code
        return status

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", "%g" % opts.seconds, "--trace", str(opts.trace)]
    if opts.trace:
        # One file per workload, overwritten by each traced run.
        spans = os.path.join(build_dir, "spans-%s.ndjson" % opts.workload)
        args += ["--spans", spans]
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
