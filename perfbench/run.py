#!/usr/bin/env python3
"""Build and run the perfbench benchmark (see README.md).

    python3 perfbench/run.py --workload partition-rmat --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The benchmark binary is configured and
built from source under .bench_build/ on first use; later runs reuse
it. The last line of stdout is the result object; the lines before it
carry run metadata (nproc, compiler, build type, commit, seed), the
host-drift probe and the layer values. With --trace 1 the Chrome
trace-event JSON goes to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("partition-rmat", "analytics-ooc", "serve-mix")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    """Configure (once) and build the benchmark; returns the binary."""
    build_dir = os.path.join(BUILD, "perfbench")
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    return os.path.join(build_dir, "perfbench")


def commit_id():
    """The git commit when run in a clone; otherwise a digest of the
    library and benchmark sources, so runs of one tree still match."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes (used by selftest.py)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))

    # Temporary files (the compiler's, the out-of-core spill files) stay
    # inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--trace-out",
           os.path.join(traces, "%s-seed%d%s.json" %
                        (args.workload, args.seed,
                         "-toy" if args.toy else ""))]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
