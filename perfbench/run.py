#!/usr/bin/env python3
"""Build and run the Rock benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

Run it from the root of a Rock checkout. The first call configures and
builds perfbench/ together with the Rock libraries under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the Rock sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale_cold", "corpus_cold", "cache_warm", "serve_mixed")
# A run must finish within 180 s; leave room for start-up and exit.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def logged(cmd):
    """Run a build command with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode


def configured_for(out):
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build(out, target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no Rock sources at %s; run from a Rock checkout" %
             (ROOT / "src"))
    home = configured_for(out)
    if home is not None and Path(home).resolve() != HERE:
        # A build tree configured for another checkout path.
        shutil.rmtree(out)
        home = None
    if home is None:
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if logged(cmd) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if logged(["cmake", "--build", str(out), "-j", jobs,
               "--target", target]) != 0:
        fail("build of %s failed" % target)
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tiny-size self-test")
    args = parser.parse_args()

    out = build_dir()
    if args.selftest:
        binary = build(out, "perfbench_selftest")
        return subprocess.run([str(binary)], cwd=out, check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build(out, "rockperf")
    # The serve_mixed socket lives in the build tree; a relative path
    # keeps it under the unix-socket path limit.
    run_dir = min(os.path.relpath(out), str(out), key=len)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
