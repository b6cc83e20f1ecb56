#!/usr/bin/env python3
"""End-to-end request benchmark for b2h-serve (see perfbench/README.md).

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload cold_first_sight|warm_mix|restart_rehydrate
                           --seed N --seconds S --trace 0|1

Builds the daemon and the `perfbench` binary from the checkout's sources
(Release, into $CARGO_TARGET_DIR or .bench_build, under perfbench/), then
runs the benchmark.  Its last stdout line is the result JSON object;
build output goes to stderr.  Exits non-zero without a result when the
checkout has no sources to build.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold_first_sight", "warm_mix", "restart_rehydrate")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-report", type=int, default=0,
                        help="corrupt the K-th checked reply (self-test)")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"perfbench: no b2h source tree at {root}", file=sys.stderr)
        return 2
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "perfbench"

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default target is `perfbench` plus the daemon it depends on; it
    # also re-runs the configure step when a build file changed.
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    bench = [str(build_dir / "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--server", str(build_dir / "tools" / "b2h-serve"),
             "--work-dir", str(build_dir / "run")]
    if args.inject_wrong_report:
        bench += ["--inject-wrong-report", str(args.inject_wrong_report)]
    sys.stdout.flush()
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
