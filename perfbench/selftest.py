#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Usage, from the root of a source checkout:

  python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that:

  * each run exits 0 with a correct result whose metrics are exactly the
    BENCHMARK.json end-to-end (untraced) or per-layer (traced) metrics,
    with the declared units, and that the readable table prints each of
    them and error_rate;
  * BENCHMARK.json and perfbench/layer_targets.json agree;
  * each traced run's span file passes ci/validate_trace.py;
  * an injected wrong report raises error_rate above zero and fails the
    command.

Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYERS = "minicc,mips,decomp,partition,synth,explore,serve,support,bench"
# Every workload run.py offers; BENCHMARK.json gates a subset of them
# (README.md says why restart_rehydrate is not gated).
WORKLOADS = ("cold_first_sight", "warm_mix", "restart_rehydrate")


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace, extra=()):
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} trace={trace}: no result line (exit "
             f"{done.returncode})")
    return done.returncode, result, done.stdout


def check_metrics(label, result, table, declared):
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"{label}: metrics {sorted(set(got) ^ set(declared))} differ "
             "from BENCHMARK.json")
    for name, spec in declared.items():
        if got[name]["unit"] != spec["unit"]:
            fail(f"{label}: {name} unit {got[name]['unit']} != {spec['unit']}")
        if not any(line.split()[:1] == [name] for line in table.splitlines()):
            fail(f"{label}: {name} missing from the printed table")
    if not any(line.startswith("error_rate") for line in table.splitlines()):
        fail(f"{label}: error_rate missing from the printed table")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((BENCH_DIR / "layer_targets.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload run.py does not offer")

    if set(targets["per_layer"]) != set(per_layer):
        fail("layer_targets.json and BENCHMARK.json name different "
             "per-layer metrics")
    for name, target in targets["per_layer"].items():
        for metric, names in target["moves"].items():
            if metric not in end_to_end or not set(names) <= set(WORKLOADS):
                fail(f"layer_targets.json: {name} targets unknown "
                     f"{metric} / {names}")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    for workload in WORKLOADS:
        code, result, table = run(workload, 0)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            fail(f"{workload}: exit {code}, result {result}")
        check_metrics(workload, result, table, end_to_end)

        code, result, table = run(workload, 1)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            fail(f"{workload} traced: exit {code}, result {result}")
        check_metrics(f"{workload} traced", result, table, per_layer)
        trace = target_dir / "perfbench" / "run" / f"trace-{workload}.json"
        validate = subprocess.run(
            [sys.executable, str(ROOT / "ci" / "validate_trace.py"),
             str(trace), "--require-categories", LAYERS])
        if validate.returncode != 0:
            fail(f"{workload}: trace {trace} failed validation")
        print(f"selftest: {workload} ok")

    code, result, _ = run("warm_mix", 0, ["--inject-wrong-report", "5"])
    if code == 0 or result["correct"] or result["failed"] < 1:
        fail(f"an injected wrong report went unnoticed: exit {code}, "
             f"{result}")
    print(f"selftest: injected wrong report caught (exit {code}, "
          f"error_rate {result['failed'] / result['attempted']:.2e})")
    print("selftest: OK")


if __name__ == "__main__":
    main()
