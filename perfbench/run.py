#!/usr/bin/env python3
"""Builds the STING benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary builds into $CARGO_TARGET_DIR (default .bench_build).  Its
standard output passes through; the last line is the JSON result.  Before
passing the result on, this script checks that it reports exactly the
metrics BENCHMARK.json declares for the run's mode, with their units.
Span traces and result records go to <target dir>/perfbench-out.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        fail(f"build failed ({build.returncode})")
    exe = os.path.join(target, "release", "sting-perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    run = subprocess.run([exe, *args, "--out", out_dir],
                         stdout=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"reading BENCHMARK.json: {e}")
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != reported:
        fail(f"metrics {sorted(reported.items())} differ from BENCHMARK.json's "
             f"{sorted(declared.items())}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
