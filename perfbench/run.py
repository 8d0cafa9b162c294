#!/usr/bin/env python3
"""Repository benchmark: builds sjc_perfbench from source, runs one workload
and prints every metric with its unit; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload cold-taxi-nycb --seed 1 --seconds 20 --trace 0

Workloads: cold-taxi-nycb, cold-edge-linearwater, resident-serving.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The build goes to .bench_build/perfbench under the checkout root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import analyze  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources missing under {ROOT / 'src'}")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout path
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not cache.is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "sjc_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"sjc_perfbench exited with {proc.returncode}")
    lines, result = analyze.analyze(json.loads(proc.stdout))
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
