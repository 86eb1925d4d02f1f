#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest     # build and run perfbench's own tests

The perfbench binary is compiled from the checkout's own sources into
.bench_build/perfbench (the first run builds; later runs only re-check).
Workload settings -- rates, latency limits, the generator lateness bound --
are the key=value words in that workload's "why" line in BENCHMARK.json,
so the file is the one place they are fixed.

Around each workload the host-drift probe runs in its own process, before
and after; host.compute_ms and host.stream_gb_s are the mean of the two.
They are printed on every run and reported with the per-layer metrics.
The last line of standard output is the binary's JSON result.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
PARAM = re.compile(r"\b([a-z][a-z0-9_]*)=([0-9]+(?:\.[0-9]+)?)\b")


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def workload_params(name):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        if workload["name"] == name:
            return PARAM.findall(workload["why"])
    raise SystemExit(f"unknown workload {name!r} (not in BENCHMARK.json)")


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", *targets,
                    "-j", jobs], check=True, stdout=sys.stderr)


def run(args):
    env = dict(os.environ)
    env.pop("LMPEEL_TRACE", None)
    env["LMPEEL_POSTMORTEM_DIR"] = BUILD
    return subprocess.run([os.path.join(BUILD, "perfbench"), *args],
                          cwd=BUILD, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)


def probe():
    done = run(["--probe"])
    if done.returncode != 0:
        raise SystemExit(f"host probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              cwd=BUILD, check=False).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    params = workload_params(args.workload)
    build(["perfbench"])
    before = probe()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", BUILD]
    for key, value in params:
        cmd += ["--param", f"{key}={value}"]
    done = run(cmd)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"perfbench exited with {done.returncode}")
        return done.returncode or 1
    after = probe()

    lines = done.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    host = {key: (before[key] + after[key]) / 2
            for key in ("host.compute_ms", "host.stream_gb_s")}
    for line in lines[:-1]:
        print(line)
    print(f"  host probe: compute {before['host.compute_ms']:.2f} -> "
          f"{after['host.compute_ms']:.2f} ms, stream "
          f"{before['host.stream_gb_s']:.2f} -> "
          f"{after['host.stream_gb_s']:.2f} GB/s (reported, never gated)")
    if args.trace == 1:
        result["metrics"]["host.compute_ms"] = {
            "value": host["host.compute_ms"], "unit": "ms"}
        result["metrics"]["host.stream_gb_s"] = {
            "value": host["host.stream_gb_s"], "unit": "GB/s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        sys.exit(1)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
