#!/usr/bin/env python3
"""Build and run one workload of the jade-rs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs it, checks
that its result line names exactly the metrics BENCHMARK.json lists for the
run's kind, and prints that line last. Exits non-zero, printing no result,
when the build, the run or the check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def check_result(line, spec, traced):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(res)}")
    want = spec["per_layer"] if traced else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')} but BENCHMARK.json says {want[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        fail("failed must be a whole number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates are missing; nothing to build")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        fail(f"build failed (exit {code})")

    binary = os.path.join(target, "release", "perfbench")
    code, out = run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited {code}")
    check_result(lines[-1], spec, args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
