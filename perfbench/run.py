#!/usr/bin/env python3
"""End-to-end benchmark of the serve fleet and the campaign engine.

Builds perfbench/ (a CMake package compiling the repository's libraries
from ../src) into the build directory, then runs one workload:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S   # every workload
  python3 perfbench/run.py --smoke      # the benchmark's own tests

Workloads and metrics are listed in BENCHMARK.json; each workload's
fixed shape (offered frame rate included) is defined in
perfbench/src/serve_workloads.cpp and campaign_workload.cpp, and
perfbench/workloads.json records the values, the layer predictions and
the first measured point. The last line of stdout is the JSON result;
a failing correctness gate (before timing, or on what the timed loops
served) fails the command without one.
The build directory is $CARGO_TARGET_DIR (relative to the repository
root) or .bench_build.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found: run from a full checkout of the repository")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    bdir = os.path.join(out, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd), 1)
    return os.path.join(bdir, "fttt_perfbench")


def expected_metrics(spec, trace):
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {r["name"]: r["unit"] for r in rows}


def run_workload(binary, name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return p.returncode, p.stdout.splitlines()


def check_result(spec, lines, trace):
    """Validate the result line and the sample-count line; returns errors."""
    if len(lines) < 2:
        return ["no result line"]
    try:
        result = json.loads(lines[-1])
        samples = json.loads(lines[-2].partition(" ")[2]) if lines[-2].startswith("samples ") else None
    except ValueError as e:
        return [f"malformed result: {e}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("result not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    want = expected_metrics(spec, trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))},"
                      f" extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"{name}: want {{value, unit}}")
        elif not isinstance(m["value"], (int, float)):
            errors.append(f"{name}: value is not a number")
        elif name in want and m["unit"] != want[name]:
            errors.append(f"{name}: unit {m['unit']} != {want[name]}")
        if samples is None or not isinstance(samples.get(name), int):
            errors.append(f"{name}: no sample count")
    return errors


def smoke(binary, spec, names):
    """Every workload at a tiny size, untraced and traced: every metric
    emitted with unit and sample count; plus the gate self-test and the
    same-tick probe (two frames of one track in a tick must still match
    SerialReplay)."""
    failures = 0
    for check in ("--self-test", "--same-tick-probe"):
        if subprocess.run([binary, check]).returncode != 0:
            failures += 1
    for name in names:
        for trace in (False, True):
            code, lines = run_workload(binary, name, 1, 1, trace, smoke=True)
            errors = [f"exit {code}"] if code != 0 else check_result(spec, lines, trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"smoke {name} trace={int(trace)}: {status}")
            failures += bool(errors)
    print("smoke: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    known = [w["name"] for w in spec["workloads"]]
    if not args.smoke:
        if not args.workload:
            die("--workload is required")
        if args.workload != "all" and args.workload not in known:
            die(f"unknown workload '{args.workload}' (known: {', '.join(known)})")
    binary = build()
    if args.smoke:
        return smoke(binary, spec, known)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = known if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        code, lines = run_workload(binary, name, args.seed, seconds, bool(args.trace))
        errors = [] if code != 0 else check_result(spec, lines, bool(args.trace))
        if code != 0 or errors:
            # Keep the tables for diagnosis but never print a result line
            # (a failing binary prints none of its own).
            print("\n".join(lines if code != 0 else lines[:-1]))
            for e in errors:
                print(f"perfbench: {name}: {e}", file=sys.stderr)
            status = code or 1
            continue
        print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
