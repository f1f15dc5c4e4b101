#!/usr/bin/env python3
"""Builds and runs the InvarNet-X serving-path benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only check
that the build is up to date. The benchmark's own output goes to stdout;
its last line is the JSON result. Span files of traced runs are written
under the build directory.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds servebench; exits 2 on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "servebench",
                  "-j", jobs])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(2)
    return os.path.join(out, "servebench")


def run(binary, args):
    """Runs servebench; returns (exit code, stdout)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          cwd=ROOT, text=True)
    return proc.returncode, proc.stdout


def last_json(stdout):
    """The result object on the last line of stdout, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def selftest(binary):
    """Tiny fleet, short runs: every metric printed with its unit, and the
    output checks fire on a corrupted verdict and on a rejected sample."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = ["--monitors", "40", "--seconds", "0.5", "--setups", "1",
            "--seed", "7"]
    problems = []

    def check(name, args, want_correct, metrics=None, needle=None):
        code, out = run(binary, args + tiny)
        result = last_json(out) if code == 0 else None
        if result is None or set(result) != {"correct", "attempted",
                                             "failed", "metrics"}:
            problems.append("%s: no result line (exit %d)" % (name, code))
            return
        if result["correct"] != want_correct or \
                (result["failed"] == 0) != want_correct or \
                result["attempted"] < 1:
            problems.append("%s: correct=%s failed=%s" %
                            (name, result["correct"], result["failed"]))
        for metric in metrics or []:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"] or \
                    not isinstance(got.get("value"), (int, float)):
                problems.append("%s: metric %s missing or without unit %s" %
                                (name, metric["name"], metric["unit"]))
        if needle is not None and needle not in out:
            problems.append("%s: output lacks %r" % (name, needle))

    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for workload in ("ingest", "wire", "incident"):
        check(workload, ["--workload", workload, "--trace", "0"], True,
              spec["end_to_end"])
        span_file = os.path.join(trace_dir, "selftest-%s.json" % workload)
        check(workload + " traced",
              ["--workload", workload, "--trace", "1", "--trace-out",
               span_file], True, spec["per_layer"], "ValidateChromeTrace ok")
    check("corrupted verdict", ["--workload", "incident", "--trace", "0",
                                "--corrupt-verdict"], False, None,
          "differ from the serial reference")
    check("rejected sample", ["--workload", "ingest", "--trace", "0",
                              "--reject-sample"], False, None,
          "samples rejected")
    for problem in problems:
        print("SELFTEST FAILED: " + problem)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["ingest", "wire", "incident", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run(binary, cmd)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
