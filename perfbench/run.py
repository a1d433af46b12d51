#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its metrics.

    python3 perfbench/run.py --workload fd_server --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. It builds perfbench/ together with the
kernel sources in src/ into .bench_build/ (or $CARGO_TARGET_DIR), with no
injection points, lockdep or sanitizers (server_bench.cc refuses to compile
under them), then runs server_bench. It prints a
table of every metric with its unit and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end ones of BENCHMARK.json; with --trace 1 they are
the per_layer ones, and the spans of the traced run are written as Chrome
trace-event JSON under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "build")
    return out / "server_bench"


def run_quiet(cmd, what):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"{what} failed ({p.returncode})")


def source_digest():
    """Identifies the code measured, with or without a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() if p.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and rounds, for the benchmark's own test")
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        fail("BENCHMARK.json not found at the root of the tree", 2)
    spec = json.loads(spec_file.read_text())
    if not (ROOT / "src" / "api" / "kernel.h").exists():
        fail("kernel sources (src/) not found next to perfbench/", 2)

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_file = None
    if args.trace:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{args.workload}.json"
        cmd += ["--trace", "--trace-out", str(trace_file)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"server_bench did not finish within {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"server_bench exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("server_bench printed no result")
    res = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
        metrics[m["name"]] = got

    print(f"workload {res['workload']}  seed {res['seed']}  digest {res['digest']}  "
          f"traced {res['traced']}")
    print(f"build {res['build_flags'].strip()}  host_cpus {res['host_cpus']}  "
          f"commit {commit()}  source {source_digest()}")
    print(f"rounds {res['rounds']}  latency_samples {res['latency_samples']}")
    print(f"little_ratio(N=X*R) {res['little_ratio']:.4f} tolerance {res['little_tolerance']}  "
          f"per round {[round(x, 4) for x in res['round_little_ratio']]}")
    print(f"setup_samples_s {[round(x, 6) for x in res['setup_samples_s']]}")
    if trace_file is not None:
        print(f"trace_file {trace_file.relative_to(ROOT)}")
    rows = [("failed_frac", res["failed_frac"], "ratio")]
    rows += [(n, m["value"], m["unit"]) for n, m in res["metrics"].items()]
    for name, value, unit in rows:
        print(f"  {name:36s} {value:>16.6g} {unit}")
    if res["first_error"]:
        print(f"first_error {res['first_error']}")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
