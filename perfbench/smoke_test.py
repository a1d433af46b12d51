#!/usr/bin/env python3
"""The benchmark's own test. Runs every workload server_bench implements in
its tiny mode, untraced and traced: the ones BENCHMARK.json registers and
vm_churn, which it leaves out because the kernel crashes on it now and then
(perfbench/README.md). It checks for each run that:

  * every op passed verification (failed_frac is 0 and correct is true),
  * every metric BENCHMARK.json names is printed once, with its unit,
  * the traced run wrote a trace that loads as Chrome trace-event JSON,
    with spans of one request linked by the request id.

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNREGISTERED = ["vm_churn"]


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.6", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    errors = []
    if p.returncode != 0:
        return [f"exit code {p.returncode}"]
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        errors.append(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"verification: {res['attempted']} attempted, {res['failed']} failed")
    table = {ln.split()[0]: ln.split()[1:] for ln in lines[:-1] if ln.startswith("  ")}
    if table.get("failed_frac", [None])[0] != "0":
        errors.append(f"failed_frac {table.get('failed_frac')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(res["metrics"]) != sorted(names):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(res['metrics']))}")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']}: {got}")
        if m["name"] not in table:
            errors.append(f"metric {m['name']} missing from the printed table")
    if trace:
        errors += check_trace(ROOT / ".bench_out" / f"trace-{workload}.json")
    return errors


def check_trace(path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        return [f"{path.name}: no spans"]
    for e in spans:
        if not {"name", "ts", "dur", "pid", "tid", "args"} <= set(e) or "req" not in e["args"]:
            return [f"{path.name}: malformed span {e}"]
    roots = {e["args"]["req"] for e in spans if e["args"]["parent"] == ""}
    linked = [e for e in spans if e["args"]["parent"] != "" and e["args"]["req"] in roots]
    return [] if linked else [f"{path.name}: no child span linked to a root span"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in [w["name"] for w in spec["workloads"]] + UNREGISTERED:
        for trace in (0, 1):
            errors = check_run(spec, w, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w:12s} trace={trace}: {status}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
