#!/usr/bin/env python3
"""Self-test of the benchmark: runs a short form (--quick) of every workload
twice, once untraced and once traced, and fails unless

  * both runs report correct answers and no failed operation,
  * the two runs end with the same simulator trace digest and event count
    (the traced run also repeats its untraced first round internally),
  * the untraced run emits exactly the end_to_end metrics of BENCHMARK.json
    and the traced run exactly its per_layer metrics, each with its unit,
  * the traced run's span file loads in trace_report.py.

Run from the repository root:  python3 e2ebench/selftest.py
"""
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import trace_report  # noqa: E402

SUMMARY = re.compile(r"e2ebench: workload=\S+ seed=\d+ rounds=\d+ digest=(\w+) events=(\d+)")


SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    summary = SUMMARY.search(p.stderr)
    if summary is None:
        raise AssertionError("no run summary on stderr:\n" + p.stderr[-2000:])
    return result, summary.groups()


def check_metrics(result, declared, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError("%s metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise AssertionError("%s: unit %r, BENCHMARK.json says %r" % (name, got[name]["unit"], unit))
        if not isinstance(got[name]["value"], (int, float)):
            raise AssertionError("%s: value is not a number" % name)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        # Where a traced run writes its spans (a quick run overwrites a full
        # run's file for the same seed).
        trace_file = os.path.join(".bench_out", "trace_%s_seed%d.json" % (w, SEED))
        plain, digest_a = run(w, 0)
        traced, digest_b = run(w, 1)
        for label, r in (("untraced", plain), ("traced", traced)):
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                raise AssertionError("%s %s run: %s" % (w, label, {k: r[k] for k in ("correct", "attempted", "failed")}))
        if digest_a != digest_b:
            raise AssertionError("%s: same seed, different simulation: %s vs %s" % (w, digest_a, digest_b))
        check_metrics(plain, bench["end_to_end"], w + " --trace 0")
        check_metrics(traced, bench["per_layer"], w + " --trace 1")
        with redirect_stdout(io.StringIO()):
            trace_report.report(trace_file)
        print("ok  %-18s digest %s, %s events" % (w, digest_a[0], digest_a[1]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("FAIL " + str(e), file=sys.stderr)
        sys.exit(1)
