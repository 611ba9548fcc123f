#!/usr/bin/env python3
"""Prints a traced run's breakdown: host self time per layer and per call,
and the per-layer metrics grouped by layer.

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 15 --trace 1
    python3 e2ebench/trace_report.py .bench_out/trace_ingest_seed1.json

A span's self time (written by the benchmark with each span) is its host
duration minus the time its child spans cover. The bench.* spans group the calls of one batch, query, loop or check;
their self time is the benchmark's own work between calls (oracle and
bookkeeping). In contended_writers batches overlap, so each batch's lifetime
is a request.contended_batch span that carries no self time.
"""
import collections
import json
import sys


def layer_of(metric):
    parts = metric.split(".")
    return ".".join(parts[:2]) if parts[0] == "storage" else parts[0]


def report(path):
    with open(path) as f:
        t = json.load(f)
    print("== %s seed %s (%s)" % (t["workload"], t["seed"], path))
    untraced, traced = t["wall_ops_per_s_untraced"], t["wall_ops_per_s_traced"]
    print("host ops/s: %.2f untraced, %.2f traced (tracing overhead %.1f%%)" % (
        untraced, traced, 100 * (1 - traced / untraced) if untraced else 0))

    field = {name: i for i, name in enumerate(t["span_fields"])}
    name, w0, w1, self_ms, s0, s1 = (field[k] for k in (
        "name", "wall_start_ms", "wall_end_ms", "self_ms", "sim_start_us", "sim_end_us"))
    calls = collections.OrderedDict()
    for s in t["spans"]:
        c = calls.setdefault(s[name], [0, 0.0, 0.0, 0])
        c[0] += 1
        c[1] += s[self_ms]
        c[2] += s[w1] - s[w0]
        c[3] += s[s1] - s[s0]

    layers = t["self_ms_by_layer"]
    total = sum(layers.values()) or 1.0
    print("\nself time per layer (host ms)")
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("  %-12s %12.1f  %5.1f%%" % (layer, ms, 100 * ms / total))

    print("\nper call: count, self ms, total ms, mean simulated ms")
    for name, (n, self_ms, tot_ms, sim_us) in sorted(calls.items(), key=lambda kv: -kv[1][1]):
        print("  %-24s %7d %12.1f %12.1f %10.3f" % (name, n, self_ms, tot_ms, sim_us / n / 1e3))

    print("\nper-layer metrics")
    by_layer = collections.OrderedDict()
    for name, m in t["per_layer"].items():
        by_layer.setdefault(layer_of(name), []).append((name, m))
    for layer, items in by_layer.items():
        print("  [%s]" % layer)
        for name, m in items:
            print("    %-46s %16.4f %s" % (name, m["value"], m["unit"]))

    print("\nend to end (untraced rounds)")
    for name, m in t["end_to_end"].items():
        print("  %-26s %14.4f %s" % (name, m["value"], m["unit"]))


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for i, p in enumerate(paths):
        if i:
            print()
        report(p)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
