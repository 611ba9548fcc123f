// End-to-end benchmark: runs one workload in rounds for --seconds,
// checks every answer, and prints one JSON line with the end-to-end metrics
// (or, with --trace 1, the per-layer metrics, plus a span file). See
// README.md for the workloads and every metric.
//
//   e2ebench --workload ingest --seed 1 --seconds 15 --trace 0
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace e2ebench {
namespace {

// A run never starts a round it could not finish well inside the 180 s a
// run may take (the set-ups for setup_s follow the rounds).
constexpr double kRunBudgetS = 140;

struct WorkloadDef {
  const char* name;
  WorkloadFn fn;
  bool writes;  // primary operation: batch commits (else: queries)
};

const WorkloadDef kWorkloads[] = {
    {"ingest", RunIngest, true},
    {"contended_writers", RunContendedWriters, true},
    {"query_failover", RunQueryFailover, false},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "ingest|contended_writers|query_failover --seed N --seconds S "
               "--trace 0|1 [--quick]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds " + v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else {
      Usage("unknown argument " + k);
    }
  }
  return a;
}

double Div(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<double> AsMs(const std::vector<sim::SimTime>& us) {
  std::vector<double> ms;
  ms.reserve(us.size());
  for (sim::SimTime u : us) ms.push_back(static_cast<double>(u) / 1e3);
  return ms;
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return Div(s, static_cast<double>(v.size()));
}

template <typename F>
std::vector<double> Each(const std::vector<const Round*>& rs, F f) {
  std::vector<double> out;
  for (const Round* r : rs) out.push_back(f(*r));
  return out;
}

template <typename F>
std::vector<double> Pool(const std::vector<const Round*>& rs, F f) {
  std::vector<double> out;
  for (const Round* r : rs) {
    const std::vector<double>& v = f(*r);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

/// Everything simulated must repeat exactly when the seed repeats.
std::string SimDifference(const Round& a, const Round& b) {
  if (a.digest != b.digest) return "trace digest";
  if (a.commit_us != b.commit_us) return "commit latencies";
  if (a.read_us != b.read_us) return "retrieve latencies";
  if (a.query_us != b.query_us) return "query latencies";
  if (a.delta.v != b.delta.v) return "layer counters";
  if (a.footprint != b.footprint) return "WAL footprint";
  return "";
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

/// Host operations per second: committed update tuples, or answered
/// queries, per second spent inside the benchmark's calls.
double WallOpsPerS(const std::vector<const Round*>& rs) {
  return Median(Each(rs, [](const Round& r) { return Div(r.ops, r.busy_s); }));
}

// Host-time rates and latencies other than setup_s are per-layer metrics,
// not end-to-end ones: on a shared host they drift by 10-25% between runs
// minutes apart, more than any bound an end-to-end metric may have.
//
// heap_peak_mb comes from the last round: query_failover's oracle computes
// and caches its reference answers inside the first round's window.
Metrics EndToEnd(const WorkloadDef& w, const std::vector<const Round*>& rs,
                 const std::vector<double>& setups) {
  const Round& r0 = *rs.front();
  const std::vector<double> op_ms = AsMs(w.writes ? r0.commit_us : r0.query_us);
  return {
      {"setup_s", {*std::min_element(setups.begin(), setups.end()), "s"}},
      {"sim_ops_per_s",
       {Div(r0.ops, static_cast<double>(r0.loop_sim_us) / 1e6), "1/s"}},
      {"op_ms_p50", {Percentile(op_ms, 0.50), "ms"}},
      {"op_ms_tail", {Percentile(op_ms, w.writes ? 0.99 : 0.90), "ms"}},
      {"disk_bytes_per_user_byte", {Mean(r0.footprint), "B/B"}},
      {"heap_peak_mb", {rs.back()->heap_peak_mb, "MB"}},
  };
}

/// Counters come from the first traced round; host timings are medians over
/// every round of the run (the Probe excludes its own span and counter work
/// from the timed calls).
Metrics PerLayer(const std::vector<const Round*>& rounds,
                 const std::vector<const Round*>& traced, double overhead) {
  const Round& r = *traced.front();
  const Counters& d = r.delta;
  auto c = [&d](Ctr k) { return static_cast<double>(d[k]); };
  const double commits = r.commits, updates = r.updates, queries = r.queries;
  const std::vector<double> read_ms = AsMs(r.read_us);
  auto pooled_median = [&rounds](auto member) {
    return Median(Pool(rounds, [member](const Round& x) -> const std::vector<double>& {
      return x.*member;
    }));
  };
  Metrics m = {
      {"client.submit_sim_ms", {Mean(AsMs(r.commit_us)), "ms"}},
      {"client.wall_ops_per_s", {WallOpsPerS(rounds), "1/s"}},
      {"client.submit_wall_ms",
       {Median(Each(rounds, [](const Round& x) { return Div(x.busy_s * 1e3, x.commits); })),
        "ms"}},
      {"client.retrieve_sim_ms", {Percentile(read_ms, 0.50), "ms"}},
      {"client.retrieve_sim_ms_p99", {Percentile(read_ms, 0.99), "ms"}},
      {"client.failed", {c(kSessFailed), "count"}},
      {"client.failed_ticket_frac", {Div(c(kSessFailed), c(kSessSubmitted)), "frac"}},
      {"client.throttle_shrinks", {c(kSessThrottleShrinks), "count"}},
      {"storage.publisher.conflicts_per_commit", {Div(c(kPubConflicts), commits), "ratio"}},
      {"storage.publisher.rebases_per_commit", {Div(c(kPubRebases), commits), "ratio"}},
      {"storage.publisher.fenced_skips", {c(kPubFencedSkips), "count"}},
      {"storage.publisher.chained_frac", {Div(c(kPubChained), c(kPubPublishes)), "frac"}},
      {"storage.publisher.put_frames_per_commit", {Div(c(kPubPutFrames), commits), "ratio"}},
      {"storage.service.claim_grant_ratio",
       {Div(c(kSvcClaimsGranted), c(kSvcClaimsGranted) + c(kSvcClaimsRefused)), "ratio"}},
      {"storage.service.pages_stored_per_commit", {Div(c(kSvcPagesStored), commits), "ratio"}},
      {"storage.service.tuples_served_per_row_returned",
       {Div(c(kSvcTuplesServed), r.rows_returned), "ratio"}},
      {"storage.service.gc_retired", {c(kGcRetired), "count"}},
      {"localstore.log_bytes_per_user_byte",
       {Div(c(kStoreLogBytes), r.user_bytes_written), "B/B"}},
      {"localstore.puts_per_update", {Div(c(kStorePuts), updates), "ratio"}},
      {"localstore.gets_per_retrieve", {Div(c(kStoreGets), r.retrieves), "ratio"}},
      {"localstore.compactions", {c(kStoreCompactions), "count"}},
      {"localstore.arena_mb", {r.arena_mb, "MB"}},
      {"wal.bytes_per_user_byte", {Div(c(kWalBytes), r.user_bytes_written), "B/B"}},
      {"wal.syncs_per_commit", {Div(c(kWalSyncs), commits), "ratio"}},
      {"wal.checkpoints", {c(kWalCheckpoints), "count"}},
      {"wal.snapshot_records_per_restart",
       {Div(static_cast<double>(r.restart_delta[kWalSnapshotRecords]), r.restarts_done),
        "count"}},
      {"wal.replayed_records_per_restart",
       {Div(static_cast<double>(r.restart_delta[kWalReplayedRecords]), r.restarts_done),
        "count"}},
      {"net.messages_per_commit", {Div(c(kNetMessages), commits), "ratio"}},
      {"net.bytes_per_committed_tuple", {Div(c(kNetBytes), updates), "B"}},
      {"net.max_inbox_msgs", {r.max_inbox_msgs, "count"}},
      {"net.bytes_per_query", {Div(c(kNetBytes), queries), "B"}},
      {"net.rpc_timeouts", {c(kRpcTimedOut), "count"}},
      {"sim.events_per_commit", {Div(c(kSimEvents), commits), "ratio"}},
      {"sim.events_per_query", {Div(c(kSimEvents), queries), "ratio"}},
  };
  for (const char* q : {"Q1", "Q3", "Q5", "Q6", "Q10"}) {
    auto it = r.query_sim_us.find(q);
    m.push_back({std::string("query.execute_sim_ms.") + q,
                 {it == r.query_sim_us.end() ? 0 : Median(AsMs(it->second)), "ms"}});
  }
  for (const char* q : {"Q1", "Q3", "Q5", "Q6", "Q10"}) {
    std::vector<double> ms;
    for (const Round* x : rounds) {
      auto it = x->query_wall_ms.find(q);
      if (it != x->query_wall_ms.end()) ms.insert(ms.end(), it->second.begin(), it->second.end());
    }
    m.push_back({std::string("query.execute_wall_ms.") + q, {Median(ms), "ms"}});
  }
  Metrics tail = {
      {"query.rows_routed_per_result_row", {Div(c(kQryRowsRouted), r.query_rows), "ratio"}},
      {"query.recoveries", {r.query_recoveries, "count"}},
      {"query.restarts", {r.query_restarts, "count"}},
      {"query.scans_restarted", {c(kQryScansRestarted), "count"}},
      {"query.cache_rows_resent", {c(kQryCacheRowsResent), "count"}},
      {"sql.parse_wall_ms", {pooled_median(&Round::parse_ms), "ms"}},
      {"optimizer.plan_wall_ms", {pooled_median(&Round::plan_ms), "ms"}},
      {"optimizer.candidates_generated", {Div(r.candidates_generated, queries), "count"}},
      {"deploy.restart_wall_ms", {pooled_median(&Round::restart_ms), "ms"}},
      {"deploy.kill_wall_ms", {pooled_median(&Round::kill_ms), "ms"}},
      {"trace.overhead_frac", {overhead, "frac"}},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

void PrintNumber(std::FILE* f, double v) {
  std::fprintf(f, "%.17g", std::isfinite(v) ? v : 0.0);
}

void PrintMetrics(std::FILE* f, const Metrics& m) {
  std::fputc('{', f);
  for (size_t i = 0; i < m.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m[i].first.c_str());
    PrintNumber(f, m[i].second.first);
    std::fprintf(f, ", \"unit\": \"%s\"}", m[i].second.second);
  }
  std::fputc('}', f);
}

/// Host milliseconds of each span not covered by its children, and their sum
/// per layer. Spans of the "request" layer only mark an overlapping request's
/// lifetime; they have no children and no self time.
struct SelfTime {
  std::vector<double> span_ms;
  std::map<std::string, double> layer_ms;
};

SelfTime ComputeSelfTime(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_s[s.parent] += s.w1 - s.w0;
  }
  SelfTime t;
  for (const Span& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const double ms = layer == "request" ? 0 : (s.w1 - s.w0 - child_s[s.id]) * 1e3;
    t.span_ms.push_back(ms);
    if (layer != "request") t.layer_ms[layer] += ms;
  }
  return t;
}

bool WriteTrace(const std::string& path, const Args& a, const Round& r, const Metrics& e2e,
                const Metrics& layers, double untraced_ops_s, double traced_ops_s) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n", a.workload.c_str(),
               static_cast<unsigned long long>(a.seed));
  std::fprintf(f, "\"wall_ops_per_s_untraced\": ");
  PrintNumber(f, untraced_ops_s);
  std::fprintf(f, ", \"wall_ops_per_s_traced\": ");
  PrintNumber(f, traced_ops_s);
  std::fprintf(f, ",\n\"end_to_end\": ");
  PrintMetrics(f, e2e);
  std::fprintf(f, ",\n\"per_layer\": ");
  PrintMetrics(f, layers);
  const SelfTime self = ComputeSelfTime(r.spans);
  std::fprintf(f, ",\n\"self_ms_by_layer\": {");
  for (auto it = self.layer_ms.begin(); it != self.layer_ms.end(); ++it) {
    std::fprintf(f, "%s\"%s\": ", it == self.layer_ms.begin() ? "" : ", ", it->first.c_str());
    PrintNumber(f, it->second);
  }
  std::fprintf(f, "},\n\"counter_names\": [");
  for (int i = 0; i < kNumCtrs; ++i) std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", kCtrNames[i]);
  std::fprintf(f, "],\n\"span_fields\": [\"id\", \"parent\", \"rid\", \"name\", "
                  "\"wall_start_ms\", \"wall_end_ms\", \"self_ms\", \"sim_start_us\", "
                  "\"sim_end_us\", \"counter_deltas\"],\n\"spans\": [\n");
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    std::fprintf(f, "[%u, %u, %llu, \"%s\", %.6f, %.6f, %.6f, %lld, %lld, {", s.id, s.parent,
                 static_cast<unsigned long long>(s.rid), s.name.c_str(), s.w0 * 1e3,
                 s.w1 * 1e3, self.span_ms[i], static_cast<long long>(s.s0),
                 static_cast<long long>(s.s1));
    if (s.has_delta) {
      bool first = true;
      for (int k = 0; k < kNumCtrs; ++k) {
        if (s.delta.v[k] == 0) continue;
        std::fprintf(f, "%s\"%d\": %llu", first ? "" : ", ", k,
                     static_cast<unsigned long long>(s.delta.v[k]));
        first = false;
      }
    }
    std::fprintf(f, "}]%s\n", i + 1 == r.spans.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& def : kWorkloads) {
    if (a.workload == def.name) w = &def;
  }
  if (w == nullptr) Usage("unknown --workload '" + a.workload + "'");

  // Rounds repeat the same seeded script until --seconds have passed; a
  // traced run alternates untraced and traced rounds so the two can be
  // compared (the tracing overhead).
  const size_t min_rounds = 2;
  std::vector<Round> rounds;
  std::vector<bool> traced;
  const double t0 = WallNow();
  double longest = 0;
  while (rounds.size() < min_rounds ||
         (WallNow() - t0 < a.seconds && WallNow() - t0 + longest < kRunBudgetS)) {
    const bool trace = a.trace && rounds.size() % 2 == 1;
    const double r0 = WallNow();
    Probe probe(trace);
    rounds.push_back(w->fn(a, probe));
    rounds.back().spans = probe.spans();
    traced.push_back(trace);
    longest = std::max(longest, WallNow() - r0);
    const Round& r = rounds.back();
    std::fprintf(stderr,
                 "e2ebench: round %zu%s: setup %.4f s, %.1f ops/s over %.3f s busy, "
                 "restart median %.2f ms, heap peak %.3f MB, round %.2f s\n",
                 rounds.size() - 1, trace ? " (traced)" : "", r.setup_s, Div(r.ops, r.busy_s),
                 r.busy_s, Median(r.restart_ms), r.heap_peak_mb, WallNow() - r0);
    if (!r.mismatch.empty()) break;
  }
  bool correct = true;
  // setup_s is the fastest of the set-ups done after the rounds, with the
  // process pinned to each CPU it may use in turn. On a shared host the CPUs
  // run at different speeds as other tenants load them (the same set-up took
  // 1.6x as long on one CPU as on another, steadily), so one set-up's time
  // says more about where it ran than about the code; the fastest over every
  // CPU does not. Short set-ups are repeated for a few seconds: the fastest
  // of 16 ingest set-ups still spread by 14% across runs, of 32 by 3%.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const size_t kMinSetups = 16, kMaxSetups = 64;
  const double kSetupSeconds = 3;
  std::vector<double> setups;
  Args setup_args = a;
  setup_args.setup_only = true;
  const double setups_t0 = WallNow();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && WallNow() - setups_t0 < kSetupSeconds)) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[setups.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    Probe probe(false);
    const Round r = w->fn(setup_args, probe);
    setups.push_back(r.setup_s);
    if (!r.mismatch.empty()) {
      std::fprintf(stderr, "e2ebench: %s set-up: %s\n", w->name, r.mismatch.c_str());
      correct = false;
    }
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  std::fprintf(stderr, "e2ebench: set-ups (s):");
  for (double x : setups) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");

  uint64_t attempted = 0, failed = 0;
  std::vector<const Round*> all, plain, with_trace;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    attempted += r.attempted;
    failed += r.failed;
    all.push_back(&r);
    (traced[i] ? with_trace : plain).push_back(&r);
    if (!r.mismatch.empty()) {
      std::fprintf(stderr, "e2ebench: %s round %zu: oracle mismatch: %s\n", w->name, i,
                   r.mismatch.c_str());
      correct = false;
    } else if (std::string diff = SimDifference(rounds.front(), r); !diff.empty()) {
      std::fprintf(stderr, "e2ebench: %s round %zu: same seed, different %s\n", w->name, i,
                   diff.c_str());
      correct = false;
    }
  }
  const Round& r0 = rounds.front();
  std::fprintf(stderr,
               "e2ebench: workload=%s seed=%llu rounds=%zu digest=%016llx "
               "events=%llu commits=%.0f retrieves=%.0f queries=%.0f restarts=%.0f\n",
               w->name, static_cast<unsigned long long>(a.seed), rounds.size(),
               static_cast<unsigned long long>(r0.digest),
               static_cast<unsigned long long>(r0.delta[kSimEvents]), r0.commits,
               r0.retrieves, r0.queries, r0.restarts_done);

  if (with_trace.empty()) with_trace = plain;  // stopped at a first-round mismatch
  std::fprintf(stderr, "e2ebench: host ops/s %.2f, RestartNode median %.2f ms (not gated)\n",
               WallOpsPerS(plain),
               Median(Pool(plain, [](const Round& r) -> const std::vector<double>& {
                 return r.restart_ms;
               })));
  const Metrics e2e = EndToEnd(*w, plain, setups);
  Metrics out = e2e;
  if (a.trace) {
    const double untraced_ops_s = WallOpsPerS(plain), traced_ops_s = WallOpsPerS(with_trace);
    const double overhead = 1.0 - Div(traced_ops_s, untraced_ops_s);
    out = PerLayer(all, with_trace, overhead);
    const std::string path =
        ".bench_out/trace_" + a.workload + "_seed" + std::to_string(a.seed) + ".json";
    if (!WriteTrace(path, a, *with_trace.front(), e2e, out, untraced_ops_s, traced_ops_s)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "e2ebench: spans written to %s (tracing overhead %.1f%%)\n",
                 path.c_str(), overhead * 100);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(stdout, out);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
