// Shared pieces of the end-to-end benchmark: the command line, the
// per-round result record, counter snapshots over a whole deployment, and
// the Probe that times (and, in a traced run, records spans around) every
// call the benchmark makes into the system.
//
// Everything here observes the system from outside: it only calls public
// functions and reads public counter getters.
#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deploy/deployment.h"

namespace e2ebench {

namespace dep = orchestra::deploy;
namespace st = orchestra::storage;
namespace sim = orchestra::sim;
namespace net = orchestra::net;

inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a few seconds of work (self-test only).
  bool quick = false;
  /// Stop a round right after its set-up (extra set-up_s samples).
  bool setup_only = false;
};

// --- Counter snapshots ------------------------------------------------------

/// Cumulative counters summed over every node of a deployment, read only
/// through public getters. Deltas between two snapshots are what the
/// per-layer metrics are built from.
enum Ctr : int {
  kSessSubmitted,
  kSessCommitted,
  kSessFailed,
  kSessThrottleShrinks,
  kPubPublishes,
  kPubChained,
  kPubPutFrames,
  kPubConflicts,
  kPubRebases,
  kPubFencedSkips,
  kSvcTuplesStored,
  kSvcPagesStored,
  kSvcScansServed,
  kSvcTuplesServed,
  kSvcClaimsGranted,
  kSvcClaimsRefused,
  kGcRetired,
  kRpcStarted,
  kRpcTimedOut,
  kStorePuts,
  kStoreGets,
  kStoreLogBytes,
  kStoreCompactions,
  kWalBytes,
  kWalSyncs,
  kWalCheckpoints,
  kWalRecoveries,
  kWalSnapshotRecords,
  kWalReplayedRecords,
  kNetMessages,
  kNetBytes,
  kQryRowsRouted,
  kQryScansRestarted,
  kQryCacheRowsResent,
  kSimEvents,
  kNumCtrs
};

extern const char* const kCtrNames[kNumCtrs];

struct Counters {
  std::array<uint64_t, kNumCtrs> v{};
  uint64_t operator[](Ctr c) const { return v[c]; }
  Counters operator-(const Counters& o) const {
    Counters d;
    for (int i = 0; i < kNumCtrs; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  Counters operator+(const Counters& o) const {
    Counters d;
    for (int i = 0; i < kNumCtrs; ++i) d.v[i] = v[i] + o.v[i];
    return d;
  }
};

Counters Snapshot(dep::Deployment& d);

/// Bytes currently held in every node's WAL backend files.
uint64_t WalDiskBytes(const dep::Deployment& d);
/// Bytes of `t` in the system's own tuple encoding.
uint64_t EncodedBytes(const st::Tuple& t);

// --- Heap accounting (heap.cc) ---------------------------------------------

/// Bytes held through operator new now, and the most held since the last
/// ResetHeapPeak().
size_t HeapLiveBytes();
size_t HeapPeakBytes();
void ResetHeapPeak();

// --- Spans ------------------------------------------------------------------

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: a root span
  uint64_t rid = 0;     // request id shared by one batch or query
  std::string name;     // "<layer>.<call>"
  double w0 = 0, w1 = 0;         // host seconds since the round started
  sim::SimTime s0 = 0, s1 = 0;   // simulated microseconds
  bool has_delta = false;
  Counters delta;  // counters over the span (calls that step the simulator)
};

/// Times the benchmark's calls into the system. Every call goes through Call()
/// or Run(); while measuring is on, their host time adds to busy_s(), which
/// the host rates divide by, so the oracle's bookkeeping between calls never
/// counts. With tracing on, each call also becomes a span, and Run() spans
/// carry counter deltas; that work stays outside the timed interval.
class Probe {
 public:
  explicit Probe(bool trace) : trace_(trace), t0_(WallNow()) {}

  void Attach(dep::Deployment* d) { dep_ = d; }

  /// Opens a span that encloses later calls (a batch, a query, a loop);
  /// returns its id, 0 when not tracing.
  uint32_t Open(const std::string& name, uint32_t parent, uint64_t rid);
  void Close(uint32_t id);

  /// Times `fn` as one call into a layer.
  template <typename F>
  auto Call(const char* name, uint32_t parent, uint64_t rid, F&& fn) {
    Begin(name, parent, rid, false);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End();
    } else {
      auto r = fn();
      End();
      return r;
    }
  }

  /// Steps the simulator until `pred` holds (or `max_wait` simulated time
  /// passes); returns whether it held.
  bool Run(uint32_t parent, uint64_t rid, const std::function<bool()>& pred,
           sim::SimTime max_wait = 600 * sim::kMicrosPerSec);

  /// Host seconds of the most recent Call() or Run().
  double last_call_s() const { return last_call_s_; }
  void set_measuring(bool on) { measuring_ = on; }
  double busy_s() const { return busy_s_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void Begin(const char* name, uint32_t parent, uint64_t rid, bool delta);
  void End();

  bool trace_;
  double t0_;
  dep::Deployment* dep_ = nullptr;
  bool measuring_ = false;
  double busy_s_ = 0;
  double last_call_s_ = 0;
  // The call being timed (calls never nest: the benchmark is single-threaded).
  double call_w0_ = 0;
  uint32_t call_span_ = 0;
  Counters call_before_;
  bool call_delta_ = false;
  std::vector<Span> spans_;
};

// --- Round results ------------------------------------------------------------

/// One round: a fresh deployment, its set-up, and the workload's fixed,
/// seeded script. Everything under "simulated" is a pure function of the
/// seed; the host timings are what differ between rounds.
struct Round {
  // Simulated (deterministic per seed).
  std::vector<sim::SimTime> commit_us;  // first Submit -> commit, per batch
  std::vector<sim::SimTime> read_us;    // Retrieve latencies
  std::vector<sim::SimTime> query_us;   // QueryResult::execution_us
  double ops = 0;                       // committed updates, or answered queries
  double commits = 0;                   // committed batches
  double queries = 0;
  double rows_returned = 0;             // rows returned by Retrieve
  double query_rows = 0;                // rows returned by queries
  double retrieves = 0;
  double user_bytes_written = 0;        // encoded bytes of committed updates
  double updates = 0;                   // committed update count
  std::vector<double> footprint;        // WAL bytes per live user byte
  double arena_mb = 0;                  // LocalStore arenas at loop end
  double max_inbox_msgs = 0;
  double restarts_done = 0;
  sim::SimTime loop_sim_us = 0;
  uint64_t digest = 0;
  Counters delta;                       // counters over the measured loop
  Counters restart_delta;               // counters over RestartNode calls
  std::map<std::string, std::vector<sim::SimTime>> query_sim_us;  // by query
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double query_recoveries = 0;
  double query_restarts = 0;
  double candidates_generated = 0;

  // Host cost.
  size_t heap_base = 0;      // heap bytes held just before the deployment was built
  double heap_peak_mb = 0;   // peak heap above heap_base, through the measured loop
  double setup_s = 0;
  double busy_s = 0;  // time inside calls in the measured loop
  std::vector<double> restart_ms, kill_ms, parse_ms, plan_ms;
  std::map<std::string, std::vector<double>> query_wall_ms;

  /// First oracle mismatch; empty when every answer was correct.
  std::string mismatch;
  std::vector<Span> spans;
};

/// A workload is its set-up (timed as setup_s) followed by its measured
/// loop; each call builds and tears down its own deployment.
using WorkloadFn = Round (*)(const Args&, Probe&);

Round RunIngest(const Args& a, Probe& p);
Round RunContendedWriters(const Args& a, Probe& p);
Round RunQueryFailover(const Args& a, Probe& p);

/// Nearest-rank percentile (q in (0,1]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
