#include <algorithm>
#include <cmath>

#include "common/serial.h"
#include "bench.h"

namespace e2ebench {

const char* const kCtrNames[kNumCtrs] = {
    "client.submitted",         "client.committed",
    "client.failed",            "client.throttle_shrinks",
    "publisher.publishes",      "publisher.chained",
    "publisher.put_frames",     "publisher.epoch_conflicts",
    "publisher.rebases",        "publisher.fenced_skips",
    "service.tuples_stored",    "service.pages_stored",
    "service.scans_served",     "service.tuples_served",
    "service.claims_granted",   "service.claims_refused",
    "service.gc_retired",       "rpc.started",
    "rpc.timed_out",            "localstore.puts",
    "localstore.gets",          "localstore.log_bytes",
    "localstore.compactions",   "wal.bytes_appended",
    "wal.syncs",                "wal.checkpoints",
    "wal.recoveries",           "wal.snapshot_records",
    "wal.replayed_records",     "net.messages",
    "net.bytes",                "query.rows_routed",
    "query.scans_restarted",    "query.cache_rows_resent",
    "sim.events",
};

Counters Snapshot(dep::Deployment& d) {
  Counters c;
  auto& v = c.v;
  for (size_t i = 0; i < d.size(); ++i) {
    const auto& ss = d.session(i).stats();
    v[kSessSubmitted] += ss.submitted;
    v[kSessCommitted] += ss.committed;
    v[kSessFailed] += ss.failed;
    v[kSessThrottleShrinks] += ss.throttle_shrinks;

    const auto& ps = d.publisher(i).pipeline_stats();
    v[kPubPublishes] += ps.publishes;
    v[kPubChained] += ps.chained;
    v[kPubPutFrames] += ps.put_frames;
    v[kPubConflicts] += ps.epoch_conflicts;
    v[kPubRebases] += ps.rebases;
    v[kPubFencedSkips] += ps.fenced_skips;

    auto& svc = d.storage(i);
    const auto& sc = svc.counters();
    v[kSvcTuplesStored] += sc.tuples_stored;
    v[kSvcPagesStored] += sc.pages_stored;
    v[kSvcScansServed] += sc.scans_served;
    v[kSvcTuplesServed] += sc.tuples_served;
    v[kSvcClaimsGranted] += sc.claims_granted;
    v[kSvcClaimsRefused] += sc.claims_refused;
    const auto& gs = svc.gc_stats();
    v[kGcRetired] += gs.retired_data + gs.retired_pages + gs.retired_coords +
                     gs.retired_tombstones + gs.retired_claims;
    v[kRpcStarted] += svc.rpc_counters().started;
    v[kRpcTimedOut] += svc.rpc_counters().timed_out;

    auto& store = svc.store();
    const auto& ls = store.stats();
    v[kStorePuts] += ls.puts;
    v[kStoreGets] += ls.gets.load(std::memory_order_relaxed);
    v[kStoreLogBytes] += ls.log_bytes;
    v[kStoreCompactions] += ls.compactions;
    if (const auto* wal = store.wal(); wal != nullptr) {
      const auto& ws = wal->stats();
      v[kWalBytes] += ws.bytes_appended;
      v[kWalSyncs] += ws.syncs;
      v[kWalCheckpoints] += ws.checkpoints;
      v[kWalRecoveries] += ws.recoveries;
      v[kWalSnapshotRecords] += ws.snapshot_records;
      v[kWalReplayedRecords] += ws.replayed_records;
    }

    const auto& qc = d.query(i).counters();
    v[kQryRowsRouted] += qc.rows_routed;
    v[kQryScansRestarted] += qc.scans_restarted;
    v[kQryCacheRowsResent] += qc.cache_rows_resent;
  }
  v[kNetMessages] = d.network().total_messages();
  v[kNetBytes] = d.network().total_bytes();
  v[kSimEvents] = d.sim().events_fired();
  return c;
}

uint64_t WalDiskBytes(const dep::Deployment& d) {
  uint64_t total = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    const auto& backend = d.wal_backend(i);
    if (backend == nullptr) continue;
    for (const std::string& name : backend->List()) {
      auto data = backend->Read(name);
      if (data.ok()) total += data->size();
    }
  }
  return total;
}

uint64_t EncodedBytes(const st::Tuple& t) {
  orchestra::Writer w;
  st::EncodeTuple(t, &w);
  return w.size();
}

uint32_t Probe::Open(const std::string& name, uint32_t parent, uint64_t rid) {
  if (!trace_) return 0;
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.rid = rid;
  s.name = name;
  s.w0 = WallNow() - t0_;
  s.s0 = dep_ != nullptr ? dep_->sim().now() : 0;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Probe::Close(uint32_t id) {
  if (!trace_ || id == 0) return;
  Span& s = spans_[id - 1];
  s.w1 = WallNow() - t0_;
  s.s1 = dep_ != nullptr ? dep_->sim().now() : 0;
}

void Probe::Begin(const char* name, uint32_t parent, uint64_t rid, bool delta) {
  call_delta_ = trace_ && delta && dep_ != nullptr;
  if (call_delta_) call_before_ = Snapshot(*dep_);
  call_span_ = Open(name, parent, rid);
  call_w0_ = WallNow();
}

void Probe::End() {
  const double w1 = WallNow();
  last_call_s_ = w1 - call_w0_;
  if (measuring_) busy_s_ += last_call_s_;
  if (call_span_ != 0) {
    Close(call_span_);
    if (call_delta_) {
      Span& s = spans_[call_span_ - 1];
      s.has_delta = true;
      s.delta = Snapshot(*dep_) - call_before_;
    }
  }
  call_span_ = 0;
}

bool Probe::Run(uint32_t parent, uint64_t rid, const std::function<bool()>& pred,
                sim::SimTime max_wait) {
  Begin("sim.run", parent, rid, true);
  const bool held = dep_->RunUntil(pred, max_wait);
  End();
  return held;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace e2ebench
