// The three workloads. Each is a closed loop: the benchmark issues a
// participant's next batch (or a user's next query) only once the previous
// one has resolved, the way a CDSS participant publishes after its earlier
// batches are acknowledged and a query user waits for the answer.
//
// Inputs come only from the seed. The oracle (the key -> value models and
// the reference query executor) runs between calls, so its time is
// never part of a measurement.
#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "bench.h"
#include "optimizer/optimizer.h"
#include "query/reference.h"
#include "sql/parser.h"
#include "storage/schema.h"
#include "workload/tpch.h"
#include "workload/workload.h"

namespace e2ebench {
namespace {

using orchestra::Rng;
using Model = std::map<int64_t, std::string>;

constexpr size_t kValueLen = 24;

st::RelationDef KvRelation(const std::string& name, uint32_t partitions) {
  st::RelationDef def;
  def.name = name;
  def.schema = st::Schema(
      {{"k", st::ValueType::kInt64}, {"v", st::ValueType::kString}}, 1);
  def.num_partitions = partitions;
  return def;
}

st::Tuple Row(int64_t k, std::string v) {
  return st::Tuple{st::Value(k), st::Value(std::move(v))};
}

/// Inclusive key range [lo, hi] in the relation's ordered key encoding.
st::KeyFilter KeyRange(int64_t lo, int64_t hi) {
  st::KeyFilter f;
  f.all = false;
  st::Value(lo).EncodeOrdered(&f.lo);
  st::Value(hi).EncodeOrdered(&f.hi);
  return f;
}

/// Compares Retrieve output with the model's rows; returns a description of
/// the first difference, or "" when they agree exactly (no duplicates).
std::string Diff(const std::vector<st::Tuple>& rows, const Model& want) {
  Model got;
  for (const st::Tuple& t : rows) {
    if (t.size() != 2) return "row of arity " + std::to_string(t.size());
    if (!got.emplace(t[0].AsInt64(), t[1].AsString()).second) {
      return "duplicate key " + std::to_string(t[0].AsInt64());
    }
  }
  if (got == want) return "";
  for (const auto& [k, v] : want) {
    auto it = got.find(k);
    if (it == got.end()) return "missing key " + std::to_string(k);
    if (it->second != v) return "stale value at key " + std::to_string(k);
  }
  return "unexpected rows (" + std::to_string(got.size()) + " returned, " +
         std::to_string(want.size()) + " expected)";
}

Model Slice(const Model& m, int64_t lo, int64_t hi) {
  return Model(m.lower_bound(lo), m.upper_bound(hi));
}

/// One planned change to a key: a new value, or nullopt for a delete.
using Change = std::pair<int64_t, std::optional<std::string>>;

st::UpdateBatch ToBatch(const std::string& rel, const std::vector<Change>& cs) {
  st::UpdateBatch batch;
  auto& ups = batch[rel];
  for (const auto& [k, v] : cs) {
    ups.push_back(v ? st::Update::Insert(Row(k, *v))
                    : st::Update::Delete(Row(k, std::string())));
  }
  return batch;
}

void Apply(const std::vector<Change>& cs, Model* m) {
  for (const auto& [k, v] : cs) {
    if (v) {
      (*m)[k] = *v;
    } else {
      m->erase(k);
    }
  }
}

double UserBytes(const std::vector<Change>& cs) {
  double b = 0;
  for (const auto& [k, v] : cs) {
    b += static_cast<double>(EncodedBytes(Row(k, v.value_or(std::string()))));
  }
  return b;
}

double LiveBytes(const Model& m) {
  double b = 0;
  for (const auto& [k, v] : m) b += static_cast<double>(EncodedBytes(Row(k, v)));
  return b;
}

void Mismatch(Round* r, const std::string& what) {
  if (r->mismatch.empty()) r->mismatch = what;
}

/// Present keys with O(1) uniform pick, insert and erase.
class KeySet {
 public:
  explicit KeySet(size_t space) : pos_(space, -1) {}
  bool Has(int64_t k) const { return pos_[static_cast<size_t>(k)] >= 0; }
  void Add(int64_t k) {
    pos_[static_cast<size_t>(k)] = static_cast<int64_t>(keys_.size());
    keys_.push_back(k);
  }
  void Erase(int64_t k) {
    const int64_t i = pos_[static_cast<size_t>(k)];
    keys_[static_cast<size_t>(i)] = keys_.back();
    pos_[static_cast<size_t>(keys_.back())] = i;
    keys_.pop_back();
    pos_[static_cast<size_t>(k)] = -1;
  }
  int64_t Pick(Rng& rng) const { return keys_[rng.Uniform(keys_.size())]; }
  size_t space() const { return pos_.size(); }

 private:
  std::vector<int64_t> keys_;
  std::vector<int64_t> pos_;
};

/// Builds a fresh deployment and times it into r->setup_s together with
/// `load` (relation creation and base-data publish). The heap peak is reset
/// here, so r->heap_peak_mb covers the deployment from its construction.
std::unique_ptr<dep::Deployment> SetUp(const dep::DeploymentOptions& o,
                                       Probe& p, Round* r,
                                       const std::function<bool(dep::Deployment&, uint32_t)>& load) {
  r->heap_base = HeapLiveBytes();
  ResetHeapPeak();
  const double t0 = WallNow();
  const uint32_t span = p.Open("bench.setup", 0, 0);
  auto d = p.Call("deploy.Deployment", span, 0,
                  [&o] { return std::make_unique<dep::Deployment>(o); });
  p.Attach(d.get());
  if (!load(*d, span)) Mismatch(r, "set-up failed");
  p.Close(span);
  r->setup_s = WallNow() - t0;
  return d;
}

/// Starts the measured loop: traffic accounting is reset so inbox
/// high-water marks cover the loop only.
Counters BeginLoop(dep::Deployment& d, Probe& p) {
  d.network().ResetTraffic();
  p.set_measuring(true);
  return Snapshot(d);
}

void EndLoop(dep::Deployment& d, Probe& p, const Counters& c0,
             sim::SimTime sim0, Round* r) {
  p.set_measuring(false);
  r->busy_s = p.busy_s();

  r->delta = Snapshot(d) - c0;
  r->loop_sim_us = d.sim().now() - sim0;
  r->heap_peak_mb = static_cast<double>(HeapPeakBytes() - r->heap_base) / 1e6;
  r->max_inbox_msgs = static_cast<double>(d.network().MaxInboxMessages());
  for (size_t i = 0; i < d.size(); ++i) {
    r->arena_mb += static_cast<double>(d.storage(i).store().arena_bytes()) / 1e6;
  }
}

/// Kills `victim` and restarts it (timed), then reads the whole relation
/// through it and compares with `model`: durability across the restart.
void RestartAndCheck(dep::Deployment& d, Probe& p, Round* r, net::NodeId victim,
                     const std::string& rel, st::Epoch epoch,
                     const Model& model) {
  const uint32_t span = p.Open("bench.check_restart", 0, 0);
  p.Call("deploy.KillNode", span, 0, [&] { d.KillNode(victim, false); });
  r->kill_ms.push_back(p.last_call_s() * 1e3);
  const Counters before = Snapshot(d);
  p.Call("deploy.RestartNode", span, 0, [&] { d.RestartNode(victim); });
  r->restart_ms.push_back(p.last_call_s() * 1e3);
  r->restart_delta = r->restart_delta + (Snapshot(d) - before);
  r->restarts_done += 1;

  auto rows = p.Call("client.Retrieve", span, 0, [&] {
    return d.session(victim).Retrieve(rel, epoch);
  });
  r->attempted += 1;
  if (!p.Run(span, 0, [&rows] { return rows.done(); })) {
    Mismatch(r, "full retrieve after restart never resolved");
  } else if (!rows.ok()) {
    r->failed += 1;
  } else if (std::string diff = Diff(rows.value(), model); !diff.empty()) {
    Mismatch(r, "full retrieve through restarted node " +
                    std::to_string(victim) + ": " + diff);
  }
  p.Close(span);
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
}

/// `n` distinct nodes from [lo, hi), drawn from `rng`.
std::vector<net::NodeId> Victims(Rng& rng, size_t n, size_t lo, size_t hi) {
  std::vector<net::NodeId> all;
  for (size_t i = lo; i < hi; ++i) all.push_back(static_cast<net::NodeId>(i));
  Shuffle(rng, &all);
  all.resize(std::min(n, all.size()));
  return all;
}

/// Samples the storage footprint: WAL bytes on every node per byte of live
/// user data. WAL size is a sawtooth (checkpoints retire segments), so the
/// write workloads sample it at every tenth of their loop.
void SampleFootprint(const dep::Deployment& d, double live_user_bytes, Round* r) {
  r->footprint.push_back(static_cast<double>(WalDiskBytes(d)) / live_user_bytes);
}

}  // namespace

// --- ingest -------------------------------------------------------------------
//
// One participant (node 0) streams 16-update batches into a relation of
// about 10^4 rows in 32 partitions on 8 nodes, with the default durable WAL
// and GC keeping 4 epochs. Each batch is 12 overwrites, 2 inserts and
// 2 deletes of distinct keys, so the relation's size holds steady. Beside
// each publish, a 50-key range Retrieve runs from another node at the newest
// committed epoch and is checked against the model at that epoch.
Round RunIngest(const Args& a, Probe& p) {
  const size_t kRows = a.quick ? 1000 : 10000;
  const size_t kBatches = a.quick ? 60 : 1000;
  const size_t kOverwrites = 12, kInserts = 2, kDeletes = 2;
  const int64_t kRange = 50;
  const std::string kRel = "ingest";

  Round r;
  Rng rng(a.seed);
  KeySet keys(kRows + kRows / 4);
  Model model;
  st::UpdateBatch preload;
  {
    std::vector<int64_t> order(keys.space());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
    Shuffle(rng, &order);
    auto& ups = preload[kRel];
    for (size_t i = 0; i < kRows; ++i) {
      keys.Add(order[i]);
      model[order[i]] = rng.AlphaString(kValueLen);
      ups.push_back(st::Update::Insert(Row(order[i], model[order[i]])));
    }
  }

  dep::DeploymentOptions o;
  o.num_nodes = 8;
  o.replication = 3;
  o.seed = a.seed;
  o.gc_keep_epochs = 4;
  st::Epoch last = 0;
  auto d = SetUp(o, p, &r, [&](dep::Deployment& dd, uint32_t span) {
    if (!p.Call("deploy.CreateRelation", span, 0,
                [&] { return dd.CreateRelation(0, KvRelation(kRel, 32)); })
             .ok()) {
      return false;
    }
    auto e = p.Call("deploy.Publish", span, 0,
                    [&] { return dd.Publish(0, std::move(preload)); });
    if (e.ok()) last = *e;
    return e.ok();
  });

  if (a.setup_only) return r;
  const Counters c0 = BeginLoop(*d, p);
  const sim::SimTime sim0 = d->sim().now();
  for (size_t b = 0; b < kBatches && r.mismatch.empty(); ++b) {
    const uint64_t rid = b + 1;
    // Input: distinct keys per batch.
    std::vector<Change> changes;
    std::set<int64_t> used;
    auto fresh_present = [&] {
      int64_t k;
      do { k = keys.Pick(rng); } while (used.count(k) != 0);
      used.insert(k);
      return k;
    };
    for (size_t i = 0; i < kOverwrites; ++i) {
      changes.emplace_back(fresh_present(), rng.AlphaString(kValueLen));
    }
    for (size_t i = 0; i < kDeletes; ++i) changes.emplace_back(fresh_present(), std::nullopt);
    for (size_t i = 0; i < kInserts; ++i) {
      int64_t k;
      do {
        k = static_cast<int64_t>(rng.Uniform(keys.space()));
      } while (keys.Has(k) || used.count(k) != 0);
      used.insert(k);
      changes.emplace_back(k, rng.AlphaString(kValueLen));
    }
    const st::UpdateBatch batch = ToBatch(kRel, changes);
    const auto reader = static_cast<size_t>(1 + b % 7);
    const int64_t lo = static_cast<int64_t>(rng.Uniform(keys.space() - kRange));
    const Model expect = Slice(model, lo, lo + kRange - 1);

    const uint32_t req = p.Open("bench.ingest_batch", 0, rid);
    const sim::SimTime first_submit = d->sim().now();
    const st::Epoch read_epoch = last;
    auto rows = p.Call("client.Retrieve", req, rid, [&] {
      return d->session(reader).Retrieve(kRel, read_epoch, KeyRange(lo, lo + kRange - 1));
    });
    r.attempted += 2;  // the batch and the retrieve
    sim::SimTime read_at = -1;
    bool committed = false;
    for (int attempt = 0; attempt < 8 && !committed; ++attempt) {
      auto t = p.Call("client.Submit", req, rid,
                      [&] { return d->session(0).Submit(batch); });
      sim::SimTime commit_at = -1;
      const bool held = p.Run(req, rid, [&] {
        const sim::SimTime now = d->sim().now();
        if (read_at < 0 && rows.done()) read_at = now;
        if (commit_at < 0 && t.epoch.done()) commit_at = now;
        return commit_at >= 0 && read_at >= 0;
      });
      if (!held) {
        Mismatch(&r, "batch or retrieve never resolved");
        break;
      }
      if (!t.epoch.ok()) continue;  // re-submitted: counted by client.failed
      committed = true;
      if (t.epoch.value() <= last) {
        Mismatch(&r, "commit epoch did not advance");
        break;
      }
      last = t.epoch.value();
      r.commit_us.push_back(commit_at - first_submit);
      Apply(changes, &model);
      for (const auto& [k, v] : changes) {
        if (v && !keys.Has(k)) keys.Add(k);
        if (!v && keys.Has(k)) keys.Erase(k);
      }
      r.commits += 1;
      r.updates += static_cast<double>(changes.size());
      r.user_bytes_written += UserBytes(changes);
      if ((b + 1) % (kBatches / 10) == 0) SampleFootprint(*d, LiveBytes(model), &r);
    }
    if (!committed) Mismatch(&r, "batch never committed");
    p.Close(req);

    if (read_at >= 0) {
      r.retrieves += 1;
      if (!rows.ok()) {
        r.failed += 1;
      } else {
        r.read_us.push_back(read_at - first_submit);
        r.rows_returned += static_cast<double>(rows.value().size());
        if (std::string diff = Diff(rows.value(), expect); !diff.empty()) {
          Mismatch(&r, "range retrieve at epoch " + std::to_string(read_epoch) + ": " + diff);
        }
      }
    }
  }
  r.ops = r.updates;
  EndLoop(*d, p, c0, sim0, &r);

  // Rolling restart of every node, each followed by a full read through it.
  for (net::NodeId v : Victims(rng, d->size(), 0, d->size())) {
    if (!r.mismatch.empty()) break;
    RestartAndCheck(*d, p, &r, v, kRel, last, model);
  }
  r.digest = d->sim().trace_digest();
  return r;
}

// --- contended_writers --------------------------------------------------------
//
// 16 participants (nodes 0..15) on 18 nodes with abandonment fencing armed.
// Each owns a 256-key stripe of a small preloaded relation, keeps one batch
// of 8 updates in flight, and must commit a fixed number of batches; a
// failed ticket is re-submitted with the same batch. At the end a full
// Retrieve must equal the union of all stripes.
Round RunContendedWriters(const Args& a, Probe& p) {
  const size_t kWriters = 16, kStripe = 256, kUpdates = 8;
  const size_t kQuota = a.quick ? 5 : 64;
  // Restarts at the end; each replays a WAL that GC never trims here.
  const size_t kRestarts = 6;
  const std::string kRel = "stripes";

  Round r;
  Rng rng(a.seed);
  Model model;
  st::UpdateBatch preload;
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kStripe; ++i) {
      const auto k = static_cast<int64_t>(w * kStripe + i);
      model[k] = rng.AlphaString(kValueLen);
      preload[kRel].push_back(st::Update::Insert(Row(k, model[k])));
    }
  }

  dep::DeploymentOptions o;
  o.num_nodes = kWriters + 2;
  o.replication = 3;
  o.seed = a.seed;
  o.fence_after_us = 8 * sim::kMicrosPerSec;
  auto d = SetUp(o, p, &r, [&](dep::Deployment& dd, uint32_t span) {
    if (!p.Call("deploy.CreateRelation", span, 0,
                [&] { return dd.CreateRelation(kWriters, KvRelation(kRel, 16)); })
             .ok()) {
      return false;
    }
    return p.Call("deploy.Publish", span, 0,
                  [&] { return dd.Publish(kWriters, std::move(preload)); })
        .ok();
  });

  if (a.setup_only) return r;
  struct Writer {
    std::vector<Change> changes;
    st::UpdateBatch batch;
    orchestra::client::Ticket ticket;
    sim::SimTime first_submit = 0;
    uint32_t span = 0;
    uint64_t rid = 0;
    size_t committed = 0;
    int attempts = 0;
    bool active = true;
  };
  std::vector<Writer> ws(kWriters);
  uint64_t next_rid = 1;
  // Calls nest under the loop span. Batches overlap, so each batch's
  // lifetime is a separate request span that shares its calls' request id.
  uint32_t loop = 0;
  auto next_batch = [&](size_t w) {
    Writer& wr = ws[w];
    wr.changes.clear();
    std::set<int64_t> used;
    while (wr.changes.size() < kUpdates) {
      const auto k = static_cast<int64_t>(w * kStripe + rng.Uniform(kStripe));
      if (!used.insert(k).second) continue;
      if (model.count(k) != 0 && rng.Uniform(100) < 15) {
        wr.changes.emplace_back(k, std::nullopt);
      } else {
        wr.changes.emplace_back(k, rng.AlphaString(kValueLen));
      }
    }
    wr.batch = ToBatch(kRel, wr.changes);
    wr.rid = next_rid++;
    wr.span = p.Open("request.contended_batch", 0, wr.rid);
    wr.first_submit = d->sim().now();
    wr.attempts = 0;
    r.attempted += 1;
  };
  auto submit = [&](size_t w) {
    Writer& wr = ws[w];
    wr.ticket = p.Call("client.Submit", loop, wr.rid,
                       [&] { return d->session(w).Submit(wr.batch); });
    wr.attempts += 1;
  };

  const Counters c0 = BeginLoop(*d, p);
  const sim::SimTime sim0 = d->sim().now();
  loop = p.Open("bench.contended_loop", 0, 0);
  st::Epoch newest = 0;
  for (size_t w = 0; w < kWriters; ++w) {
    next_batch(w);
    submit(w);
  }
  size_t active = kWriters;
  while (active > 0 && r.mismatch.empty()) {
    const bool held = p.Run(loop, 0, [&] {
      for (const Writer& wr : ws) {
        if (wr.active && wr.ticket.epoch.done()) return true;
      }
      return false;
    });
    if (!held) {
      Mismatch(&r, "a writer's ticket never resolved");
      break;
    }
    const sim::SimTime now = d->sim().now();
    for (size_t w = 0; w < kWriters; ++w) {
      Writer& wr = ws[w];
      if (!wr.active || !wr.ticket.epoch.done()) continue;
      if (!wr.ticket.epoch.ok()) {
        if (wr.attempts >= 64) {
          Mismatch(&r, "writer " + std::to_string(w) + " never committed a batch");
          break;
        }
        submit(w);
        continue;
      }
      p.Close(wr.span);
      newest = std::max(newest, wr.ticket.epoch.value());
      r.commit_us.push_back(now - wr.first_submit);
      Apply(wr.changes, &model);
      r.commits += 1;
      r.updates += static_cast<double>(wr.changes.size());
      r.user_bytes_written += UserBytes(wr.changes);
      if (static_cast<size_t>(r.commits) % (kWriters * kQuota / 10) == 0) {
        SampleFootprint(*d, LiveBytes(model), &r);
      }
      if (++wr.committed == kQuota) {
        wr.active = false;
        active -= 1;
      } else {
        next_batch(w);
        submit(w);
      }
    }
  }
  p.Close(loop);
  r.ops = r.updates;
  EndLoop(*d, p, c0, sim0, &r);

  if (r.mismatch.empty()) {
    const uint32_t span = p.Open("bench.check_union", 0, 0);
    auto rows = p.Call("client.Retrieve", span, 0, [&] {
      return d->session(kWriters + 1).Retrieve(kRel, newest);
    });
    r.attempted += 1;
    if (!p.Run(span, 0, [&rows] { return rows.done(); })) {
      Mismatch(&r, "final retrieve never resolved");
    } else if (!rows.ok()) {
      r.failed += 1;
    } else if (std::string diff = Diff(rows.value(), model); !diff.empty()) {
      Mismatch(&r, "final retrieve is not the union of the stripes: " + diff);
    }
    p.Close(span);
  }
  for (net::NodeId v : Victims(rng, kRestarts, 0, d->size())) {
    if (!r.mismatch.empty()) break;
    RestartAndCheck(*d, p, &r, v, kRel, newest, model);
  }
  r.digest = d->sim().trace_digest();
  return r;
}

// --- query_failover -------------------------------------------------------------
//
// TPC-H (scale 0.008, about 69k rows) is loaded during set-up on 8 nodes.
// Node 0 then issues 100 queries, 20 each of Q1/Q3/Q5/Q6/Q10 in a seeded
// order, in a closed loop, parsing and planning each one every time. In 20
// of them, drawn by the seed, a non-initiator node is killed at a seeded
// point of the run (a fraction of that query's fastest failure-free
// simulated time) and restarted once the query has finished. Every answer
// must equal the reference executor's.
namespace {

struct TpchInputs {
  std::vector<orchestra::workload::GeneratedRelation> rels;
  orchestra::query::ReferenceDatabase db;
  orchestra::optimizer::StatsCatalog stats;
  std::map<std::string, std::vector<st::Tuple>> expected;  // by query name
};

/// Generated once per process: every round of a run uses the same seed.
TpchInputs& Inputs(uint64_t seed, bool quick) {
  static std::map<std::pair<uint64_t, bool>, TpchInputs> cache;
  auto [it, fresh] = cache.try_emplace({seed, quick});
  if (fresh) {
    orchestra::workload::TpchConfig cfg;
    cfg.scale_factor = quick ? 0.002 : 0.008;
    cfg.seed = seed;
    cfg.num_partitions = 32;
    it->second.rels = orchestra::workload::TpchGenerate(cfg);
    it->second.db = orchestra::workload::AsReferenceDb(it->second.rels);
    it->second.stats = orchestra::workload::StatsFor(it->second.rels);
  }
  return it->second;
}

}  // namespace

Round RunQueryFailover(const Args& a, Probe& p) {
  namespace wl = orchestra::workload;
  const size_t kQueries = a.quick ? 15 : 100;
  const size_t kNodes = 8;

  Round r;
  TpchInputs& in = Inputs(a.seed, a.quick);
  const std::vector<std::string> names = wl::TpchQueryNames();
  struct Step {
    std::string name;
    bool fail = false;
    double frac = 0;
    net::NodeId victim = 0;
  };
  // Each query type runs equally often, in a seeded order. Exactly one
  // query in five gets a node killed; the first of each type never does, as
  // its failure-free time places the later kills.
  Rng rng(a.seed);
  std::vector<Step> steps(kQueries);
  for (size_t i = 0; i < kQueries; ++i) steps[i].name = names[i % names.size()];
  Shuffle(rng, &steps);
  std::vector<size_t> candidates;
  std::set<std::string> seen;
  for (size_t i = 0; i < kQueries; ++i) {
    if (!seen.insert(steps[i].name).second) candidates.push_back(i);
  }
  Shuffle(rng, &candidates);
  for (size_t i = 0; i < kQueries / 5; ++i) {
    Step& s = steps[candidates[i]];
    s.fail = true;
    s.frac = 0.1 + 0.7 * rng.NextDouble();
    s.victim = static_cast<net::NodeId>(1 + rng.Uniform(kNodes - 1));
  }

  dep::DeploymentOptions o;
  o.num_nodes = kNodes;
  o.replication = 3;
  o.seed = a.seed;
  st::Epoch epoch = 0;
  auto d = SetUp(o, p, &r, [&](dep::Deployment& dd, uint32_t span) {
    auto e = p.Call("workload.Load", span, 0,
                    [&] { return wl::Load(&dd, 0, in.rels); });
    if (e.ok()) epoch = *e;
    return e.ok();
  });

  if (a.setup_only) return r;
  orchestra::optimizer::CostParams params;
  params.num_nodes = kNodes;
  orchestra::optimizer::Optimizer opt(in.stats, params);
  const orchestra::optimizer::CatalogView catalog =
      [dp = d.get()](const std::string& name) { return dp->storage(0).Relation(name); };
  std::map<std::string, sim::SimTime> clean_us;  // fastest failure-free run

  const Counters c0 = BeginLoop(*d, p);
  const sim::SimTime sim0 = d->sim().now();
  for (size_t i = 0; i < steps.size() && r.mismatch.empty(); ++i) {
    const Step& s = steps[i];
    const uint64_t rid = i + 1;
    const uint32_t req = p.Open("bench.failover_query", 0, rid);
    double wall = 0;
    auto analyzed = p.Call("sql.ParseAndAnalyze", req, rid, [&] {
      return orchestra::sql::ParseAndAnalyze(wl::TpchQuerySql(s.name), catalog);
    });
    r.parse_ms.push_back(p.last_call_s() * 1e3);
    wall += p.last_call_s();
    if (!analyzed.ok()) {
      Mismatch(&r, s.name + " failed to parse: " + analyzed.status().ToString());
      break;
    }
    auto planned = p.Call("optimizer.Plan", req, rid, [&] { return opt.Plan(*analyzed); });
    r.plan_ms.push_back(p.last_call_s() * 1e3);
    wall += p.last_call_s();
    if (!planned.ok()) {
      Mismatch(&r, s.name + " failed to plan: " + planned.status().ToString());
      break;
    }
    r.candidates_generated += static_cast<double>(opt.search_stats().candidates_generated);
    const orchestra::query::PhysicalPlan& plan = planned->plan;

    auto result = p.Call("client.Query", req, rid,
                         [&] { return d->session(0).Query(plan, epoch); });
    wall += p.last_call_s();
    r.attempted += 1;
    const sim::SimTime start = d->sim().now();
    bool killed = false;
    if (s.fail && clean_us.count(s.name) != 0) {
      const auto kill_at =
          start + static_cast<sim::SimTime>(s.frac * static_cast<double>(clean_us[s.name]));
      p.Run(req, rid, [&] { return result.done() || d->sim().now() >= kill_at; });
      wall += p.last_call_s();
      if (!result.done()) {
        p.Call("deploy.KillNode", req, rid, [&] { d->KillNode(s.victim, false); });
        r.kill_ms.push_back(p.last_call_s() * 1e3);
        wall += p.last_call_s();
        killed = true;
      }
    }
    const bool held =
        p.Run(req, rid, [&result] { return result.done(); }, 3600 * sim::kMicrosPerSec);
    wall += p.last_call_s();
    if (killed) {
      const Counters before = Snapshot(*d);
      p.Call("deploy.RestartNode", req, rid, [&] { d->RestartNode(s.victim); });
      r.restart_ms.push_back(p.last_call_s() * 1e3);
      r.restart_delta = r.restart_delta + (Snapshot(*d) - before);
      r.restarts_done += 1;
    }
    p.Close(req);
    if (!held) {
      Mismatch(&r, s.name + " never resolved");
      break;
    }
    r.queries += 1;
    if (!result.ok()) {
      r.failed += 1;
      continue;
    }
    const orchestra::query::QueryResult& qr = result.value();
    r.query_us.push_back(qr.execution_us);
    r.query_sim_us[s.name].push_back(qr.execution_us);
    r.query_wall_ms[s.name].push_back(wall * 1e3);
    r.query_rows += static_cast<double>(qr.rows.size());
    r.query_recoveries += qr.recoveries;
    r.query_restarts += qr.restarts;
    if (!killed) {
      auto [it, first] = clean_us.try_emplace(s.name, qr.execution_us);
      if (!first) it->second = std::min(it->second, qr.execution_us);
    }

    auto [exp, fresh] = in.expected.try_emplace(s.name);
    if (fresh) {
      auto ref = orchestra::query::ReferenceExecute(plan, in.db);
      if (!ref.ok()) {
        Mismatch(&r, s.name + ": reference executor failed");
        break;
      }
      exp->second = std::move(*ref);
    }
    if (!orchestra::query::SameBagApprox(qr.rows, exp->second)) {
      Mismatch(&r, s.name + " (query " + std::to_string(rid) +
                       (killed ? ", node killed mid-query" : "") +
                       ") differs from the reference answer");
    }
  }
  r.ops = r.queries;
  EndLoop(*d, p, c0, sim0, &r);
  double live = 0;
  for (const auto& rel : in.rels) {
    for (const st::Tuple& t : rel.rows) live += static_cast<double>(EncodedBytes(t));
  }
  SampleFootprint(*d, live, &r);
  r.digest = d->sim().trace_digest();
  return r;
}

}  // namespace e2ebench
