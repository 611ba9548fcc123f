// Figure 21: running times for Q1 and Q10 when a node fails mid-query,
// comparing full restart against incremental recomputation (8 nodes, TPC-H
// SF 2 at paper scale). The failure time sweeps over the query's lifetime;
// the paper found incremental recovery ~20% faster than restart.
//
// Part two measures the other recovery axis this repo adds on top of the
// paper: NODE restart cost. A LocalStore is loaded through a real on-disk
// WAL (wal::FileBackend) at 1x/10x/100x store sizes, with checkpoints on vs
// off, and a fresh store recovers from the files. With checkpoints the
// replay tail is bounded by the checkpoint cadence — recovery work stays
// flat while the store grows 100x — and benchdiff enforces that bound on
// the deterministic replayed_records counter (docs/DURABILITY.md).
//
// Part three measures what a node restart ships across the cluster: the
// digest-driven catch-up (StorageService::RebalanceTo) after a restart that
// missed nothing, and after one that missed a few publishes. Each entry
// records the records pushed (digest-driven and stale), the bytes on the
// wire and the simulated time until every catch-up RPC settled; benchdiff
// bounds the pushes on these deterministic counters.
//
// ORCHESTRA_BENCH_SMOKE=1 shrinks every part for the CI benchdiff stage;
// the committed baseline in bench/results/ is generated in smoke mode.
#include <unistd.h>

#include "bench/bench_util.h"
#include "localstore/local_store.h"
#include "wal/backend.h"
#include "wal/wal.h"

using namespace orchestra;
using namespace orchestra::bench;

namespace {

bool Smoke() {
  const char* env = std::getenv("ORCHESTRA_BENCH_SMOKE");
  return env != nullptr && std::string(env)[0] == '1';
}

double RunWithFailure(bench::Cluster& cluster, const query::PhysicalPlan& plan,
                      query::QueryOptions::RecoveryMode mode,
                      sim::SimTime fail_at_us, net::NodeId victim) {
  bool done = false;
  Status status;
  query::QueryResult result;
  query::QueryOptions opts;
  opts.recovery = mode;
  cluster.dep->query(0).Execute(plan, cluster.epoch, opts,
                                [&](Status st, query::QueryResult r) {
                                  status = st;
                                  result = std::move(r);
                                  done = true;
                                });
  cluster.dep->RunFor(fail_at_us);
  if (!done) cluster.dep->KillNode(victim, /*update_routing=*/false);
  cluster.dep->RunUntil([&] { return done; }, 3600 * sim::kMicrosPerSec);
  if (!status.ok()) {
    std::fprintf(stderr, "failure run error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return static_cast<double>(result.execution_us) / 1e6;
}

void QueryRecoveryPart(JsonReport& report) {
  // Run 4x larger than the other small-scale benches: the restart/recovery
  // gap is about re-paying elapsed work, which a too-tiny query hides behind
  // fixed recovery costs (the paper's SF-2 queries run for many seconds).
  // Smoke keeps the default small sizing and a single failure point.
  double sf = TpchSf(2.0) * (PaperScale() || Smoke() ? 1.0 : 4.0);
  std::printf("# paper: SF 2, failure at varying times; recovery beat restart ~20%%\n");
  std::printf("# this run: SF %.4f\n", sf);
  std::printf("query,failure_frac,failure_time_s,restart_time_s,recovery_time_s,no_failure_time_s\n");

  std::vector<double> fracs = Smoke() ? std::vector<double>{0.5}
                                      : std::vector<double>{0.2, 0.5, 0.8};
  for (const std::string& q : {std::string("Q1"), std::string("Q10")}) {
    workload::TpchConfig cfg;
    cfg.scale_factor = sf;
    cfg.num_partitions = 32;
    auto data = workload::TpchGenerate(cfg);
    double base_s;
    {
      auto cluster = MakeCluster(data, 8);
      ReportLoad(report, "publish_" + q, cluster);
      auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
      RunMetrics base = RunQuery(cluster, plan);
      ReportRun(report, "query_" + q + "_no_failure", base);
      base_s = base.time_s;
    }

    for (double frac : fracs) {
      auto fail_at = static_cast<sim::SimTime>(frac * base_s * 1e6);
      // Each trial kills a node on a *healthy* cluster (the paper reruns the
      // experiment per failure point), so rebuild between modes.
      double restart, recovery;
      {
        auto cluster = MakeCluster(data, 8);
        auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
        restart = RunWithFailure(cluster, plan,
                                 query::QueryOptions::RecoveryMode::kRestart,
                                 fail_at, 5);
      }
      {
        auto cluster = MakeCluster(data, 8);
        auto plan = PlanSql(cluster, workload::TpchQuerySql(q));
        recovery = RunWithFailure(cluster, plan,
                                  query::QueryOptions::RecoveryMode::kIncremental,
                                  fail_at, 5);
      }
      std::printf("%s,%.1f,%.3f,%.3f,%.3f,%.3f\n", q.c_str(), frac,
                  static_cast<double>(fail_at) / 1e6, restart, recovery, base_s);
      std::string tag = q + "_f" + std::to_string(frac).substr(0, 3);
      report.AddTimed("restart_" + tag, 1, 0, restart);
      report.AddTimed("recovery_" + tag, 1, 0, recovery);
      std::fflush(stdout);
    }
  }
}

// --------------------------------------------------------------------------
// Part two: LocalStore restart recovery through a real on-disk WAL.

/// Loads `records` distinct keys through a FileBackend-backed store, makes
/// the tail durable, then times a cold Recover() on a fresh store sharing
/// the same files. Returns through `report` under `name`.
void MeasureStoreRecovery(JsonReport& report, const std::string& name,
                          const std::string& dir, size_t records,
                          uint64_t checkpoint_every) {
  auto backend = std::make_shared<wal::FileBackend>(dir);
  localstore::StoreOptions o;
  o.wal_backend = backend;
  // The load phase is not what this bench measures: sync only on segment
  // seal, then once explicitly at the end, so durability is real but the
  // fill loop is not fsync-bound.
  o.wal.sync_every_records = 0;
  o.checkpoint_every_records = checkpoint_every;
  std::string value(96, 'v');

  double load_wall;
  {
    localstore::LocalStore store(o);
    double w0 = WallSeconds();
    char key[32];
    for (size_t i = 0; i < records; ++i) {
      std::snprintf(key, sizeof(key), "rec-%010zu", i);
      if (!store.Put(key, value).ok()) {
        std::fprintf(stderr, "load put failed\n");
        std::exit(1);
      }
    }
    store.wal()->Sync();
    load_wall = WallSeconds() - w0;
  }  // close the loading store before recovering into a new one

  localstore::LocalStore fresh(o);
  double w0 = WallSeconds();
  Status rec = fresh.Recover();
  double recover_wall = WallSeconds() - w0;
  if (!rec.ok() || fresh.entry_count() != records) {
    std::fprintf(stderr, "recovery failed: %s (entries %zu/%zu)\n",
                 rec.ToString().c_str(), fresh.entry_count(), records);
    std::exit(1);
  }
  const wal::WalStats& ws = fresh.wal()->stats();
  std::printf("%s,%zu,%llu,%.4f,%.4f,%llu,%llu\n", name.c_str(), records,
              static_cast<unsigned long long>(checkpoint_every), load_wall,
              recover_wall, static_cast<unsigned long long>(ws.replayed_records),
              static_cast<unsigned long long>(ws.snapshot_records));
  report.AddTimed(
      name, static_cast<double>(records), recover_wall, 0, 0,
      {{"replayed_records", static_cast<double>(ws.replayed_records)},
       {"snapshot_records", static_cast<double>(ws.snapshot_records)},
       {"checkpoint_every", static_cast<double>(checkpoint_every)},
       {"load_wall_s", load_wall}});

  // Reset the directory for the next configuration.
  for (const std::string& f : backend->List()) backend->Remove(f).ok();
}

void StoreRecoveryPart(JsonReport& report) {
  std::printf("# node restart: recovery cost vs store size, checkpoints on/off\n");
  std::printf("config,records,checkpoint_every,load_wall_s,recover_wall_s,replayed_records,snapshot_records\n");
  char tmpl[] = "/tmp/orchestra-recovery-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  // 100x at the full-mode base is ~400k records; with a fixed checkpoint
  // cadence the load phase re-snapshots O(records) per checkpoint, so the
  // base is kept small enough that the sweep stays in the low gigabytes.
  const size_t base = Smoke() ? 1500 : 4000;
  const uint64_t ckpt_every = Smoke() ? 1024 : 4096;
  for (size_t mult : {size_t{1}, size_t{10}, size_t{100}}) {
    std::string scale = std::to_string(mult) + "x";
    MeasureStoreRecovery(report, "recover_" + scale + "_ckpt_on", tmpl,
                         base * mult, ckpt_every);
    MeasureStoreRecovery(report, "recover_" + scale + "_ckpt_off", tmpl,
                         base * mult, /*checkpoint_every=*/0);
  }
  rmdir(tmpl);
}

// --------------------------------------------------------------------------
// Part three: restart catch-up traffic.

/// Restarts `victim` on `cluster` and reports the catch-up it caused:
/// records pushed for differing buckets and stale records re-served (summed
/// over every node), the returnee's store growth (the records it actually
/// missed), wire bytes, and sim time until no catch-up RPC is pending.
void MeasureCatchup(JsonReport& report, const std::string& name,
                    bench::Cluster& cluster, net::NodeId victim) {
  deploy::Deployment& dep = *cluster.dep;
  auto totals = [&dep] {
    storage::StorageService::Counters t;
    for (size_t i = 0; i < dep.size(); ++i) {
      const auto& c = dep.storage(i).counters();
      t.catchup_records_pushed += c.catchup_records_pushed;
      t.catchup_stale_records += c.catchup_stale_records;
      t.catchup_buckets_compared += c.catchup_buckets_compared;
      t.catchup_buckets_mismatched += c.catchup_buckets_mismatched;
    }
    return t;
  };
  const storage::StorageService::Counters before = totals();
  const uint64_t wire0 = dep.network().total_bytes();
  const sim::SimTime t0 = dep.sim().now();
  dep.RestartNode(victim);
  const size_t recovered = dep.storage(victim).store().entry_count();
  if (!dep.RunUntil([&dep] { return dep.PendingRpcCount() == 0; })) {
    std::fprintf(stderr, "%s: catch-up RPCs never settled\n", name.c_str());
    std::exit(1);
  }
  const double settle_s = static_cast<double>(dep.sim().now() - t0) / 1e6;
  const double wire = static_cast<double>(dep.network().total_bytes() - wire0);
  const storage::StorageService::Counters after = totals();
  const double pushed =
      static_cast<double>(after.catchup_records_pushed - before.catchup_records_pushed);
  const double stale =
      static_cast<double>(after.catchup_stale_records - before.catchup_stale_records);
  const double missed =
      static_cast<double>(dep.storage(victim).store().entry_count() - recovered);
  const double mismatched = static_cast<double>(after.catchup_buckets_mismatched -
                                                before.catchup_buckets_mismatched);
  const double compared = static_cast<double>(after.catchup_buckets_compared -
                                              before.catchup_buckets_compared);
  std::printf("%s,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.6f\n", name.c_str(), pushed, stale,
              missed, compared, mismatched, wire, settle_s);
  report.AddTimed(name, pushed + stale, 0, settle_s, wire,
                  {{"records_pushed", pushed},
                   {"stale_records", stale},
                   {"records_missed", missed},
                   {"buckets_compared", compared},
                   {"buckets_mismatched", mismatched}});
}

void CatchupPart(JsonReport& report) {
  std::printf("# node restart catch-up: digest rounds push only what differs\n");
  std::printf("config,records_pushed,stale_records,records_missed,buckets_compared,"
              "buckets_mismatched,wire_bytes,settle_sim_s\n");
  workload::TpchConfig cfg;
  cfg.scale_factor = TpchSf(Smoke() ? 0.5 : 2.0);
  cfg.num_partitions = 32;
  const auto data = workload::TpchGenerate(cfg);
  const net::NodeId victim = 5;
  {
    // Nothing happens while the node is down: every bucket compares equal.
    auto cluster = MakeCluster(data, 8);
    cluster.dep->KillNode(victim, /*update_routing=*/false);
    cluster.dep->RunFor(1 * sim::kMicrosPerSec);
    MeasureCatchup(report, "restart_catchup_idle", cluster, victim);
  }
  {
    // The table drops the node and a few batches commit without it: each
    // re-publishes 16 orders rows as new versions.
    auto cluster = MakeCluster(data, 8);
    cluster.dep->KillNode(victim);
    const workload::GeneratedRelation* orders = nullptr;
    for (const auto& rel : cluster.rels) {
      if (rel.def.name == "orders") orders = &rel;
    }
    if (orders == nullptr || orders->rows.size() < 64) {
      std::fprintf(stderr, "no orders rows to re-publish\n");
      std::exit(1);
    }
    for (size_t b = 0; b < 4; ++b) {
      storage::UpdateBatch batch;
      for (size_t i = 0; i < 16; ++i) {
        batch["orders"].push_back(storage::Update::Insert(orders->rows[16 * b + i]));
      }
      if (!cluster.dep->Publish(0, std::move(batch)).ok()) {
        std::fprintf(stderr, "publish while the node is down failed\n");
        std::exit(1);
      }
    }
    MeasureCatchup(report, "restart_catchup_missed", cluster, victim);
  }
}

}  // namespace

int main() {
  Header("Figure 21: restart vs incremental recovery (8 nodes)");
  JsonReport report("fig21_recovery");
  QueryRecoveryPart(report);
  Header("Node restart recovery: checkpoint + WAL tail replay");
  StoreRecoveryPart(report);
  Header("Node restart catch-up traffic");
  CatchupPart(report);
  return 0;
}
