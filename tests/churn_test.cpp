// Churn/fault-injection suite built on tests/churn_harness.{h,cpp}.
//
// Reproducing a failure: every assertion message carries the seed and a
// ready-to-paste replay command, e.g.
//   ORCHESTRA_CHURN_SEED=N ./churn_test --gtest_filter=Churn.SeedSweep
// — same seed, same options => byte-identical event trace.
//
// Sharding: ctest registers this binary several times with
// ORCHESTRA_CHURN_BUCKET="i/n" so the multi-seed sweeps split across ctest's
// parallel workers — bucket i runs the seeds with ordinal % n == i, and each
// single-seed test runs in exactly one home bucket. Unset (the developer
// default: plain ./churn_test) runs everything in one process, including the
// cross-seed aggregate assertions, which are meaningless on a partial sweep
// and therefore skipped when sharded.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "tests/churn_harness.h"

namespace orchestra {
namespace {

using churn::ChurnOptions;
using churn::ChurnReport;
using churn::ReplayCommand;
using churn::RunChurn;
using churn::TraceTail;

// How much trace to attach to a failing sweep assertion.
constexpr size_t kFailTraceLines = 40;

struct Bucket {
  uint64_t index = 0;
  uint64_t count = 1;
  bool sharded = false;
};

// Parses ORCHESTRA_CHURN_BUCKET ("i/n"). Malformed or absent => unsharded.
Bucket GetBucket() {
  Bucket b;
  const char* env = std::getenv("ORCHESTRA_CHURN_BUCKET");
  if (env == nullptr) return b;
  char* slash = nullptr;
  uint64_t index = std::strtoull(env, &slash, 10);
  if (slash == nullptr || *slash != '/') return b;
  uint64_t count = std::strtoull(slash + 1, nullptr, 10);
  if (count == 0) return b;
  b.index = index % count;
  b.count = count;
  b.sharded = true;
  return b;
}

// True when this process should run the sweep iteration with this ordinal.
bool InThisBucket(uint64_t ordinal) {
  Bucket b = GetBucket();
  return ordinal % b.count == b.index;
}

// True when this process should run a non-sweep test whose home is `home`.
// Unsharded processes run everything; sharded ones exactly one copy.
bool RunsHere(uint64_t home) {
  Bucket b = GetBucket();
  return !b.sharded || home % b.count == b.index;
}

// Optional single-seed filter for sweep tests (replay convenience).
uint64_t OnlySeed() {
  if (const char* env = std::getenv("ORCHESTRA_CHURN_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0;
}

// One stdout line per sweep seed with the run's trace digest. `ci/check.sh
// digests` collects these lines, so a change meant to preserve behaviour can
// show every seed's trace is byte-identical before and after.
void PrintDigest(const char* test, uint64_t seed, const ChurnReport& rep) {
  std::printf("churn-digest %s seed=%" PRIu64 " dig=%016" PRIx64 "\n", test,
              seed, rep.trace_digest);
}

// ---------------------------------------------------------------------------
// Seed sweep: >= 20 distinct seeds, each with crashes, restarts, hangs,
// drops, and delays injected — and session pipelining enabled (window 2), so
// faults land between overlapped publishes — every run model-equivalent at
// every convergence point.

TEST(Churn, SeedSweep) {
  constexpr uint64_t kSeeds = 20;
  const uint64_t only_seed = OnlySeed();
  uint64_t total_kills = 0, total_restarts = 0, total_drops = 0,
           total_delays = 0, total_hangs = 0, total_unhangs = 0,
           total_pipelined = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (only_seed != 0 && seed != only_seed) continue;
    if (only_seed == 0 && !InThisBucket(seed)) continue;
    ChurnOptions opts;
    opts.seed = seed;
    opts.rounds = 30;
    opts.check_every = 10;
    opts.publish_window = 2;  // pipelined publishing under churn
    opts.hang_prob = 0.04;    // hung machines join the fault mix
    ChurnReport rep = RunChurn(opts);
    PrintDigest("Churn.SeedSweep", seed, rep);
    EXPECT_TRUE(rep.ok) << rep.failure << "\nreplay: "
                        << ReplayCommand(rep, "Churn.SeedSweep")
                        << "\ntrace tail:\n" << TraceTail(rep, kFailTraceLines);
    EXPECT_GE(rep.checks, 3u) << "seed " << seed;
    EXPECT_GT(rep.publishes_ok, 0u) << "seed " << seed;
    total_kills += rep.kills;
    total_restarts += rep.restarts;
    total_drops += rep.faults_dropped;
    total_delays += rep.faults_delayed;
    total_hangs += rep.hangs;
    total_unhangs += rep.unhangs;
    total_pipelined += rep.pipelined_commits;
    if (HasFailure()) break;
  }
  if (only_seed == 0 && !GetBucket().sharded) {
    // The sweep as a whole must actually exercise every fault class AND the
    // pipelined path (commits that overlapped another in-flight publish).
    EXPECT_GT(total_kills, 0u);
    EXPECT_GT(total_restarts, 0u);
    EXPECT_GT(total_drops, 0u);
    EXPECT_GT(total_delays, 0u);
    EXPECT_GT(total_hangs, 0u);
    EXPECT_GT(total_unhangs, 0u);
    EXPECT_GT(total_pipelined, 0u);
  }
}

// Deeper pipeline under churn: window 4, crashes/drops landing between
// overlapped publishes, model equivalence at every convergence point.
TEST(Churn, PipelinedWindowFour) {
  uint64_t ordinal = 0;
  for (uint64_t seed : {11, 12, 13, 14, 15, 16}) {
    if (!InThisBucket(ordinal++)) continue;
    ChurnOptions opts;
    opts.seed = seed;
    opts.rounds = 20;
    opts.check_every = 10;
    opts.publish_window = 4;
    ChurnReport rep = RunChurn(opts);
    EXPECT_TRUE(rep.ok) << rep.failure << "\nreplay: "
                        << ReplayCommand(rep, "Churn.PipelinedWindowFour")
                        << "\ntrace tail:\n" << TraceTail(rep, kFailTraceLines);
    EXPECT_GT(rep.pipelined_commits, 0u) << "seed " << seed;
    if (HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Multi-writer: 2-3 concurrent disjoint-participant sessions per seed, with
// crashes, hangs, and ASYMMETRIC partitions (Network::SetDropOverride) in the
// fault mix. Every run must converge to model equivalence; across the sweep,
// epoch contention must actually occur (claims lost, losers re-based) and
// commits must interleave across participants — and no run may ever observe
// a torn epoch (two writers committing one epoch) or a commit behind a
// failed ticket.

TEST(Churn, MultiWriterSweep) {
  constexpr uint64_t kSeeds = 20;
  const uint64_t only_seed = OnlySeed();
  uint64_t total_conflicts = 0, total_rebases = 0, total_concurrent = 0,
           total_partitions = 0, total_kills = 0, total_hangs = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (only_seed != 0 && seed != only_seed) continue;
    if (only_seed == 0 && !InThisBucket(seed)) continue;
    ChurnOptions opts;
    opts.seed = seed;
    opts.rounds = 18;
    opts.check_every = 6;
    opts.publishers = 2 + (seed % 2);  // alternate 2- and 3-writer runs
    opts.publish_window = 2;
    opts.keys = 24;                    // per-participant stripe
    opts.hang_prob = 0.03;
    opts.partition_prob = 0.15;        // asymmetric one-way partitions
    ChurnReport rep = RunChurn(opts);
    PrintDigest("Churn.MultiWriterSweep", seed, rep);
    EXPECT_TRUE(rep.ok) << rep.failure << "\nreplay: "
                        << ReplayCommand(rep, "Churn.MultiWriterSweep")
                        << "\ntrace tail:\n" << TraceTail(rep, kFailTraceLines)
                        << "\nconflicts=" << rep.epoch_conflicts
                        << " rebases=" << rep.rebases
                        << " coord_conflicts=" << rep.coordinator_conflicts;
    EXPECT_GE(rep.checks, 3u) << "seed " << seed;
    EXPECT_GT(rep.publishes_ok, 0u) << "seed " << seed;
    total_conflicts += rep.epoch_conflicts;
    total_rebases += rep.rebases;
    total_concurrent += rep.concurrent_commits;
    total_partitions += rep.partitions;
    total_kills += rep.kills;
    total_hangs += rep.hangs;
    if (HasFailure()) break;
  }
  if (only_seed == 0 && !GetBucket().sharded) {
    // The sweep must genuinely exercise contention and the new fault class:
    // claims lost and re-based, commits interleaving across participants,
    // asymmetric partitions scheduled, crashes and hangs in the mix.
    EXPECT_GT(total_conflicts, 0u);
    EXPECT_GT(total_rebases, 0u);
    EXPECT_GT(total_concurrent, 0u);
    EXPECT_GT(total_partitions, 0u);
    EXPECT_GT(total_kills, 0u);
    EXPECT_GT(total_hangs, 0u);
  }
}

// Multi-writer determinism: contention resolution (claims, force takeovers,
// re-bases) must replay byte-identically for the same seed.
TEST(Churn, MultiWriterSameSeedReplaysIdenticalTrace) {
  if (!RunsHere(1)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions opts;
  opts.seed = 171;
  opts.rounds = 12;
  opts.check_every = 6;
  opts.publishers = 3;
  opts.publish_window = 2;
  opts.keys = 24;
  opts.partition_prob = 0.1;
  ChurnReport a = RunChurn(opts);
  ChurnReport b = RunChurn(opts);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.epoch_conflicts, b.epoch_conflicts);
  EXPECT_EQ(a.rebases, b.rebases);
  EXPECT_EQ(a.trace, b.trace);
}

// ---------------------------------------------------------------------------
// Abandonment fencing at tens of writers: 20 seeds, 16-30 concurrent
// disjoint participants each, with kills, hangs, asymmetric partitions,
// crashes that tear the WAL mid-publish, AND deliberately abandoned writers
// (killed right after their epoch-claim write, never restarted) so fencing
// actually fires. fence_after_us arms the protocol; the harness's liveness
// oracle asserts the confirmed-epoch frontier advances at every convergence
// point whenever at least one live unfenced writer exists, and dumps the
// full claim table + per-writer state on any wedge.

TEST(Churn, FencingAbandonmentSweep) {
  constexpr uint64_t kSeeds = 20;
  const uint64_t only_seed = OnlySeed();
  uint64_t total_abandons = 0, total_fences = 0, total_skips = 0,
           total_grants = 0, total_purged = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (only_seed != 0 && seed != only_seed) continue;
    if (only_seed == 0 && !InThisBucket(seed)) continue;
    ChurnOptions opts;
    opts.seed = seed;
    opts.publishers = 16 + (seed % 15);  // 16..30 concurrent participants
    opts.num_nodes = opts.publishers + 2;
    opts.rounds = 6;
    opts.check_every = 3;
    opts.keys = 6;  // claims, not data volume, are the contention point
    opts.updates_per_round = 4;
    opts.kill_prob = 0.05;
    opts.hang_prob = 0.02;
    opts.partition_prob = 0.10;        // asymmetric one-way partitions
    opts.max_dead = 2;
    opts.abandon_prob = 0.5;           // deliberately abandoned writers...
    opts.max_abandoned = 2;
    opts.fence_after_us = 8 * sim::kMicrosPerSec;  // ...and the cure
    opts.wal_sync_every = 0;           // kills genuinely tear the WAL tail
    opts.wal_checkpoint_every = 96;
    opts.crash_mid_checkpoint_prob = 0.3;  // mid-publish crashes through WAL
    opts.crash_mid_seal_prob = 0.3;
    opts.publish_attempts = 16;
    ChurnReport rep = RunChurn(opts);
    PrintDigest("Churn.FencingAbandonmentSweep", seed, rep);
    EXPECT_TRUE(rep.ok) << rep.failure << "\nreplay: "
                        << ReplayCommand(rep, "Churn.FencingAbandonmentSweep")
                        << "\ntrace tail:\n" << TraceTail(rep, kFailTraceLines)
                        << "\nabandons=" << rep.abandons
                        << " fences=" << rep.fences
                        << " fenced_skips=" << rep.fenced_skips
                        << " fences_granted=" << rep.fences_granted
                        << " purged=" << rep.purged_orphans;
    EXPECT_GE(rep.checks, 2u) << "seed " << seed;
    EXPECT_GT(rep.publishes_ok, 0u) << "seed " << seed;
    total_abandons += rep.abandons;
    total_fences += rep.fences;
    total_skips += rep.fenced_skips;
    total_grants += rep.fences_granted;
    total_purged += rep.purged_orphans;
    if (HasFailure()) break;
  }
  if (only_seed == 0 && !GetBucket().sharded) {
    // Zero wedged chains is only meaningful if the hazard actually occurred:
    // writers were abandoned mid-claim, fence rounds were granted by the
    // claim replicas, contenders skipped past the burned epochs, and the
    // abandoned writers' orphan versions were purged.
    EXPECT_GT(total_abandons, 0u);
    EXPECT_GT(total_fences, 0u);
    EXPECT_GT(total_skips, 0u);
    EXPECT_GT(total_grants, 0u);
    EXPECT_GT(total_purged, 0u);
  }
}

// Fencing determinism: abandonment, fence rounds, purges, and the epoch
// skips they cause must replay byte-identically for the same seed.
TEST(Churn, FencingSameSeedReplaysIdenticalTrace) {
  if (!RunsHere(2)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions opts;
  opts.seed = 313;
  opts.publishers = 8;
  opts.num_nodes = 10;
  opts.rounds = 6;
  opts.check_every = 3;
  opts.keys = 8;
  opts.abandon_prob = 0.6;
  opts.max_abandoned = 1;
  opts.fence_after_us = 8 * sim::kMicrosPerSec;
  opts.publish_attempts = 16;
  ChurnReport a = RunChurn(opts);
  ChurnReport b = RunChurn(opts);
  ASSERT_TRUE(a.ok) << a.failure << "\ntrace tail:\n"
                    << TraceTail(a, kFailTraceLines);
  ASSERT_TRUE(b.ok) << b.failure;
  // The hazard fired in this configuration (deterministically, per seed).
  EXPECT_GT(a.abandons, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.abandons, b.abandons);
  EXPECT_EQ(a.fences, b.fences);
  EXPECT_EQ(a.fenced_skips, b.fenced_skips);
  EXPECT_EQ(a.fences_granted, b.fences_granted);
  EXPECT_EQ(a.purged_orphans, b.purged_orphans);
  EXPECT_EQ(a.trace, b.trace);
}

// ---------------------------------------------------------------------------
// Determinism regression: same seed => byte-identical event trace and equal
// simulator digests; different seeds diverge.

TEST(Churn, SameSeedReplaysIdenticalTrace) {
  if (!RunsHere(2)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions opts;
  opts.seed = 77;
  opts.rounds = 25;
  opts.check_every = 10;
  opts.publish_window = 2;  // determinism must hold for the pipelined path
  opts.hang_prob = 0.05;
  ChurnReport a = RunChurn(opts);
  ChurnReport b = RunChurn(opts);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.faults_dropped, b.faults_dropped);
  EXPECT_EQ(a.faults_delayed, b.faults_delayed);
  // Byte-identical trace is the strongest statement: every kill, restart,
  // retry, and check happened at the same simulated instant.
  EXPECT_EQ(a.trace, b.trace);
}

// Durability determinism: crashes that land mid-checkpoint-publish and
// mid-segment-seal, on nodes whose WAL tail is entirely unsynced
// (wal_sync_every = 0), must still replay byte-identically — torn-tail
// truncation is deterministic, and recovery trace lines (replayed/snapshot/
// torn counters) are part of the digest-checked trace. Model equivalence at
// every convergence point doubles as the proof that a node recovering from a
// checkpoint plus a truncated tail is healed by re-replication.
TEST(Churn, DurabilityCrashPointsReplayIdenticalTrace) {
  if (!RunsHere(3)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions opts;
  opts.seed = 2026;
  opts.rounds = 30;
  opts.check_every = 10;
  opts.kill_prob = 0.25;
  opts.wal_sync_every = 0;        // crashes genuinely tear the WAL tail
  opts.wal_checkpoint_every = 96; // several checkpoints per run at this scale
  opts.crash_mid_checkpoint_prob = 0.5;
  opts.crash_mid_seal_prob = 0.5;
  ChurnReport a = RunChurn(opts);
  ChurnReport b = RunChurn(opts);
  ASSERT_TRUE(a.ok) << a.failure << "\ntrace tail:\n"
                    << TraceTail(a, kFailTraceLines);
  ASSERT_TRUE(b.ok) << b.failure;
  // The faults actually fired: nodes died, came back, and recovered through
  // the checkpoint + tail-replay path.
  EXPECT_GT(a.kills, 0u);
  EXPECT_GT(a.restarts, 0u);
  EXPECT_GT(a.wal_checkpoints, 0u);
  EXPECT_GT(a.wal_replayed_records, 0u);
  // Same seed => byte-identical trace (which embeds the recover lines) and
  // equal durability counters.
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.wal_replayed_records, b.wal_replayed_records);
  EXPECT_EQ(a.wal_torn_tails, b.wal_torn_tails);
  EXPECT_EQ(a.wal_torn_bytes, b.wal_torn_bytes);
  EXPECT_EQ(a.wal_checkpoints, b.wal_checkpoints);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(Churn, DifferentSeedsDiverge) {
  if (!RunsHere(0)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions a_opts, b_opts;
  a_opts.seed = 101;
  b_opts.seed = 102;
  a_opts.rounds = b_opts.rounds = 15;
  ChurnReport a = RunChurn(a_opts);
  ChurnReport b = RunChurn(b_opts);
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  EXPECT_NE(a.trace, b.trace);
}

// ---------------------------------------------------------------------------
// Multi-epoch GC: >= 1000 churn rounds of overwrite-heavy traffic. Live
// records must stay bounded (independent of round count) and every store's
// dead-record fraction below the compaction threshold, while retrieval stays
// model-equivalent at the current epoch and retained history.

TEST(Churn, GcBoundsStorageAcrossThousandRounds) {
  if (!RunsHere(0)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions opts;
  opts.seed = 4242;
  opts.rounds = 1000;
  opts.check_every = 100;
  opts.updates_per_round = 10;
  opts.delete_prob = 0.1;
  // Rarer churn so the run is dominated by sustained overwrite traffic.
  opts.kill_prob = 0.01;
  opts.drop_prob = 0.005;
  opts.delay_prob = 0.05;
  opts.gc_keep_epochs = 6;
  ChurnReport rep = RunChurn(opts);
  ASSERT_TRUE(rep.ok) << rep.failure << "\nreplay: "
                      << ReplayCommand(rep, "Churn.GcBoundsStorageAcrossThousandRounds")
                      << "\ntrace tail:\n" << TraceTail(rep, kFailTraceLines);
  EXPECT_GE(rep.publishes_ok, 1000u);
  EXPECT_GE(rep.checks, 10u);
  // The run must have actually retired versions, stayed under the bound at
  // every check, and kept garbage below the compaction threshold + slack.
  EXPECT_GT(rep.gc_retired_total, 0u);
  EXPECT_GT(rep.live_record_bound, 0u);
  EXPECT_LE(rep.max_live_records, rep.live_record_bound);
  EXPECT_LE(rep.max_dead_fraction, 0.55);
}

// Without GC the same workload grows without bound — the harness's bound
// assertion is only armed when GC is on, so compare the live-record curves.
TEST(Churn, GcOnShrinksFootprintVsGcOff) {
  if (!RunsHere(1)) GTEST_SKIP() << "runs in another churn bucket";
  ChurnOptions on, off;
  on.seed = off.seed = 9;
  on.rounds = off.rounds = 120;
  on.check_every = off.check_every = 40;
  on.kill_prob = off.kill_prob = 0;  // isolate the GC effect
  on.drop_prob = off.drop_prob = 0;
  on.delay_prob = off.delay_prob = 0;
  on.gc_keep_epochs = 6;
  off.gc_keep_epochs = 0;
  ChurnReport rep_on = RunChurn(on);
  ChurnReport rep_off = RunChurn(off);
  ASSERT_TRUE(rep_on.ok) << rep_on.failure;
  ASSERT_TRUE(rep_off.ok) << rep_off.failure;
  // Same workload, same seed: GC must cut the retained footprint hard.
  EXPECT_LT(rep_on.max_live_records * 2, rep_off.max_live_records)
      << "gc_on=" << rep_on.max_live_records
      << " gc_off=" << rep_off.max_live_records;
}

}  // namespace
}  // namespace orchestra
