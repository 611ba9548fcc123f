#include "localstore/local_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace orchestra::localstore {
namespace {

// 64-bit key hash: 8-byte chunks folded through a murmur3-style finalizer.
// Not cryptographic — just uniform enough for open addressing; placement
// hashing stays SHA-1 (hash/sha1.h).
inline uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashKey(std::string_view s) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (s.size() * 0xff51afd7ed558ccdULL);
  while (s.size() >= 8) {
    uint64_t k;
    std::memcpy(&k, s.data(), 8);
    h = MixBits(h ^ k);
    s.remove_prefix(8);
  }
  if (!s.empty()) {
    uint64_t k = 0;
    std::memcpy(&k, s.data(), s.size());
    h = MixBits(h ^ k);
  }
  return h;
}

constexpr size_t kMinTableCapacity = 1024;

}  // namespace

// ---------------------------------------------------------------------------
// Arena

const char* LocalStore::Arena::Append(std::string_view a, std::string_view b) {
  size_t n = a.size() + b.size();
  if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < n) {
    Chunk c;
    c.cap = std::max(kChunkBytes, n);
    c.data = std::make_unique<char[]>(c.cap);
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_.back();
  char* dst = c.data.get() + c.used;
  std::memcpy(dst, a.data(), a.size());
  if (!b.empty()) std::memcpy(dst + a.size(), b.data(), b.size());
  c.used += n;
  bytes_ += n;
  return dst;
}

// ---------------------------------------------------------------------------
// Robin-hood hash index

size_t LocalStore::HashFind(uint64_t hash, std::string_view key,
                            HashMiss* miss) const {
  if (htable_.empty()) {
    if (miss != nullptr) *miss = HashMiss{0, 0};
    return kNoSlot;
  }
  size_t mask = htable_.size() - 1;
  auto tag = static_cast<uint32_t>(hash);
  size_t i = tag & mask;
  size_t dist = 0;
  while (true) {
    const HashSlot& slot = htable_[i];
    // Robin-hood invariant: entries along a probe chain never get poorer;
    // meeting an empty slot or one closer to home means the key is absent.
    size_t slot_dist =
        (i + htable_.size() - (static_cast<size_t>(slot.tag) & mask)) & mask;
    if (slot.idx1 == 0 || slot_dist < dist) {
      if (miss != nullptr) *miss = HashMiss{i, dist};
      return kNoSlot;
    }
    if (slot.tag == tag && log_[live_[slot.idx1 - 1]].key() == key) return i;
    i = (i + 1) & mask;
    ++dist;
  }
}

void LocalStore::HashInsertAt(HashMiss at, uint64_t hash, uint32_t live_idx) {
  size_t mask = htable_.size() - 1;
  size_t i = at.index;
  size_t dist = at.dist;
  HashSlot carry{static_cast<uint32_t>(hash), live_idx + 1};
  while (true) {
    HashSlot& slot = htable_[i];
    if (slot.idx1 == 0) {
      slot = carry;
      ++hcount_;
      return;
    }
    size_t slot_dist =
        (i + htable_.size() - (static_cast<size_t>(slot.tag) & mask)) & mask;
    if (slot_dist < dist) {
      std::swap(carry, slot);
      dist = slot_dist;
    }
    i = (i + 1) & mask;
    ++dist;
  }
}

void LocalStore::HashInsert(uint64_t hash, uint32_t live_idx) {
  HashGrowIfNeeded();
  size_t home = static_cast<uint32_t>(hash) & (htable_.size() - 1);
  HashInsertAt(HashMiss{home, 0}, hash, live_idx);
}

void LocalStore::HashEraseAt(size_t idx) {
  size_t mask = htable_.size() - 1;
  size_t i = idx;
  while (true) {
    size_t next = (i + 1) & mask;
    const HashSlot& n = htable_[next];
    if (n.idx1 == 0 ||
        ((next + htable_.size() - (static_cast<size_t>(n.tag) & mask)) & mask) ==
            0) {
      break;
    }
    htable_[i] = htable_[next];
    i = next;
  }
  htable_[i] = HashSlot{};
  --hcount_;
}

bool LocalStore::HashGrowIfNeeded() {
  // Grow at 7/8 load; robin-hood probing stays short well past 3/4.
  if (!htable_.empty() && (hcount_ + 1) * 8 <= htable_.size() * 7) return false;
  size_t new_cap = htable_.empty() ? kMinTableCapacity : htable_.size() * 2;
  std::vector<HashSlot> old = std::move(htable_);
  htable_.assign(new_cap, HashSlot{});
  size_t old_count = hcount_;
  hcount_ = 0;
  size_t mask = new_cap - 1;
  for (const HashSlot& slot : old) {
    if (slot.idx1 != 0) {
      HashInsertAt(HashMiss{static_cast<size_t>(slot.tag) & mask, 0}, slot.tag,
                   slot.idx1 - 1);
    }
  }
  ORC_CHECK(hcount_ == old_count, "localstore: hash rebuild lost entries");
  return true;
}

// ---------------------------------------------------------------------------
// Insert-only B+tree over arena key views

LocalStore::Leaf* LocalStore::NewLeaf() {
  leaves_.emplace_back();
  return &leaves_.back();
}

LocalStore::Inner* LocalStore::NewInner() {
  inners_.emplace_back();
  return &inners_.back();
}

void LocalStore::TreeClear() {
  leaves_.clear();
  inners_.clear();
  root_ = nullptr;
  root_is_leaf_ = true;
}

LocalStore::KeyRef LocalStore::MakeKeyRef(std::string_view key) {
  KeyRef r;
  std::memset(r.pfx, 0, sizeof(r.pfx));
  std::memcpy(r.pfx, key.data(), std::min(key.size(), sizeof(r.pfx)));
  r.full = key;
  return r;
}

int LocalStore::CmpKey(const KeyRef& a, const KeyRef& b) {
  // Zero-padding keeps prefix order consistent with full lexicographic
  // order: a nonzero prefix difference is always the true difference.
  int c = std::memcmp(a.pfx, b.pfx, sizeof(a.pfx));
  if (c != 0) return c;
  return a.full.compare(b.full);
}

int LocalStore::RouteChild(const Inner* in, const KeyRef& key, bool upper) {
  int lo = 0, hi = in->n - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    int c = CmpKey(in->sep[mid], key);
    bool go_right = upper ? (c <= 0) : (c < 0);
    if (go_right) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void LocalStore::TreeInsert(std::string_view key, uint32_t live_idx) {
  KeyRef kref = MakeKeyRef(key);
  if (root_ == nullptr) {
    Leaf* l = NewLeaf();
    l->e[0] = LeafEntry{kref, live_idx};
    l->n = 1;
    root_ = l;
    root_is_leaf_ = true;
    return;
  }

  struct PathEntry {
    Inner* node;
    int child;
  };
  PathEntry path[kMaxDepth];
  int depth = 0;
  void* cur = root_;
  bool is_leaf = root_is_leaf_;
  while (!is_leaf) {
    Inner* in = static_cast<Inner*>(cur);
    int ci = RouteChild(in, kref, /*upper=*/true);
    ORC_CHECK(depth < kMaxDepth, "localstore: tree too deep");
    path[depth++] = PathEntry{in, ci};
    cur = in->child[ci];
    is_leaf = in->leaf_children;
  }
  Leaf* leaf = static_cast<Leaf*>(cur);

  // In-leaf position: after any equal keys (only one can be live; order
  // among duplicates is irrelevant to iteration, which skips dead slots).
  int pos = static_cast<int>(
      std::upper_bound(leaf->e, leaf->e + leaf->n, kref,
                       [](const KeyRef& k, const LeafEntry& e) {
                         return CmpKey(k, e.key) < 0;
                       }) -
      leaf->e);

  if (leaf->n < kLeafCap) {
    std::memmove(&leaf->e[pos + 1], &leaf->e[pos],
                 sizeof(LeafEntry) * static_cast<size_t>(leaf->n - pos));
    leaf->e[pos] = LeafEntry{kref, live_idx};
    ++leaf->n;
    return;
  }

  // Leaf split: assemble the kLeafCap+1 entries, give the right half to a
  // new leaf, and push the right leaf's first key up as separator.
  LeafEntry tmp[kLeafCap + 1];
  std::memcpy(tmp, leaf->e, sizeof(LeafEntry) * static_cast<size_t>(pos));
  tmp[pos] = LeafEntry{kref, live_idx};
  std::memcpy(&tmp[pos + 1], &leaf->e[pos],
              sizeof(LeafEntry) * static_cast<size_t>(kLeafCap - pos));
  Leaf* right = NewLeaf();
  constexpr int kLeft = (kLeafCap + 1) / 2;
  constexpr int kRight = kLeafCap + 1 - kLeft;
  std::memcpy(leaf->e, tmp, sizeof(LeafEntry) * kLeft);
  leaf->n = kLeft;
  std::memcpy(right->e, &tmp[kLeft], sizeof(LeafEntry) * kRight);
  right->n = kRight;
  right->next = leaf->next;
  leaf->next = right;

  KeyRef up_sep = right->e[0].key;
  void* up_child = right;

  // Propagate the split upward.
  while (depth > 0) {
    PathEntry pe = path[--depth];
    Inner* in = pe.node;
    int ci = pe.child;  // new child goes at ci+1, separator at ci
    if (in->n < kInnerCap) {
      std::memmove(&in->sep[ci + 1], &in->sep[ci],
                   sizeof(KeyRef) * static_cast<size_t>(in->n - 1 - ci));
      std::memmove(&in->child[ci + 2], &in->child[ci + 1],
                   sizeof(void*) * static_cast<size_t>(in->n - 1 - ci));
      in->sep[ci] = up_sep;
      in->child[ci + 1] = up_child;
      ++in->n;
      return;
    }
    // Inner split via temp arrays (kInnerCap+1 children, kInnerCap seps).
    void* tchild[kInnerCap + 1];
    KeyRef tsep[kInnerCap];
    std::memcpy(tchild, in->child, sizeof(void*) * static_cast<size_t>(ci + 1));
    tchild[ci + 1] = up_child;
    std::memcpy(&tchild[ci + 2], &in->child[ci + 1],
                sizeof(void*) * static_cast<size_t>(kInnerCap - 1 - ci));
    for (int i = 0; i < ci; ++i) tsep[i] = in->sep[i];
    tsep[ci] = up_sep;
    for (int i = ci; i < kInnerCap - 1; ++i) tsep[i + 1] = in->sep[i];

    constexpr int kLeftCh = (kInnerCap + 1) / 2;
    constexpr int kRightCh = kInnerCap + 1 - kLeftCh;
    Inner* rin = NewInner();
    rin->leaf_children = in->leaf_children;
    in->n = kLeftCh;
    std::memcpy(in->child, tchild, sizeof(void*) * kLeftCh);
    for (int i = 0; i < kLeftCh - 1; ++i) in->sep[i] = tsep[i];
    rin->n = kRightCh;
    std::memcpy(rin->child, &tchild[kLeftCh], sizeof(void*) * kRightCh);
    for (int i = 0; i < kRightCh - 1; ++i) rin->sep[i] = tsep[kLeftCh + i];
    up_sep = tsep[kLeftCh - 1];
    up_child = rin;
  }

  // The root itself split: grow the tree by one level.
  Inner* nr = NewInner();
  nr->leaf_children = root_is_leaf_;
  nr->child[0] = root_;
  nr->child[1] = up_child;
  nr->sep[0] = up_sep;
  nr->n = 2;
  root_ = nr;
  root_is_leaf_ = false;
}

std::pair<const LocalStore::Leaf*, int> LocalStore::TreeLowerBound(
    std::string_view key) const {
  if (root_ == nullptr) return {nullptr, 0};
  KeyRef kref = MakeKeyRef(key);
  const void* cur = root_;
  bool is_leaf = root_is_leaf_;
  while (!is_leaf) {
    const Inner* in = static_cast<const Inner*>(cur);
    int ci = RouteChild(in, kref, /*upper=*/false);
    cur = in->child[ci];
    is_leaf = in->leaf_children;
  }
  const Leaf* leaf = static_cast<const Leaf*>(cur);
  int pos = static_cast<int>(
      std::lower_bound(leaf->e, leaf->e + leaf->n, kref,
                       [](const LeafEntry& e, const KeyRef& k) {
                         return CmpKey(e.key, k) < 0;
                       }) -
      leaf->e);
  return {leaf, pos};
}

// ---------------------------------------------------------------------------
// Iterator

void LocalStore::Iterator::Normalize() {
  while (leaf_ != nullptr) {
    if (idx_ >= leaf_->n) {
      leaf_ = leaf_->next;
      idx_ = 0;
      continue;
    }
    const LeafEntry& e = leaf_->e[idx_];
    if (store_->live_[e.live_idx] == kDeadPos) {
      ++idx_;
      continue;
    }
    if (!ub_.empty() && e.key.full >= ub_) {
      leaf_ = nullptr;
      break;
    }
    break;
  }
}

std::string_view LocalStore::Iterator::value() const {
  return store_->log_[store_->live_[leaf_->e[idx_].live_idx]].value();
}

// ---------------------------------------------------------------------------
// Store operations

LocalStore::LocalStore(StoreOptions options) : options_(std::move(options)) {
  if (options_.wal_backend != nullptr) {
    wal_ = std::make_unique<wal::Wal>(options_.wal_backend, options_.wal);
  }
}

uint64_t LocalStore::AppendRecord(bool is_delete, std::string_view key,
                                  std::string_view value, bool count_stats) {
  Slot slot;
  slot.data = arena_.Append(key, value);
  slot.key_len = static_cast<uint32_t>(key.size());
  slot.value_len = static_cast<uint32_t>(value.size());
  slot.is_delete = is_delete;
  log_.push_back(slot);
  if (count_stats) {
    stats_.log_records += 1;
    stats_.log_bytes += key.size() + value.size() + 1;
  }
  return log_.size() - 1;
}

Status LocalStore::Put(std::string_view key, std::string_view value) {
  if (key.empty()) return Status::InvalidArgument("localstore: empty key");
  if (wal_ != nullptr) {
    // Write-ahead: the record is durable (per the sync cadence) before any
    // in-memory index observes it.
    ORC_RETURN_IF_ERROR(wal_->AppendPut(key, value));
    ++appends_since_checkpoint_;
  }
  uint64_t h = HashKey(key);
  HashMiss miss;
  size_t hidx = HashFind(h, key, &miss);
  uint64_t pos = AppendRecord(false, key, value);
  if (hidx != kNoSlot) {
    live_[htable_[hidx].idx1 - 1] = pos;  // overwrite: repoint the live slot
  } else {
    live_.push_back(pos);
    auto live_idx = static_cast<uint32_t>(live_.size() - 1);
    TreeInsert(log_[pos].key(), live_idx);
    if (HashGrowIfNeeded()) {
      HashInsert(h, live_idx);  // table replaced; the miss point is stale
    } else {
      HashInsertAt(miss, h, live_idx);  // continue from the probe's stop point
    }
  }
  stats_.puts += 1;
  stats_.live_records = hcount_;
  MaybeCompact();
  MaybeCheckpoint();
  return Status::OK();
}

Result<std::string> LocalStore::Get(std::string_view key) const {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  size_t hidx = HashFind(HashKey(key), key);
  if (hidx == kNoSlot) return Status::NotFound("localstore: no such key");
  return std::string(log_[live_[htable_[hidx].idx1 - 1]].value());
}

Result<std::string_view> LocalStore::GetView(std::string_view key) const {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  size_t hidx = HashFind(HashKey(key), key);
  if (hidx == kNoSlot) return Status::NotFound("localstore: no such key");
  return log_[live_[htable_[hidx].idx1 - 1]].value();
}

bool LocalStore::Contains(std::string_view key) const {
  return HashFind(HashKey(key), key) != kNoSlot;
}

Status LocalStore::Delete(std::string_view key) {
  uint64_t h = HashKey(key);
  size_t hidx = HashFind(h, key);
  if (hidx != kNoSlot) {
    if (wal_ != nullptr) {
      ORC_RETURN_IF_ERROR(wal_->AppendDelete(key));
      ++appends_since_checkpoint_;
    }
    AppendRecord(true, key, {});
    live_[htable_[hidx].idx1 - 1] = kDeadPos;  // the tree skips dead slots
    HashEraseAt(hidx);
    stats_.deletes += 1;
    stats_.live_records = hcount_;
    MaybeCompact();
    MaybeCheckpoint();
  }
  return Status::OK();
}

LocalStore::Iterator LocalStore::Seek(std::string_view start) const {
  auto [leaf, idx] = TreeLowerBound(start);
  return Iterator(this, leaf, idx, std::string());
}

std::string LocalStore::PrefixUpperBound(std::string_view prefix) {
  std::string ub(prefix);
  while (!ub.empty() && static_cast<unsigned char>(ub.back()) == 0xFF) {
    ub.pop_back();
  }
  if (ub.empty()) return ub;  // no upper bound exists
  ub.back() = static_cast<char>(static_cast<unsigned char>(ub.back()) + 1);
  return ub;
}

LocalStore::Iterator LocalStore::SeekPrefix(std::string_view prefix) const {
  auto [leaf, idx] = TreeLowerBound(prefix);
  return Iterator(this, leaf, idx, PrefixUpperBound(prefix));
}

bool LocalStore::WithinPrefix(const Iterator& it, std::string_view prefix) {
  return it.Valid() && it.key().substr(0, prefix.size()) == prefix;
}

void LocalStore::IndexLiveRecord(uint64_t pos) {
  live_.push_back(pos);
  auto live_idx = static_cast<uint32_t>(live_.size() - 1);
  std::string_view key = log_[pos].key();
  TreeInsert(key, live_idx);
  HashInsert(HashKey(key), live_idx);
}

void LocalStore::ReplayPut(std::string_view key, std::string_view value) {
  uint64_t h = HashKey(key);
  HashMiss miss;
  size_t hidx = HashFind(h, key, &miss);
  uint64_t pos = AppendRecord(false, key, value, /*count_stats=*/false);
  if (hidx != kNoSlot) {
    live_[htable_[hidx].idx1 - 1] = pos;
  } else {
    live_.push_back(pos);
    auto live_idx = static_cast<uint32_t>(live_.size() - 1);
    TreeInsert(log_[pos].key(), live_idx);
    if (HashGrowIfNeeded()) {
      HashInsert(h, live_idx);
    } else {
      HashInsertAt(miss, h, live_idx);
    }
  }
}

void LocalStore::ReplayDelete(std::string_view key) {
  size_t hidx = HashFind(HashKey(key), key);
  if (hidx == kNoSlot) return;  // deleting a key the checkpoint already folded
  live_[htable_[hidx].idx1 - 1] = kDeadPos;
  HashEraseAt(hidx);
}

Status LocalStore::Recover() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("localstore: Recover needs a WAL backend");
  }

  // Crash-restart: every in-memory structure is gone; the WAL's checkpoint
  // manifest plus the segments past it are the sole source of truth.
  // Checkpoint entries arrive sorted and unique (fast sorted-index path);
  // tail records replay through the general overwrite/delete path.
  arena_ = Arena();
  log_.clear();
  TreeClear();
  htable_.clear();
  hcount_ = 0;
  live_.clear();

  uint64_t tail_records = 0;
  Status st = wal_->Recover([&](wal::RecordType type, std::string_view key,
                                std::string_view value, bool from_checkpoint) {
    if (from_checkpoint) {
      IndexLiveRecord(AppendRecord(false, key, value, /*count_stats=*/false));
      return;
    }
    ++tail_records;
    if (type == wal::RecordType::kDelete) {
      ReplayDelete(key);
    } else {
      ReplayPut(key, value);
    }
  });
  stats_.replayed_records += tail_records;
  stats_.live_records = hcount_;
  stats_.segments_retired = wal_->stats().segments_retired;
  appends_since_checkpoint_ = tail_records;
  return st;
}

void LocalStore::MaybeCompact() {
  if (log_.size() < options_.compaction_min_records) return;
  if (garbage_ratio() > options_.compaction_garbage_ratio) Compact();
}

Status LocalStore::Checkpoint() {
  if (wal_ == nullptr) return Status::OK();
  auto it = Seek("");
  Status st = wal_->WriteCheckpoint(
      [&](std::string_view* key, std::string_view* value) {
        if (!it.Valid()) return false;
        *key = it.key();
        *value = it.value();
        it.Next();
        return true;
      });
  // Reset the cadence either way: a failed publish (injected crash window)
  // must not retry on the very next Put — recovery handles it.
  appends_since_checkpoint_ = 0;
  if (!st.ok()) return st;
  stats_.checkpoints += 1;
  stats_.segments_retired = wal_->stats().segments_retired;
  return st;
}

void LocalStore::MaybeCheckpoint() {
  if (wal_ == nullptr || options_.checkpoint_every_records == 0) return;
  if (appends_since_checkpoint_ < options_.checkpoint_every_records) return;
  Checkpoint().ok();  // an injected publish failure is surfaced via stats
}

void LocalStore::Compact() {
  // Rewrite live records into a fresh arena in key order (sequential reads
  // after compaction walk the arena forward), then rebuild both indexes.
  // Invalidates all outstanding views and iterators.
  Arena new_arena;
  std::vector<Slot> new_log;
  new_log.reserve(hcount_);
  for (auto it = Seek(""); it.Valid(); it.Next()) {
    Slot slot;
    std::string_view key = it.key();
    std::string_view value = it.value();
    slot.data = new_arena.Append(key, value);
    slot.key_len = static_cast<uint32_t>(key.size());
    slot.value_len = static_cast<uint32_t>(value.size());
    slot.is_delete = false;
    new_log.push_back(slot);
  }
  arena_ = std::move(new_arena);
  log_ = std::move(new_log);
  TreeClear();
  htable_.clear();
  hcount_ = 0;
  live_.clear();
  for (uint64_t pos = 0; pos < log_.size(); ++pos) IndexLiveRecord(pos);
  stats_.compactions += 1;
}

}  // namespace orchestra::localstore
