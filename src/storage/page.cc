#include "storage/page.h"

#include <zlib.h>

#include "common/log.h"
#include "common/serial.h"
#include "hash/sha1.h"

namespace orchestra::storage {

void TupleId::EncodeTo(Writer* w) const {
  w->PutString(key_bytes);
  w->PutVarint64(epoch);
}

Status TupleId::DecodeFrom(Reader* r, TupleId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->key_bytes));
  return r->GetVarint64(&out->epoch);
}

namespace {
// Single-threaded simulation: a plain counter is sufficient.
uint64_t g_tuple_key_hash_count = 0;
}  // namespace

uint64_t TupleKeyHashCount() { return g_tuple_key_hash_count; }

HashId TupleKeyHash(std::string_view key_bytes) {
  g_tuple_key_hash_count += 1;
  Sha1Hasher h;
  h.Update("T\x1f");
  h.Update(key_bytes);
  return HashId::FromDigest(h.Finish());
}

HashId PlacementHash(const RelationDef& def, std::string_view key_bytes) {
  uint32_t arity = def.effective_partition_arity();
  if (arity >= def.schema.key_arity()) return TupleKeyHash(key_bytes);
  auto prefix = PartitionPrefixOfKey(arity, key_bytes);
  if (!prefix.ok()) return TupleKeyHash(key_bytes);
  return TupleKeyHash(*prefix);
}

HashId CoordinatorHash(const std::string& relation, Epoch epoch) {
  Sha1Hasher h;
  h.Update("C\x1f");
  h.Update(relation);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId ClaimHash(Epoch epoch) {
  Sha1Hasher h;
  h.Update("E\x1f");
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId PartitionBegin(uint32_t partition, uint32_t num_partitions) {
  ORC_CHECK(partition < num_partitions, "partition out of range");
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition);
}

HashId PartitionEnd(uint32_t partition, uint32_t num_partitions) {
  if (partition + 1 == num_partitions) return HashId::Zero();  // wraps
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition + 1);
}

uint32_t PartitionIndexFor(const HashId& h, uint32_t num_partitions) {
  // Binary search over boundaries; num_partitions is small (O(nodes)).
  HashId width = HashId::SpacePartition(num_partitions);
  uint32_t lo = 0, hi = num_partitions - 1;
  while (lo < hi) {
    uint32_t mid = (lo + hi + 1) / 2;
    if (width.MultiplyBy(mid) <= h) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

HashId PartitionHome(uint32_t partition, uint32_t num_partitions) {
  HashId begin = PartitionBegin(partition, num_partitions);
  HashId end = PartitionEnd(partition, num_partitions);
  return begin.ClockwiseMidpoint(end);
}

void PageId::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(partition);
}

Status PageId::DecodeFrom(Reader* r, PageId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  return r->GetVarint32(&out->partition);
}

std::string PageId::ToString() const {
  return relation + "@" + std::to_string(epoch) + "#" + std::to_string(partition);
}

void PageDescriptor::EncodeTo(Writer* w) const {
  id.EncodeTo(w);
  w->PutVarint32(num_partitions);
}

Status PageDescriptor::DecodeFrom(Reader* r, PageDescriptor* out) {
  ORC_RETURN_IF_ERROR(PageId::DecodeFrom(r, &out->id));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->num_partitions));
  if (out->num_partitions == 0 || out->id.partition >= out->num_partitions) {
    return Status::Corruption("page descriptor: bad partition");
  }
  return Status::OK();
}

void Page::EncodeTo(Writer* w) const {
  ORC_CHECK(hashes.size() == ids.size(), "page: hashes not parallel to ids");
  desc.EncodeTo(w);
  w->PutVarint64(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i].EncodeTo(w);
    hashes[i].EncodeTo(w);
  }
}

Status Page::DecodeFrom(Reader* r, Page* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->ids.clear();
  out->ids.reserve(n);
  out->hashes.clear();
  out->hashes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TupleId id;
    ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
    HashId h;
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &h));
    out->ids.push_back(std::move(id));
    out->hashes.push_back(h);
  }
  return Status::OK();
}

uint32_t PageCrc(std::string_view encoded_page) {
  return static_cast<uint32_t>(
      crc32(0, reinterpret_cast<const Bytef*>(encoded_page.data()),
            static_cast<uInt>(encoded_page.size())));
}

namespace {
// Page row order: (hash, key). Negative when row a sorts first.
int CompareRows(const HashId& ha, std::string_view ka, const HashId& hb,
                std::string_view kb) {
  if (ha != hb) return ha < hb ? -1 : 1;
  return ka.compare(kb);
}
}  // namespace

PageDelta PageDelta::Between(const Page& base, const Page& next,
                             uint32_t next_crc) {
  PageDelta d;
  d.desc = next.desc;
  d.base_epoch = base.desc.id.epoch;
  d.crc = next_crc;
  size_t i = 0, j = 0;
  while (i < base.ids.size() || j < next.ids.size()) {
    int order = i == base.ids.size()   ? 1
                : j == next.ids.size() ? -1
                                       : CompareRows(base.hashes[i], base.ids[i].key_bytes,
                                                     next.hashes[j], next.ids[j].key_bytes);
    if (order < 0) {
      d.removed.push_back(base.ids[i++].key_bytes);
      continue;
    }
    if (order > 0 || base.ids[i].epoch != next.ids[j].epoch) {
      d.added.push_back(next.ids[j]);
      d.added_hashes.push_back(next.hashes[j]);
    }
    if (order == 0) ++i;
    ++j;
  }
  return d;
}

Status PageDelta::Materialize(const Page& base, Page* out) const {
  if (!(base.desc.id == base_id())) {
    return Status::Corruption("page delta: wrong base " + base.desc.id.ToString());
  }
  out->desc = desc;
  out->ids.clear();
  out->hashes.clear();
  out->ids.reserve(base.ids.size() + added.size());
  out->hashes.reserve(base.ids.size() + added.size());
  auto emit_added = [&](size_t j) {
    out->ids.push_back(added[j]);
    out->hashes.push_back(added_hashes[j]);
  };
  size_t r = 0, j = 0;
  for (size_t i = 0; i < base.ids.size(); ++i) {
    if (r < removed.size() && base.ids[i].key_bytes == removed[r]) {
      ++r;
      continue;
    }
    int order = 1;
    while (j < added.size() &&
           (order = CompareRows(added_hashes[j], added[j].key_bytes,
                                base.hashes[i], base.ids[i].key_bytes)) < 0) {
      emit_added(j++);
    }
    if (j < added.size() && order == 0) {
      emit_added(j++);  // re-versioned: the delta's row replaces the base's
      continue;
    }
    out->ids.push_back(base.ids[i]);
    out->hashes.push_back(base.hashes[i]);
  }
  while (j < added.size()) emit_added(j++);
  if (r != removed.size()) {
    return Status::Corruption("page delta: removed key not in base");
  }
  return Status::OK();
}

void PageDelta::EncodeTo(Writer* w) const {
  ORC_CHECK(added_hashes.size() == added.size(),
            "page delta: hashes not parallel to added rows");
  desc.EncodeTo(w);
  w->PutVarint64(base_epoch);
  w->PutVarint64(removed.size());
  for (const std::string& key : removed) w->PutString(key);
  w->PutVarint64(added.size());
  for (size_t i = 0; i < added.size(); ++i) {
    added[i].EncodeTo(w);
    added_hashes[i].EncodeTo(w);
  }
  w->PutU32(crc);
}

Status PageDelta::DecodeFrom(Reader* r, PageDelta* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->base_epoch));
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->removed.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    ORC_RETURN_IF_ERROR(r->GetString(&key));
    out->removed.push_back(std::move(key));
  }
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->added.clear();
  out->added_hashes.clear();
  for (uint64_t i = 0; i < n; ++i) {
    TupleId id;
    ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
    HashId h;
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &h));
    out->added.push_back(std::move(id));
    out->added_hashes.push_back(h);
  }
  return r->GetU32(&out->crc);
}

void EpochClaimRecord::EncodeTo(Writer* w) const {
  w->PutVarint32(participant);
  w->PutVarint32(node);
  w->PutBool(committed);
  w->PutVarint64(nonce);
  w->PutBool(fenced);
  w->PutBool(purged);
}

Status EpochClaimRecord::DecodeFrom(Reader* r, EpochClaimRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->node));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->committed));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->nonce));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->fenced));
  return r->GetBool(&out->purged);
}

void CoordinatorRecord::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(participant);
  w->PutVarint64(pages.size());
  for (const auto& p : pages) p.EncodeTo(w);
}

Status CoordinatorRecord::DecodeFrom(Reader* r, CoordinatorRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->pages.clear();
  out->pages.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PageDescriptor d;
    ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &d));
    out->pages.push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace orchestra::storage
