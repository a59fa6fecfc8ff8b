#include "ra/instance.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <mutex>
#include <string_view>

#include "base/coding.h"

namespace datalog {

namespace {
const Relation& EmptyRelation(int arity) {
  // Pre-built past any arity the matcher supports (its index masks cap
  // columns at 32), so concurrent Rel() calls from parallel workers are
  // pure reads; the rare larger arity grows a mutex-guarded overflow.
  constexpr int kPrebuilt = 64;
  static const std::vector<Relation>* cache = [] {
    auto* v = new std::vector<Relation>();
    v->reserve(kPrebuilt);
    for (int a = 0; a < kPrebuilt; ++a) v->emplace_back(a);
    return v;
  }();
  if (arity < kPrebuilt) return (*cache)[static_cast<size_t>(arity)];
  static std::mutex overflow_mu;
  static std::map<int, Relation>* overflow = new std::map<int, Relation>();
  std::lock_guard<std::mutex> lock(overflow_mu);
  return overflow->try_emplace(arity, arity).first->second;
}
}  // namespace

const Relation& Instance::Rel(PredId p) const {
  auto it = relations_.find(p);
  if (it != relations_.end()) return it->second;
  return EmptyRelation(catalog_->ArityOf(p));
}

Relation* Instance::MutableRel(PredId p) {
  auto it = relations_.find(p);
  if (it == relations_.end()) {
    it = relations_.emplace(p, Relation(catalog_->ArityOf(p))).first;
  }
  return &it->second;
}

bool Instance::Erase(PredId p, const Tuple& t) {
  auto it = relations_.find(p);
  return it != relations_.end() && it->second.Erase(t);
}

size_t Instance::UnionWith(const Instance& other) {
  size_t added = 0;
  for (const auto& [p, rel] : other.relations_) {
    if (rel.empty()) continue;
    added += MutableRel(p)->UnionWith(rel);
  }
  return added;
}

size_t Instance::TotalFacts() const {
  size_t n = 0;
  for (const auto& [p, rel] : relations_) n += rel.size();
  return n;
}

std::set<Value> Instance::ActiveDomain() const {
  std::set<Value> dom;
  for (const auto& [p, rel] : relations_) {
    for (const Tuple& t : rel) dom.insert(t.begin(), t.end());
  }
  return dom;
}

bool Instance::operator==(const Instance& other) const {
  // Lazily absent relations equal empty ones, so compare via SubsetOf both
  // ways rather than comparing the maps.
  return SubsetOf(other) && other.SubsetOf(*this);
}

bool Instance::SubsetOf(const Instance& other) const {
  for (const auto& [p, rel] : relations_) {
    if (rel.empty()) continue;
    const Relation& o = other.Rel(p);
    if (o.size() < rel.size()) return false;
    for (const Tuple& t : rel) {
      if (!o.Contains(t)) return false;
    }
  }
  return true;
}

uint64_t Instance::Fingerprint() const {
  uint64_t h = 0;
  for (const auto& [p, rel] : relations_) {
    if (rel.empty()) continue;
    uint64_t x =
        rel.ContentHash() +
        uint64_t{0x9e3779b97f4a7c15} * static_cast<uint64_t>(p + 1);
    x ^= x >> 29;
    x *= uint64_t{0xbf58476d1ce4e5b9};
    x ^= x >> 32;
    // Sum, not XOR, for the same cancellation-resistance reason as
    // Relation::ContentHash.
    h += x;
  }
  return h;
}

std::string Instance::ToString(const SymbolTable& symbols) const {
  // Predicates in catalog order, tuples in lexicographic order.
  std::string out;
  std::vector<PredId> preds;
  preds.reserve(relations_.size());
  for (const auto& [p, rel] : relations_) {
    if (!rel.empty()) preds.push_back(p);
  }
  std::sort(preds.begin(), preds.end());
  for (PredId p : preds) {
    for (const Tuple& t : Rel(p).Sorted()) {
      out += catalog_->NameOf(p);
      if (!t.empty()) {
        out += '(';
        for (size_t i = 0; i < t.size(); ++i) {
          if (i > 0) out += ", ";
          out += symbols.NameOf(t[i]);
        }
        out += ')';
      }
      out += ".\n";
    }
  }
  return out;
}

Instance Instance::Restrict(const std::vector<PredId>& preds) const {
  Instance out(catalog_);
  for (PredId p : preds) {
    const Relation& rel = Rel(p);
    if (!rel.empty()) *out.MutableRel(p) = rel;
  }
  return out;
}

namespace {

constexpr size_t kWordBytes = 4;
/// `u32 pred | u32 arity | u32 count` in front of every chunk's rows.
constexpr size_t kChunkHeaderBytes = 3 * kWordBytes;
/// Snapshot format tag; bump when the layout changes.
constexpr uint32_t kSnapshotMagic = 0x31534455;  // "UDS1"

/// The `u32 magic | u32 #relations` snapshot header.
void AppendSnapshotHeader(uint32_t relations, std::string* out) {
  PutU32(out, kSnapshotMagic);
  PutU32(out, relations);
}

size_t ChunkBytes(int arity, size_t count) {
  return kChunkHeaderBytes + count * static_cast<size_t>(arity) * kWordBytes;
}

/// Writes a chunk header at `out`; returns where its rows start.
char* PutChunkHeader(char* out, PredId p, int arity, size_t count) {
  StoreU32(out, static_cast<uint32_t>(p));
  StoreU32(out + kWordBytes, static_cast<uint32_t>(arity));
  StoreU32(out + 2 * kWordBytes, static_cast<uint32_t>(count));
  return out + kChunkHeaderBytes;
}

/// Writes one row of `arity` values at `out`; returns the end of the row.
char* PutRow(const Value* row, size_t arity, char* out) {
  for (size_t c = 0; c < arity; ++c) {
    StoreU32(out, static_cast<uint32_t>(row[c]));
    out += kWordBytes;
  }
  return out;
}

/// True when the encoded row at `row` sorts before the `arity` values at
/// `t` in Tuple order (signed, lexicographic).
bool RowLess(const char* row, const Value* t, size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    const Value r = static_cast<Value>(LoadU32(row));
    if (r != t[c]) return r < t[c];
    row += kWordBytes;
  }
  return false;
}

/// `rows` (pointers to rows of `arity` values) sorted into Tuple order.
void SortRows(size_t arity, std::vector<const Value*>* rows) {
  std::sort(rows->begin(), rows->end(),
            [arity](const Value* a, const Value* b) {
              return std::lexicographical_compare(a, a + arity, b, b + arity);
            });
}

/// The rows of `rel` in Tuple order, by pointer.
std::vector<const Value*> SortedRows(const Relation& rel) {
  std::vector<const Value*> rows;
  rows.reserve(rel.size());
  for (const Tuple& t : rel) rows.push_back(t.data());
  SortRows(static_cast<size_t>(rel.arity()), &rows);
  return rows;
}

/// The rows of `set` (null: none) in Tuple order, by pointer.
std::vector<const Value*> SortedRows(const storage::RowSet* set) {
  std::vector<const Value*> rows;
  if (set == nullptr) return rows;
  const size_t arity = static_cast<size_t>(set->arity());
  rows.reserve(set->rows());
  for (size_t r = 0; r < set->rows(); ++r) {
    rows.push_back(set->data() + r * arity);
  }
  SortRows(arity, &rows);
  return rows;
}

/// Appends the chunk of relation `p` to `out`.
void AppendChunk(PredId p, const Relation& rel, std::string* out) {
  const std::vector<const Value*> rows = SortedRows(rel);
  const size_t arity = static_cast<size_t>(rel.arity());
  const size_t start = out->size();
  out->resize(start + ChunkBytes(rel.arity(), rows.size()));
  char* w = PutChunkHeader(out->data() + start, p, rel.arity(), rows.size());
  for (const Value* row : rows) w = PutRow(row, arity, w);
}

/// `old` (null: the relation was empty) with the rows of `removed` cut out
/// and those of `added` spliced in, copying the untouched runs between
/// splice points whole; null when no row remains.
SnapshotChunk MergeChunk(PredId p, int arity, const std::string* old,
                         const storage::RowSet* added,
                         const storage::RowSet* removed) {
  const std::vector<const Value*> ins = SortedRows(added);
  const std::vector<const Value*> del = SortedRows(removed);
  const size_t old_count =
      old != nullptr ? LoadU32(old->data() + 2 * kWordBytes) : 0;
  assert(del.size() <= old_count);
  const size_t count = old_count + ins.size() - del.size();
  if (count == 0) return nullptr;

  const size_t width = static_cast<size_t>(arity);
  const size_t row_bytes = width * kWordBytes;
  const char* rows = old != nullptr ? old->data() + kChunkHeaderBytes : nullptr;
  std::string out(ChunkBytes(arity, count), '\0');
  char* w = PutChunkHeader(out.data(), p, arity, count);
  size_t pos = 0;  // next old row not yet copied or cut
  auto copy_to = [&](size_t end) {
    if (end > pos) {
      std::memcpy(w, rows + pos * row_bytes, (end - pos) * row_bytes);
      w += (end - pos) * row_bytes;
    }
    pos = end;
  };
  auto splice_point = [&](const Value* t) {  // first old row >= t
    size_t lo = pos;
    size_t hi = old_count;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (RowLess(rows + mid * row_bytes, t, width)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  size_t i = 0;
  size_t j = 0;
  while (i < ins.size() || j < del.size()) {
    const bool insert =
        j == del.size() ||
        (i < ins.size() && std::lexicographical_compare(
                               ins[i], ins[i] + width, del[j], del[j] + width));
    const Value* t = insert ? ins[i++] : del[j++];
    copy_to(splice_point(t));
    if (insert) {
      w = PutRow(t, width, w);
    } else {
      assert(pos < old_count);
      ++pos;  // cut the removed row
    }
  }
  copy_to(old_count);
  assert(w == out.data() + out.size());
  return std::make_shared<const std::string>(std::move(out));
}

}  // namespace

std::string Instance::SerializeSnapshot() const {
  std::vector<PredId> preds;
  preds.reserve(relations_.size());
  size_t bytes = 2 * kWordBytes;
  for (const auto& [p, rel] : relations_) {
    if (rel.empty()) continue;
    preds.push_back(p);
    bytes += ChunkBytes(rel.arity(), rel.size());
  }
  std::sort(preds.begin(), preds.end());
  std::string out;
  out.reserve(bytes);
  AppendSnapshotHeader(static_cast<uint32_t>(preds.size()), &out);
  for (PredId p : preds) AppendChunk(p, Rel(p), &out);
  return out;
}

SnapshotChunks Instance::EncodeSnapshotChunks() const {
  SnapshotChunks chunks(static_cast<size_t>(catalog_->size()));
  for (const auto& [p, rel] : relations_) {
    if (rel.empty()) continue;
    std::string chunk;
    AppendChunk(p, rel, &chunk);
    chunks[static_cast<size_t>(p)] =
        std::make_shared<const std::string>(std::move(chunk));
  }
  return chunks;
}

int MergeSnapshotDelta(const storage::FactSet& added,
                       const storage::FactSet& removed,
                       SnapshotChunks* chunks) {
  int merged = 0;
  auto merge = [&](PredId p) {
    const storage::RowSet* ins = added.Find(p);
    const storage::RowSet* del = removed.Find(p);
    const size_t i = static_cast<size_t>(p);
    if (i >= chunks->size()) chunks->resize(i + 1);
    SnapshotChunk& chunk = (*chunks)[i];
    chunk = MergeChunk(p, (ins != nullptr ? ins : del)->arity(), chunk.get(),
                       ins, del);
    ++merged;
  };
  for (PredId p : added.preds()) merge(p);
  for (PredId p : removed.preds()) {
    if (added.Find(p) == nullptr) merge(p);
  }
  return merged;
}

std::string AssembleSnapshot(std::span<const SnapshotChunk> chunks) {
  size_t bytes = 2 * kWordBytes;
  uint32_t relations = 0;
  for (const SnapshotChunk& chunk : chunks) {
    if (chunk == nullptr) continue;
    bytes += chunk->size();
    ++relations;
  }
  std::string out;
  out.reserve(bytes);
  AppendSnapshotHeader(relations, &out);
  for (const SnapshotChunk& chunk : chunks) {
    if (chunk != nullptr) out += *chunk;
  }
  return out;
}

Status Instance::RestoreSnapshot(const std::string& snapshot) {
  // Decoded aside and swapped in only on success: every error return
  // leaves the instance empty, never half-restored.
  relations_.clear();
  std::unordered_map<PredId, Relation> restored;
  ByteReader r(snapshot);
  uint32_t magic = 0;
  uint32_t num_preds = 0;
  if (!r.U32(&magic) || magic != kSnapshotMagic || !r.U32(&num_preds)) {
    return Status::Internal("instance snapshot: bad header");
  }
  for (uint32_t i = 0; i < num_preds; ++i) {
    uint32_t pred = 0;
    uint32_t arity = 0;
    uint32_t count = 0;
    if (!r.U32(&pred) || !r.U32(&arity) || !r.U32(&count)) {
      return Status::Internal("instance snapshot: truncated relation header");
    }
    const PredId p = static_cast<PredId>(pred);
    if (p < 0 || p >= catalog_->size() ||
        catalog_->ArityOf(p) != static_cast<int>(arity)) {
      return Status::Internal(
          "instance snapshot: predicate/arity mismatch with catalog");
    }
    // A 0-ary relation holds at most the empty tuple; a larger count
    // would cost one insert per claimed row and read no bytes.
    if (arity == 0 && count > 1) {
      return Status::Internal("instance snapshot: repeated 0-ary row");
    }
    const size_t width = static_cast<size_t>(arity);
    std::string_view rows;
    if (!r.Bytes(size_t{count} * width * kWordBytes, &rows)) {
      return Status::Internal("instance snapshot: truncated tuple data");
    }
    Relation& rel =
        restored.try_emplace(p, static_cast<int>(arity)).first->second;
    const char* word = rows.data();
    for (uint32_t k = 0; k < count; ++k) {
      Tuple t(width);
      for (size_t c = 0; c < width; ++c) {
        t[c] = static_cast<Value>(LoadU32(word));
        word += kWordBytes;
      }
      rel.Insert(std::move(t));
    }
  }
  if (!r.done()) {
    return Status::Internal("instance snapshot: trailing bytes");
  }
  relations_ = std::move(restored);
  return Status::OK();
}

}  // namespace datalog
