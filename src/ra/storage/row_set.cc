#include "ra/storage/row_set.h"

#include <algorithm>
#include <cassert>

namespace datalog {
namespace storage {

namespace {

/// The smallest table a set allocates.
constexpr size_t kMinSlots = 16;

bool SameRow(const Value* a, const Value* b, size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// Slots for `rows` rows at most half full.
size_t SlotsFor(size_t rows) {
  size_t cap = kMinSlots;
  while (cap < 2 * rows) cap <<= 1;
  return cap;
}

}  // namespace

uint64_t RowSet::HashRow(const Value* row) const {
  uint64_t h = uint64_t{0x9e3779b97f4a7c15};
  for (size_t c = 0; c < arity_; ++c) {
    h ^= static_cast<uint64_t>(static_cast<int64_t>(row[c]));
    h *= uint64_t{0xff51afd7ed558ccd};
    h ^= h >> 33;
  }
  return h;
}

size_t RowSet::Find(const Value* row) const {
  if (rows_ == 0) return kAbsent;
  size_t s = static_cast<size_t>(HashRow(row)) & mask_;
  while (true) {
    const uint32_t e = slots_[s];
    if (e == 0) return kAbsent;
    const size_t r = static_cast<size_t>(e) - 1;
    if (SameRow(log_.data() + r * arity_, row, arity_)) return r;
    s = (s + 1) & mask_;
  }
}

bool RowSet::Insert(const Value* row) {
  assert(!Ordered() && "a RowsMatching order would miss the new row");
  if ((rows_ + 1) * 2 > slots_.size()) Grow();
  size_t s = static_cast<size_t>(HashRow(row)) & mask_;
  while (true) {
    const uint32_t e = slots_[s];
    if (e == 0) {
      slots_[s] = static_cast<uint32_t>(rows_ + 1);
      log_.insert(log_.end(), row, row + arity_);
      ++rows_;
      return true;
    }
    if (SameRow(log_.data() + (static_cast<size_t>(e) - 1) * arity_, row,
                arity_)) {
      return false;
    }
    s = (s + 1) & mask_;
  }
}

std::span<const uint32_t> RowSet::RowsMatching(uint32_t mask,
                                               const Tuple& key) const {
  Order* order = nullptr;
  for (Order& o : orders_) {
    if (o.mask == mask) {
      order = &o;
      break;
    }
  }
  if (order == nullptr) {
    orders_.push_back(Order{mask, false, {}});
    order = &orders_.back();
  }
  std::vector<uint32_t>& rows = order->rows;
  if (!order->built) {
    rows.resize(rows_);
    for (size_t r = 0; r < rows_; ++r) rows[r] = static_cast<uint32_t>(r);
    // By the selected columns, ties by position: std::sort is not stable.
    std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
      const Value* x = log_.data() + static_cast<size_t>(a) * arity_;
      const Value* y = log_.data() + static_cast<size_t>(b) * arity_;
      for (size_t c = 0; c < arity_; ++c) {
        if ((mask >> c & 1u) != 0 && x[c] != y[c]) return x[c] < y[c];
      }
      return a < b;
    });
    order->built = true;
  }
  // Row r's selected columns against `key`: negative, zero or positive.
  const auto versus_key = [&](uint32_t r) {
    const Value* row = log_.data() + static_cast<size_t>(r) * arity_;
    size_t k = 0;
    for (size_t c = 0; c < arity_; ++c) {
      if ((mask >> c & 1u) == 0) continue;
      if (row[c] != key[k]) return row[c] < key[k] ? -1 : 1;
      ++k;
    }
    return 0;
  };
  const auto lo = std::partition_point(
      rows.begin(), rows.end(), [&](uint32_t r) { return versus_key(r) < 0; });
  const auto hi = std::partition_point(
      lo, rows.end(), [&](uint32_t r) { return versus_key(r) == 0; });
  return std::span<const uint32_t>(
      rows.data() + (lo - rows.begin()), static_cast<size_t>(hi - lo));
}

bool RowSet::Ordered() const {
  for (const Order& o : orders_) {
    if (o.built) return true;
  }
  return false;
}

void RowSet::Reset() {
  if (rows_ * 8 < slots_.size() && slots_.size() > kMinSlots) {
    // Used under a quarter of the capacity: shrink to what it needed.
    const size_t cap = SlotsFor(rows_);
    std::vector<uint32_t>(cap, 0).swap(slots_);
    mask_ = cap - 1;
    std::vector<Value> log;
    log.reserve(rows_ * arity_);
    log_.swap(log);
    std::vector<Order>().swap(orders_);
  } else {
    // At least an eighth full (or minimal), so clearing every slot costs
    // O(rows held).
    std::fill(slots_.begin(), slots_.end(), 0);
    log_.clear();
    for (Order& o : orders_) {
      o.built = false;
      o.rows.clear();
    }
  }
  rows_ = 0;
}

void RowSet::Grow() {
  const size_t cap = slots_.empty() ? kMinSlots : slots_.size() * 2;
  std::vector<uint32_t> fresh(cap, 0);
  const size_t mask = cap - 1;
  for (size_t r = 0; r < rows_; ++r) {
    const Value* row = log_.data() + r * arity_;
    size_t s = static_cast<size_t>(HashRow(row)) & mask;
    while (fresh[s] != 0) s = (s + 1) & mask;
    fresh[s] = static_cast<uint32_t>(r + 1);
  }
  slots_ = std::move(fresh);
  mask_ = mask;
}

bool FactSet::Insert(PredId p, const Tuple& t) {
  const size_t i = static_cast<size_t>(p);
  if (i >= sets_.size()) sets_.resize(i + 1);
  std::unique_ptr<RowSet>& set = sets_[i];
  if (set == nullptr) {
    set = std::make_unique<RowSet>(static_cast<int>(t.size()));
  }
  assert(static_cast<int>(t.size()) == set->arity());
  if (!set->Insert(t.data())) return false;
  if (set->rows() == 1) preds_.push_back(p);
  return true;
}

bool FactSet::Contains(PredId p, const Tuple& t) const {
  const RowSet* set = Find(p);
  return set != nullptr && set->Contains(t.data());
}

void FactSet::Reset() {
  for (PredId p : preds_) sets_[static_cast<size_t>(p)]->Reset();
  preds_.clear();
}

}  // namespace storage
}  // namespace datalog
