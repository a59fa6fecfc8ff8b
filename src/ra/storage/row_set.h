#ifndef UNCHAINED_RA_STORAGE_ROW_SET_H_
#define UNCHAINED_RA_STORAGE_ROW_SET_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "ra/catalog.h"
#include "ra/tuple.h"

namespace datalog {
namespace storage {

/// Exact membership set over fixed-arity flat rows, built for the
/// incremental view's per-batch deltas (docs/incremental.md), the overlay
/// matcher's removed rows and the provenance log: an open-addressing table
/// of row indexes into an append-order column log. Compared to probing
/// `Relation`'s tuple set, a lookup touches no per-tuple heap nodes — the
/// slot array and the flat log are the only memory — and an insert appends
/// `arity` values instead of allocating a `Tuple`. Rows are never removed
/// one by one; `Reset` empties the set for reuse.
class RowSet {
 public:
  /// What Find returns for a row the set does not hold.
  static constexpr size_t kAbsent = std::numeric_limits<size_t>::max();

  /// An empty set for rows of `arity` values. Arity 0 is allowed: the set
  /// then holds at most the empty row. Allocates nothing until an insert.
  explicit RowSet(int arity = 1) : arity_(static_cast<size_t>(arity)) {}

  size_t rows() const { return rows_; }
  int arity() const { return static_cast<int>(arity_); }
  /// Rows the set holds before its table grows.
  size_t capacity() const { return slots_.size() / 2; }

  /// The position of `row` (`arity` values) in insertion order, or
  /// kAbsent.
  size_t Find(const Value* row) const;
  bool Contains(const Value* row) const { return Find(row) != kAbsent; }

  /// Inserts the row if absent; returns true when it was new. May
  /// reallocate the log, so never insert while reading `data()`. A set
  /// that RowsMatching has ordered takes no more rows (asserted).
  bool Insert(const Value* row);

  /// The positions of the rows whose columns selected by `mask` (bit c =
  /// column c) equal `key`, the selected values in column order. The
  /// first call for a mask sorts the row positions by those columns;
  /// later calls binary-search that order, so a probe costs O(log rows)
  /// plus the rows it returns. The span stays valid until Reset, also
  /// across calls for other masks. Not safe against concurrent calls.
  std::span<const uint32_t> RowsMatching(uint32_t mask, const Tuple& key) const;

  /// Empties the set in O(rows held), keeping its storage, and drops the
  /// RowsMatching orders. When the rows held used less than a quarter of
  /// the capacity, the storage shrinks to what they needed, so one large
  /// use does not pin its memory.
  void Reset();

  /// Rows in insertion order, row-major — `rows() * arity` values.
  const Value* data() const { return log_.data(); }
  /// Row `r` as a tuple.
  Tuple Row(size_t r) const {
    const Value* row = log_.data() + r * arity_;
    return Tuple(row, row + arity_);
  }

 private:
  /// The row positions sorted by the columns `mask` selects; `built`
  /// is false until the first RowsMatching call for the mask since the
  /// last Reset, and `rows` keeps its storage across Resets.
  struct Order {
    uint32_t mask = 0;
    bool built = false;
    std::vector<uint32_t> rows;
  };

  uint64_t HashRow(const Value* row) const;
  void Grow();
  bool Ordered() const;

  size_t arity_;
  size_t rows_ = 0;
  std::vector<Value> log_;
  /// Open addressing, linear probing: each slot is a row index + 1, with 0
  /// marking an empty slot. Sized to a power of two at most half full.
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  /// One per mask RowsMatching was called with. Moving an Order keeps
  /// its `rows` buffer, so the spans handed out survive this vector
  /// growing.
  mutable std::vector<Order> orders_;
};

/// A set of facts over many predicates: one RowSet per predicate, plus
/// the predicates that hold rows in the order of their first insert.
/// `Reset` empties it in O(rows held) and keeps the storage, so a set
/// reused batch after batch stops allocating once warm; a predicate's
/// rows are reset, and may shrink, only after a use that held some.
/// Each predicate's rows live apart, so inserting facts of one predicate
/// never moves the rows of another.
class FactSet {
 public:
  /// Inserts fact p(t) if absent; returns true when it was new.
  bool Insert(PredId p, const Tuple& t);
  bool Contains(PredId p, const Tuple& t) const;

  /// The rows of `p`, or null when it holds none.
  const RowSet* Find(PredId p) const {
    const size_t i = static_cast<size_t>(p);
    return i < sets_.size() && sets_[i] != nullptr && sets_[i]->rows() > 0
               ? sets_[i].get()
               : nullptr;
  }
  /// The predicates holding rows, in order of first insert.
  const std::vector<PredId>& preds() const { return preds_; }
  bool empty() const { return preds_.empty(); }

  /// Calls `fn(p, t)` for every fact p(t): predicates in first-insert
  /// order, each one's rows in insertion order. `fn` must not insert into
  /// this set.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (PredId p : preds_) {
      const RowSet& set = *sets_[static_cast<size_t>(p)];
      for (size_t r = 0; r < set.rows(); ++r) fn(p, set.Row(r));
    }
  }

  /// Empties every predicate's rows (RowSet::Reset).
  void Reset();

 private:
  std::vector<std::unique_ptr<RowSet>> sets_;  // indexed by PredId
  std::vector<PredId> preds_;
};

}  // namespace storage
}  // namespace datalog

#endif  // UNCHAINED_RA_STORAGE_ROW_SET_H_
