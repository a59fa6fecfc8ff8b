#ifndef UNCHAINED_RA_STORAGE_COLUMN_STORE_H_
#define UNCHAINED_RA_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ra/instance.h"
#include "ra/relation.h"
#include "ra/tuple.h"

namespace datalog {
namespace storage {

/// One sorted run: a batch of rows in columnar layout (`cols[c][r]` is
/// column c of row r, columns in the relation's declared order), sorted by
/// the owning view's comparison order. Runs are immutable once built;
/// growth happens by appending new runs and periodically merge-compacting
/// them (the log-structured-merge idea applied to relation storage).
struct ColumnRun {
  size_t rows = 0;
  std::vector<std::vector<Value>> cols;
};

/// A columnar, sorted view of one relation, ordered so a chosen set of
/// "key" columns is the comparison prefix: rows are sorted
/// lexicographically by (key_cols..., remaining columns ascending). All
/// rows equal on the key columns therefore form one contiguous range per
/// run, which is what the merge-join delta path binary-searches.
///
/// A view is maintained incrementally against its relation exactly like an
/// IndexManager index: it remembers the (epoch, insert/erase journal
/// positions) it has consumed; monotone growth appends the journal tail
/// as new sorted runs, erases splice the row out of its containing run in
/// event order, and a history-losing mutation (epoch change) rebuilds
/// from scratch. When the run count passes kMaxRuns, all runs are merged
/// into one (merge-compaction), so probes touch a bounded number of runs.
class SortedView {
 public:
  /// A contiguous row range [begin, end) of one run.
  struct Range {
    const ColumnRun* run;
    size_t begin;
    size_t end;
  };

  /// Runs are merged into one when an append would leave more than this
  /// many. Probes therefore binary-search at most kMaxRuns + 1 runs.
  static constexpr size_t kMaxRuns = 8;

  int arity() const { return arity_; }
  const std::vector<int>& key_cols() const { return key_cols_; }
  size_t rows() const { return total_rows_; }
  const std::vector<ColumnRun>& runs() const { return runs_; }

  /// Appends to `out` every row range whose key columns equal
  /// `key[0 .. key_cols().size())` (key[i] is the value bound to
  /// key_cols()[i]). Ranges come out in run order; rows within a range are
  /// sorted by the remaining columns.
  void FindRanges(const Value* key, std::vector<Range>* out) const;

  /// Full-row membership: `row` has arity() values in declared column
  /// order.
  bool ContainsRow(const Value* row) const;

  /// Invokes `fn(run, row_index)` for every row in comparison order
  /// (merging runs on the fly) — the canonical iteration for equivalence
  /// tests.
  template <typename Fn>
  void ForEachRowSorted(Fn fn) const;

 private:
  friend class ColumnStore;

  /// Three-way comparison of run rows / flat rows by the view order.
  int CompareRows(const ColumnRun& a, size_t ra, const ColumnRun& b,
                  size_t rb) const;
  int CompareRowToFlat(const ColumnRun& a, size_t ra, const Value* row) const;

  /// Builds one sorted run from `tuples` (flattened pointers).
  ColumnRun BuildRun(const std::vector<const Tuple*>& tuples) const;
  /// Replaces all runs with their merge (no-op for 0/1 runs).
  void Compact();
  /// Splices `row` out of its containing run (binary search per run);
  /// returns true if found. An emptied run is dropped.
  bool RemoveRow(const Value* row);

  int arity_ = 0;
  std::vector<int> key_cols_;
  /// Full comparison order: key_cols_ first, then the remaining columns
  /// ascending.
  std::vector<int> order_;
  std::vector<ColumnRun> runs_;
  size_t total_rows_ = 0;
  uint64_t epoch_ = 0;
  size_t journal_pos_ = 0;
  size_t erase_pos_ = 0;
};

/// The per-evaluation manager of columnar views — the columnar half of the
/// pluggable storage layer (docs/storage.md). Owned by EvalContext next to
/// IndexManager; views are created on demand per (predicate, key columns)
/// and kept in sync with the evaluation's relations through the
/// epoch/journal contract. Single-threaded, like the evaluation that
/// owns it.
class ColumnStore {
 public:
  /// Maintenance counters, folded into EvalStats as storage_* by
  /// EvalContext::Finalize and published as storage.* metrics.
  struct Counters {
    /// First-time view builds of a (pred, key_cols) view.
    int64_t builds = 0;
    /// Full rebuilds forced by an epoch change.
    int64_t rebuilds = 0;
    /// Journal tails appended as new sorted runs.
    int64_t run_appends = 0;
    /// Rows appended across those runs.
    int64_t rows_appended = 0;
    /// Rows spliced out of runs via relation erase journals.
    int64_t rows_removed = 0;
    /// Merge-compactions (runs folded into one).
    int64_t compactions = 0;
    /// View() calls served by an already up-to-date view.
    int64_t hits = 0;
  };

  ColumnStore() = default;
  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// The sorted view of `db.Rel(pred)` keyed on `key_cols` (which may be
  /// empty: plain lexicographic order), brought up to date first. The
  /// reference — and any Range taken from it — is invalidated by the next
  /// View() call that appends or compacts, so callers finish their probes
  /// against one view before refreshing another of the same predicate.
  const SortedView& View(const Instance& db, PredId pred,
                         const std::vector<int>& key_cols);

  /// Drops every view (tests; evaluation contexts let the store die with
  /// them).
  void Clear() { views_.clear(); }

  const Counters& counters() const { return counters_; }

 private:
  std::map<std::pair<PredId, std::vector<int>>, SortedView> views_;
  Counters counters_;
};

template <typename Fn>
void SortedView::ForEachRowSorted(Fn fn) const {
  std::vector<size_t> cursor(runs_.size(), 0);
  for (size_t emitted = 0; emitted < total_rows_; ++emitted) {
    size_t best = runs_.size();
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (cursor[i] >= runs_[i].rows) continue;
      if (best == runs_.size() ||
          CompareRows(runs_[i], cursor[i], runs_[best], cursor[best]) < 0) {
        best = i;
      }
    }
    fn(runs_[best], cursor[best]);
    ++cursor[best];
  }
}

}  // namespace storage
}  // namespace datalog

#endif  // UNCHAINED_RA_STORAGE_COLUMN_STORE_H_
