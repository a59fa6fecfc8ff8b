#ifndef UNCHAINED_RA_RELATION_H_
#define UNCHAINED_RA_RELATION_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "ra/tuple.h"

namespace datalog {

/// A relation instance: a finite set of constant tuples of a fixed arity
/// (Section 2). Insertion is idempotent; iteration order is unspecified —
/// use `Sorted()` when a canonical order is needed.
///
/// Incremental-maintenance support: every relation carries
///  * an insertion *journal* — stable pointers to every tuple inserted
///    since the last non-monotone event — so index and active-domain
///    caches can append just the new tuples instead of rebuilding;
///  * an erase *journal* — one `EraseEvent` per successful `Erase`, each
///    remembering the insert-journal length at erase time (`ins_pos`), so
///    a cache can replay inserts and erases in their true interleaved
///    order. Erased nodes are parked in a graveyard until the next epoch
///    change, which keeps every pointer in either journal dereferenceable
///    for as long as the epoch is stable;
///  * a globally unique `epoch()`, refreshed on every history-losing event
///    (clear, copy, journal compaction), so a cache holding
///    (epoch, insert position, erase position) can prove its incremental
///    view is still valid. Epochs are drawn from a process-wide counter:
///    two distinct relation states never share an epoch by accident, which
///    makes the check sound even when engines swap whole instances in and
///    out (the caches then fall back to a full rebuild). `Erase` keeps the
///    epoch: deletion is an incremental event now, not a history reset.
///
/// When the two journals grow past a fixed multiple of the live contents
/// (sustained churn), the relation compacts deterministically: fresh
/// epoch, both journals and the graveyard dropped, consumers rebuild.
///
/// Columnar staging (docs/storage.md): the columnar delta engine appends
/// batches of known-new rows as flat values (`AppendStagedRows`) without
/// touching the tuple set. Staged rows count toward `size()` immediately
/// but are folded into the set — and journaled, preserving the contract
/// above — only when some consumer actually needs tuple-level access
/// (`Contains`, iteration, `journal()`, equality, ...). Staging is a
/// monotone event: the epoch is unchanged and materialization appends to
/// the journal in staging order. Materialization is not thread-safe
/// against concurrent reads; call `MaterializeStaged()` from a single
/// thread before sharing a possibly-staged relation across workers.
class Relation {
 public:
  using TupleSet = std::unordered_set<Tuple, TupleHash>;
  using const_iterator = TupleSet::const_iterator;

  /// One successful `Erase`, in erase order. `ins_pos` is the length of
  /// the insert journal at the moment of the erase: a consumer replaying
  /// both journals merges them by processing every insert with index
  /// < `ins_pos` before this erase. `tuple` stays dereferenceable (the
  /// node lives in the graveyard) until the epoch changes.
  struct EraseEvent {
    const Tuple* tuple;
    size_t ins_pos;
  };

  /// Creates an empty relation of the given arity (>= 0; arity 0 models
  /// propositional predicates such as `delay` in Example 4.4).
  explicit Relation(int arity = 0) : arity_(arity), epoch_(NextEpoch()) {}

  /// Copies take a fresh epoch and empty journals: caches keyed on the
  /// source must not treat the copy as incrementally-derivable.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// Moves keep the epoch and journals (unordered_set nodes — and
  /// therefore the journals' tuple pointers — survive a move); the source
  /// is left empty with a fresh epoch.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  int arity() const { return arity_; }
  size_t size() const { return tuples_.size() + staged_rows(); }
  bool empty() const { return tuples_.empty() && staged_.empty(); }

  /// Inserts `t` (whose size must equal `arity()`); returns true if the
  /// tuple was not already present.
  bool Insert(const Tuple& t);
  bool Insert(Tuple&& t);

  /// Removes `t`; returns true if it was present. The epoch survives: the
  /// erase is recorded in `erase_journal()` so incremental consumers can
  /// remove exactly this tuple instead of rebuilding.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const {
    MaterializeStaged();
    return tuples_.count(t) > 0;
  }

  /// Appends `rows` flat rows of `arity()` values each (arity >= 1). The
  /// caller guarantees the rows are mutually distinct and not already
  /// present — the columnar delta engine's produced-check establishes
  /// exactly that. The rows join the tuple set lazily; see the class
  /// comment.
  void AppendStagedRows(const Value* data, size_t rows);

  /// Rows appended but not yet folded into the tuple set.
  size_t staged_rows() const {
    return arity_ > 0 ? staged_.size() / static_cast<size_t>(arity_) : 0;
  }

  /// Folds staged rows into the tuple set and the journal (in staging
  /// order). No-op when nothing is staged; called implicitly by every
  /// tuple-level reader. Single-threaded: see the class comment.
  void MaterializeStaged() const;

  /// Inserts every tuple of `other` (same arity); returns the number of
  /// tuples that were new.
  size_t UnionWith(const Relation& other);

  void Clear();

  const_iterator begin() const {
    MaterializeStaged();
    return tuples_.begin();
  }
  const_iterator end() const { return tuples_.end(); }

  /// Tuples in lexicographic order — canonical form for printing, hashing
  /// and equality-sensitive tests.
  std::vector<Tuple> Sorted() const;

  /// Set equality (arity and contents).
  bool operator==(const Relation& other) const {
    MaterializeStaged();
    other.MaterializeStaged();
    return arity_ == other.arity_ && tuples_ == other.tuples_;
  }
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Order-independent hash of the contents (sum of mixed per-tuple
  /// hashes — not XOR, which lets even multisets of colliding pairs
  /// cancel), used for instance-state fingerprinting in cycle detection.
  uint64_t ContentHash() const;

  // -- Incremental-maintenance introspection ---------------------------

  /// Globally unique id of the current journaled history. Changes on
  /// clear/copy/compaction; caches compare it to decide append vs rebuild.
  uint64_t epoch() const { return epoch_; }

  /// Tuples inserted during the current epoch, in insertion order. The
  /// pointers are stable for the relation's lifetime (unordered_set node
  /// stability) while the epoch is unchanged. An inserted-then-erased
  /// tuple keeps its journal entry — pair with `erase_journal()` to
  /// replay the true history.
  const std::vector<const Tuple*>& journal() const {
    MaterializeStaged();
    return journal_;
  }

  /// Tuples erased during the current epoch, in erase order; see
  /// `EraseEvent` for the interleaving contract.
  const std::vector<EraseEvent>& erase_journal() const {
    MaterializeStaged();
    return erase_journal_;
  }

  /// True if replaying the insert journal from position 0 and applying
  /// the erase journal reproduces the full contents (no clear / copy /
  /// compaction lost history).
  bool journal_complete() const { return journal_complete_; }

 private:
  /// Next value of the process-wide epoch counter.
  static uint64_t NextEpoch();

  /// Drops both journals and the graveyard under a fresh epoch when
  /// sustained churn makes the history larger than the live contents are
  /// worth. Deterministic: depends only on container sizes.
  void MaybeCompact();

  int arity_;
  /// Mutable with `journal_` and `staged_`: lazy materialization of
  /// staged rows is logically non-mutating (the contents were already
  /// part of the relation), it only changes their physical home.
  mutable TupleSet tuples_;
  mutable std::vector<const Tuple*> journal_;
  std::vector<EraseEvent> erase_journal_;
  /// Extracted nodes of erased tuples; keeps journal pointers alive until
  /// the next epoch change.
  std::vector<TupleSet::node_type> graveyard_;
  /// Staged flat rows, row-major, `arity_` values per row.
  mutable std::vector<Value> staged_;
  uint64_t epoch_;
  bool journal_complete_ = true;
};

}  // namespace datalog

#endif  // UNCHAINED_RA_RELATION_H_
