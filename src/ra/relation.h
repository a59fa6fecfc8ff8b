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
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts `t` (whose size must equal `arity()`); returns true if the
  /// tuple was not already present.
  bool Insert(const Tuple& t);
  bool Insert(Tuple&& t);

  /// Removes `t`; returns true if it was present. The epoch survives: the
  /// erase is recorded in `erase_journal()` so incremental consumers can
  /// remove exactly this tuple instead of rebuilding.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const { return tuples_.count(t) > 0; }

  /// Inserts every tuple of `other` (same arity); returns the number of
  /// tuples that were new.
  size_t UnionWith(const Relation& other);

  void Clear();

  const_iterator begin() const { return tuples_.begin(); }
  const_iterator end() const { return tuples_.end(); }

  /// Tuples in lexicographic order — canonical form for printing, hashing
  /// and equality-sensitive tests.
  std::vector<Tuple> Sorted() const;

  /// Set equality (arity and contents).
  bool operator==(const Relation& other) const {
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
  const std::vector<const Tuple*>& journal() const { return journal_; }

  /// Tuples erased during the current epoch, in erase order; see
  /// `EraseEvent` for the interleaving contract.
  const std::vector<EraseEvent>& erase_journal() const {
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
  TupleSet tuples_;
  std::vector<const Tuple*> journal_;
  std::vector<EraseEvent> erase_journal_;
  /// Extracted nodes of erased tuples; keeps journal pointers alive until
  /// the next epoch change.
  std::vector<TupleSet::node_type> graveyard_;
  uint64_t epoch_;
  bool journal_complete_ = true;
};

}  // namespace datalog

#endif  // UNCHAINED_RA_RELATION_H_
