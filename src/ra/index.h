#ifndef UNCHAINED_RA_INDEX_H_
#define UNCHAINED_RA_INDEX_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "ra/instance.h"
#include "ra/relation.h"
#include "ra/tuple.h"

namespace datalog {

/// Persistent hash indexes over the relations of an evaluation's database,
/// keyed by (predicate, bitmask of bound column positions); buckets map the
/// bound-column values to the matching tuples.
///
/// Unlike the per-round caches the engines used to rebuild from scratch,
/// an IndexManager lives for a whole evaluation (it is owned by the
/// EvalContext) and maintains its indexes *incrementally*: each index
/// remembers the relation epoch and the insert/erase journal positions it
/// has consumed, and a lookup first replays any events since — appending
/// inserted tuples and removing erased ones in their true interleaved
/// order — O(new events), not O(relation). History-losing mutations
/// (clear, instance swaps, journal compaction — anything that changes the
/// relation's epoch) are detected by the epoch check and trigger a full
/// rebuild of that index, which is the correctness fallback for the
/// non-inflationary engines.
///
/// Bucket tuple pointers stay valid because `Relation`'s journal pointers
/// are node-stable for the lifetime of an epoch (erased nodes are parked
/// in the relation's graveyard); an epoch change discards them before
/// they can dangle.
class IndexManager {
 public:
  using Bucket = std::vector<const Tuple*>;

  /// Maintenance counters, surfaced through EvalStats.
  struct Counters {
    /// Lookups served by an index that was already up to date.
    int64_t hits = 0;
    /// First-time builds of a (pred, mask) index.
    int64_t builds = 0;
    /// Full rebuilds forced by an epoch change (history-losing mutation).
    int64_t rebuilds = 0;
    /// Tuples appended incrementally from relation insert journals.
    int64_t appended = 0;
    /// Tuples removed incrementally from relation erase journals.
    int64_t removed = 0;
  };

  IndexManager() = default;
  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Returns the tuples of `db.Rel(pred)` whose columns selected by `mask`
  /// (bit i = column i bound) equal `key` (the bound values, in column
  /// order), bringing the index up to date first. Returns nullptr for an
  /// empty bucket.
  const Bucket* Lookup(const Instance& db, PredId pred, uint32_t mask,
                       const Tuple& key);

  /// Drops every index (used by tests; evaluation contexts simply let the
  /// manager go out of scope).
  void Clear() { indexes_.clear(); }

  const Counters& counters() const { return counters_; }

 private:
  struct Index {
    std::unordered_map<Tuple, Bucket, TupleHash> buckets;
    /// Epoch of the relation contents the index reflects.
    uint64_t epoch = 0;
    /// Insert-journal entries consumed so far within that epoch.
    size_t journal_pos = 0;
    /// Erase-journal entries consumed so far within that epoch.
    size_t erase_pos = 0;
  };

  /// Replays insert-journal entries [index->journal_pos, journal.size())
  /// and erase-journal entries [index->erase_pos, erases.size()) of
  /// `rel`, merged in event order.
  void Append(const Relation& rel, uint32_t mask, Index* index);
  /// Rebuilds `index` from the full contents of `rel`.
  void Rebuild(const Relation& rel, uint32_t mask, Index* index);

  std::map<std::pair<PredId, uint32_t>, Index> indexes_;
  Counters counters_;
};

}  // namespace datalog

#endif  // UNCHAINED_RA_INDEX_H_
