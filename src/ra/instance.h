#ifndef UNCHAINED_RA_INSTANCE_H_
#define UNCHAINED_RA_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/symbols.h"
#include "ra/catalog.h"
#include "ra/relation.h"
#include "ra/storage/row_set.h"

namespace datalog {

/// One relation's slice of the snapshot format (Instance::
/// SerializeSnapshot): `u32 pred | u32 arity | u32 count | rows`, rows in
/// Tuple order (signed, lexicographic), values as little-endian 32-bit
/// words.
/// Immutable once built, so published server snapshots share the chunk of
/// every relation a commit did not touch (docs/server.md).
using SnapshotChunk = std::shared_ptr<const std::string>;

/// A snapshot manifest: chunks indexed by PredId, null for an empty
/// relation.
using SnapshotChunks = std::vector<SnapshotChunk>;

/// A database instance over a `Catalog` (Section 2): a mapping from each
/// relation symbol to a finite relation of the declared arity. Relations
/// are materialized lazily; an absent relation is the empty one.
///
/// Instances are value types (copyable) — the nondeterministic engines and
/// the Datalog¬¬ cycle detector snapshot and compare them freely.
class Instance {
 public:
  /// `catalog` must outlive the instance.
  explicit Instance(const Catalog* catalog) : catalog_(catalog) {}

  const Catalog& catalog() const { return *catalog_; }

  /// Read access; returns a shared empty relation if `p` has no tuples.
  const Relation& Rel(PredId p) const;

  /// Mutable access; materializes an empty relation on first touch.
  Relation* MutableRel(PredId p);

  bool Contains(PredId p, const Tuple& t) const { return Rel(p).Contains(t); }

  /// Inserts a fact; returns true if new.
  bool Insert(PredId p, const Tuple& t) { return MutableRel(p)->Insert(t); }

  /// Removes a fact; returns true if it was present.
  bool Erase(PredId p, const Tuple& t);

  /// Adds every fact of `other` (same catalog); returns #new facts.
  size_t UnionWith(const Instance& other);

  /// Total number of facts.
  size_t TotalFacts() const;

  /// The set of domain values occurring in any fact — adom(I).
  std::set<Value> ActiveDomain() const;

  /// Read-only view of the materialized relations, for incremental caches
  /// (IndexManager, AdomCache) that track per-predicate epochs/journals.
  /// Absent predicates are empty; relations are never un-materialized.
  const std::unordered_map<PredId, Relation>& relations() const {
    return relations_;
  }

  /// Deep equality over all (possibly lazily absent) relations.
  bool operator==(const Instance& other) const;
  bool operator!=(const Instance& other) const { return !(*this == other); }

  /// True if every fact of this instance is in `other`.
  bool SubsetOf(const Instance& other) const;

  /// Order-independent 64-bit fingerprint of the full contents. Equal
  /// instances have equal fingerprints; collisions are possible, so cycle
  /// detectors confirm with `operator==`.
  uint64_t Fingerprint() const;

  /// Canonical human-readable listing: facts sorted per predicate, e.g.
  ///   "g(a, b). g(b, c). t(a, b)." — used by tests and examples.
  std::string ToString(const SymbolTable& symbols) const;

  /// Copy containing only the relations in `preds` — used to project the
  /// answer/idb part of an evaluation result.
  Instance Restrict(const std::vector<PredId>& preds) const;

  // -- Checkpointing -----------------------------------------------------

  /// Serializes the full contents into a compact byte snapshot: a
  /// `u32 magic | u32 #relations` header, then one SnapshotChunk per
  /// non-empty relation, predicates ascending. Deterministic — equal
  /// instances produce identical bytes — so snapshot sizes
  /// (dist.checkpoint_bytes) and golden tests are reproducible. This is
  /// the checkpoint half of the crash/recovery story in
  /// docs/distribution.md.
  std::string SerializeSnapshot() const;

  /// The chunk of every non-empty relation, sized to the catalog;
  /// AssembleSnapshot of the result equals SerializeSnapshot().
  SnapshotChunks EncodeSnapshotChunks() const;

  /// Replaces the contents with the snapshot's, dropping everything the
  /// instance currently holds (rebuilt relations take fresh epochs, so
  /// incremental caches over this instance fall back to a full rebuild).
  /// The catalog must declare every predicate in the snapshot with a
  /// matching arity. On a corrupt snapshot, returns an error and leaves
  /// the instance empty.
  Status RestoreSnapshot(const std::string& snapshot);

 private:
  const Catalog* catalog_;
  std::unordered_map<PredId, Relation> relations_;
};

/// Applies a per-predicate net delta to `chunks`: every fact of `removed`
/// is in the encoded relation, no fact of `added` is, and the two are
/// disjoint — exactly IncrementalView's batch delta. Only the touched
/// relations are re-encoded, each in one linear copy-and-splice pass over
/// its old chunk; a relation left empty drops its chunk. Returns how many
/// chunks were re-encoded.
int MergeSnapshotDelta(const storage::FactSet& added,
                       const storage::FactSet& removed,
                       SnapshotChunks* chunks);

/// A snapshot in the SerializeSnapshot format built from `chunks` in
/// order, skipping nulls: the header plus the chunks' concatenation. A
/// one-element span gives a single predicate's body.
std::string AssembleSnapshot(std::span<const SnapshotChunk> chunks);

}  // namespace datalog

#endif  // UNCHAINED_RA_INSTANCE_H_
