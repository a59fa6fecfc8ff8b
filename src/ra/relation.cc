#include "ra/relation.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

namespace datalog {

uint64_t Relation::NextEpoch() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      tuples_(other.tuples_),
      epoch_(NextEpoch()),
      journal_complete_(tuples_.empty()) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = other.tuples_;
  journal_.clear();
  erase_journal_.clear();
  graveyard_.clear();
  epoch_ = NextEpoch();
  journal_complete_ = tuples_.empty();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      tuples_(std::move(other.tuples_)),
      journal_(std::move(other.journal_)),
      erase_journal_(std::move(other.erase_journal_)),
      graveyard_(std::move(other.graveyard_)),
      epoch_(other.epoch_),
      journal_complete_(other.journal_complete_) {
  // Leave the source empty with a fresh monotone phase of its own, so any
  // cache still keyed on it rebuilds rather than reading stolen nodes.
  other.tuples_.clear();
  other.journal_.clear();
  other.erase_journal_.clear();
  other.graveyard_.clear();
  other.epoch_ = NextEpoch();
  other.journal_complete_ = true;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = std::move(other.tuples_);
  journal_ = std::move(other.journal_);
  erase_journal_ = std::move(other.erase_journal_);
  graveyard_ = std::move(other.graveyard_);
  epoch_ = other.epoch_;
  journal_complete_ = other.journal_complete_;
  other.tuples_.clear();
  other.journal_.clear();
  other.erase_journal_.clear();
  other.graveyard_.clear();
  other.epoch_ = NextEpoch();
  other.journal_complete_ = true;
  return *this;
}

bool Relation::Insert(const Tuple& t) {
  assert(static_cast<int>(t.size()) == arity_);
  auto [it, inserted] = tuples_.insert(t);
  if (inserted) journal_.push_back(&*it);
  return inserted;
}

bool Relation::Insert(Tuple&& t) {
  assert(static_cast<int>(t.size()) == arity_);
  auto [it, inserted] = tuples_.insert(std::move(t));
  if (inserted) journal_.push_back(&*it);
  return inserted;
}

bool Relation::Erase(const Tuple& t) {
  auto it = tuples_.find(t);
  if (it == tuples_.end()) return false;
  // Extract the node rather than erasing it: the tuple's address must
  // stay valid for every pointer already handed out through journal() —
  // and for the erase event itself — until the next epoch change.
  graveyard_.push_back(tuples_.extract(it));
  erase_journal_.push_back(
      EraseEvent{&graveyard_.back().value(), journal_.size()});
  MaybeCompact();
  return true;
}

void Relation::MaybeCompact() {
  // Churn bound: once the replay log outweighs the live contents 4:1
  // (plus slack so small relations never compact), start a fresh epoch.
  // Consumers see the epoch change and rebuild from the set.
  if (journal_.size() + erase_journal_.size() <= 4 * tuples_.size() + 64) {
    return;
  }
  journal_.clear();
  erase_journal_.clear();
  graveyard_.clear();
  epoch_ = NextEpoch();
  journal_complete_ = tuples_.empty();
}

void Relation::Clear() {
  if (tuples_.empty()) return;
  tuples_.clear();
  journal_.clear();
  erase_journal_.clear();
  graveyard_.clear();
  epoch_ = NextEpoch();
  journal_complete_ = true;  // empty contents, empty journal: consistent
}

size_t Relation::UnionWith(const Relation& other) {
  assert(arity_ == other.arity_);
  size_t added = 0;
  for (const Tuple& t : other.tuples_) {
    auto [it, inserted] = tuples_.insert(t);
    if (inserted) {
      journal_.push_back(&*it);
      ++added;
    }
  }
  return added;
}

std::vector<Tuple> Relation::Sorted() const {
  std::vector<Tuple> out(tuples_.begin(), tuples_.end());
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Relation::ContentHash() const {
  // Summing (mod 2^64) keeps the fingerprint order-independent over the
  // unordered set without XOR's cancellation: under XOR, any multiset in
  // which every tuple hash appears an even number of times — e.g. two
  // colliding pairs split across different relations — fingerprints to
  // the seed. Sums only collide when the hash totals coincide.
  uint64_t h =
      uint64_t{0x9e3779b97f4a7c15} * static_cast<uint64_t>(arity_ + 1);
  TupleHash th;
  for (const Tuple& t : tuples_) {
    // Mix each tuple hash before adding to spread single-bit differences.
    uint64_t x = th(t);
    x ^= x >> 33;
    x *= uint64_t{0xff51afd7ed558ccd};
    x ^= x >> 33;
    h += x;
  }
  return h;
}

}  // namespace datalog
