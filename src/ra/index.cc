#include "ra/index.h"

#include <algorithm>

#include "obs/trace.h"

namespace datalog {

namespace {

/// The bound-column projection of `t` under `mask`, reusing `scratch`.
void ProjectKey(const Tuple& t, uint32_t mask, Tuple* scratch) {
  scratch->clear();
  for (size_t c = 0; c < t.size(); ++c) {
    if (mask & (1u << c)) scratch->push_back(t[c]);
  }
}

}  // namespace

void IndexManager::Append(const Relation& rel, uint32_t mask, Index* index) {
  const std::vector<const Tuple*>& journal = rel.journal();
  const std::vector<Relation::EraseEvent>& erases = rel.erase_journal();
  Tuple key;
  size_t ins = index->journal_pos;
  auto insert_up_to = [&](size_t limit) {
    for (; ins < limit; ++ins) {
      const Tuple* t = journal[ins];
      ProjectKey(*t, mask, &key);
      index->buckets[key].push_back(t);
    }
  };
  // Replay in event order: an erase whose tuple was inserted in the same
  // unconsumed tail must see that insert land first, or the
  // pointer-identity removal below would miss it.
  for (size_t e = index->erase_pos; e < erases.size(); ++e) {
    const Relation::EraseEvent& ev = erases[e];
    insert_up_to(std::min(std::max(ev.ins_pos, ins), journal.size()));
    ProjectKey(*ev.tuple, mask, &key);
    auto bit = index->buckets.find(key);
    if (bit != index->buckets.end()) {
      Bucket& bucket = bit->second;
      auto pos = std::find(bucket.begin(), bucket.end(), ev.tuple);
      if (pos != bucket.end()) bucket.erase(pos);
      if (bucket.empty()) index->buckets.erase(bit);
    }
  }
  insert_up_to(journal.size());
  counters_.appended +=
      static_cast<int64_t>(journal.size() - index->journal_pos);
  counters_.removed += static_cast<int64_t>(erases.size() - index->erase_pos);
  index->journal_pos = journal.size();
  index->erase_pos = erases.size();
}

void IndexManager::Rebuild(const Relation& rel, uint32_t mask, Index* index) {
  index->buckets.clear();
  Tuple key;
  for (const Tuple& t : rel) {
    ProjectKey(t, mask, &key);
    index->buckets[key].push_back(&t);
  }
  index->epoch = rel.epoch();
  index->journal_pos = rel.journal().size();
  index->erase_pos = rel.erase_journal().size();
}

const IndexManager::Bucket* IndexManager::Lookup(const Instance& db,
                                                 PredId pred, uint32_t mask,
                                                 const Tuple& key) {
  const Relation& rel = db.Rel(pred);
  auto [it, created] = indexes_.try_emplace(std::make_pair(pred, mask));
  Index& index = it->second;
  // Spans cover only the maintenance paths; the hit path is far too hot
  // to trace per lookup (it is counted, not spanned).
  if (created) {
    ++counters_.builds;
    OBS_SPAN("index.build", {{"pred", pred}, {"mask", mask}});
    Rebuild(rel, mask, &index);
  } else if (index.epoch != rel.epoch()) {
    // History-losing mutation (or a different instance supplied the
    // relation): the incremental view is unprovable — rebuild.
    ++counters_.rebuilds;
    OBS_SPAN("index.rebuild", {{"pred", pred}, {"mask", mask}});
    Rebuild(rel, mask, &index);
  } else if (index.journal_pos != rel.journal().size() ||
             index.erase_pos != rel.erase_journal().size()) {
    OBS_SPAN("index.append", {{"pred", pred}, {"mask", mask}});
    Append(rel, mask, &index);
  } else {
    ++counters_.hits;
  }
  auto bit = index.buckets.find(key);
  return bit == index.buckets.end() ? nullptr : &bit->second;
}

}  // namespace datalog
