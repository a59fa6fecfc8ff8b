#include "eval/context.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>

#include "obs/metrics.h"

namespace datalog {

namespace {

/// Registry handles for the evaluation-level metrics (one registration
/// for the process lifetime). These are the fold of EvalStats into the
/// metrics registry: `eval.*` and `index.*` mirror the deterministic
/// counters, `threadpool.*` the stable-model search's per-worker
/// telemetry, and `eval.round_us` the per-round latency distribution.
struct EvalMetrics {
  obs::CounterHandle runs{"eval.runs"};
  obs::CounterHandle rounds{"eval.rounds"};
  obs::CounterHandle facts_derived{"eval.facts_derived"};
  obs::CounterHandle instantiations{"eval.instantiations"};
  obs::CounterHandle index_hits{"index.hits"};
  obs::CounterHandle index_builds{"index.builds"};
  obs::CounterHandle index_rebuilds{"index.rebuilds"};
  obs::CounterHandle index_appended{"index.appended"};
  obs::CounterHandle index_removed{"index.removed"};
  obs::CounterHandle pool_chunks{"threadpool.chunks"};
  obs::CounterHandle pool_busy_us{"threadpool.busy_us"};
  obs::HistogramHandle round_us{"eval.round_us"};
};

EvalMetrics& Metrics() {
  static EvalMetrics metrics;
  return metrics;
}

}  // namespace

EvalContext::EvalContext() : start_(Clock::now()), deadline_start_(start_) {}

EvalContext::EvalContext(const EvalOptions& opts)
    : options(opts),
      provenance(opts.provenance),
      start_(Clock::now()),
      deadline_start_(start_) {}

EvalContext::~EvalContext() { PublishMetrics(); }

void EvalContext::PublishMetrics() {
  if (!publish_metrics || !obs::MetricsRegistry::Get().enabled()) return;
  // Fold in anything an early (e.g. budget-exhausted) exit left behind.
  Finalize();
  // A context that was constructed but never evaluated through (such as
  // the unused local fallback some engines keep) publishes nothing.
  if (stats.rounds == 0 && stats.facts_derived == 0 &&
      stats.instantiations == 0 && stats.round_ms.empty() &&
      stats.index_hits == 0 && stats.index_builds == 0 &&
      stats.index_rebuilds == 0 && stats.index_appended == 0) {
    return;
  }
  EvalMetrics& m = Metrics();
  m.runs.Add(1);
  m.rounds.Add(stats.rounds);
  m.facts_derived.Add(stats.facts_derived);
  m.instantiations.Add(stats.instantiations);
  m.index_hits.Add(stats.index_hits);
  m.index_builds.Add(stats.index_builds);
  m.index_rebuilds.Add(stats.index_rebuilds);
  m.index_appended.Add(stats.index_appended);
  m.index_removed.Add(stats.index_removed);
  for (const WorkerActivity& w : stats.per_worker) {
    m.pool_chunks.Add(w.chunks);
    m.pool_busy_us.Add(static_cast<int64_t>(w.busy_ms * 1000.0));
  }
  for (double ms : stats.round_ms) {
    m.round_us.Observe(static_cast<int64_t>(ms * 1000.0));
  }
}

void EvalContext::Finalize() {
  stats.total_ms = ElapsedMs(start_);
  const IndexManager::Counters& c = index.counters();
  const IndexManager::Counters& fc = folded_index_;
  stats.index_hits += c.hits - fc.hits;
  stats.index_builds += c.builds - fc.builds;
  stats.index_rebuilds += c.rebuilds - fc.rebuilds;
  stats.index_appended += c.appended - fc.appended;
  stats.index_removed += c.removed - fc.removed;
  folded_index_ = c;
}

void AdomCache::Recompute(const Program& program, const Instance& instance) {
  std::set<Value> dom = instance.ActiveDomain();
  dom.insert(program.constants.begin(), program.constants.end());
  adom_.assign(dom.begin(), dom.end());
  rel_states_.clear();
  for (const auto& [pred, rel] : instance.relations()) {
    rel_states_[pred] = RelState{rel.epoch(), rel.journal().size(),
                                 rel.erase_journal().size()};
  }
  program_ = &program;
  instance_ = &instance;
}

void AdomCache::MergeValues(std::vector<Value>* fresh) {
  if (fresh->empty()) return;
  std::sort(fresh->begin(), fresh->end());
  fresh->erase(std::unique(fresh->begin(), fresh->end()), fresh->end());
  const std::ptrdiff_t old_size = std::ssize(adom_);
  for (Value v : *fresh) {
    if (!std::binary_search(adom_.begin(), adom_.begin() + old_size, v)) {
      adom_.push_back(v);
    }
  }
  if (std::ssize(adom_) != old_size) {
    std::inplace_merge(adom_.begin(), adom_.begin() + old_size, adom_.end());
  }
}

const std::vector<Value>& AdomCache::Get(const Program& program,
                                         const Instance& instance) {
  if (program_ != &program || instance_ != &instance) {
    Recompute(program, instance);
    return adom_;
  }
  // Walk the relations: if every previously seen relation is in the same
  // epoch and recorded no erase since, the instance has only grown and
  // the journal tails are exactly the new values. An epoch change or an
  // erase on a seen relation may have removed values — the active domain
  // can shrink, so recompute. A newly materialized relation is safe to
  // consume from journal position 0 only if its journal covers all its
  // tuples and nothing was erased. A tracked relation that vanished (a
  // different instance reusing the same address) also forces a recompute,
  // caught by counting matches.
  const size_t tracked_before = rel_states_.size();
  size_t matched = 0;
  std::vector<Value> fresh;
  for (const auto& [pred, rel] : instance.relations()) {
    auto it = rel_states_.find(pred);
    if (it == rel_states_.end()) {
      if (!rel.journal_complete() || !rel.erase_journal().empty()) {
        Recompute(program, instance);
        return adom_;
      }
      it = rel_states_.emplace(pred, RelState{rel.epoch(), 0, 0}).first;
    } else if (it->second.epoch != rel.epoch() ||
               it->second.erase_pos != rel.erase_journal().size()) {
      Recompute(program, instance);
      return adom_;
    } else {
      ++matched;
    }
    const std::vector<const Tuple*>& journal = rel.journal();
    for (size_t i = it->second.journal_pos; i < journal.size(); ++i) {
      fresh.insert(fresh.end(), journal[i]->begin(), journal[i]->end());
    }
    it->second.journal_pos = journal.size();
  }
  if (matched != tracked_before) {
    Recompute(program, instance);
    return adom_;
  }
  MergeValues(&fresh);
  return adom_;
}

}  // namespace datalog
