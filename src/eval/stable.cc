#include "eval/stable.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "eval/naive.h"
#include "eval/wellfounded.h"
#include "obs/trace.h"

namespace datalog {

namespace {

/// Folds one candidate's finalized sub-context stats into the search's:
/// every scalar counter adds up, but the search's rounds are those of its
/// well-founded bracket, not of the Gelfond–Lifschitz checks.
void MergeCandidate(const EvalStats& candidate, EvalStats* search) {
  const int rounds = search->rounds;
  search->MergeFrom(candidate);
  search->rounds = rounds;
}

}  // namespace

Result<StableModelsResult> StableModels(const Program& program,
                                        const Instance& input,
                                        const EvalOptions& options,
                                        int64_t max_candidates,
                                        EvalContext* ctx) {
  EvalContext local_ctx(options);
  if (ctx == nullptr) ctx = &local_ctx;
  OBS_SPAN("stable.eval");
  // Bracket the search with the well-founded model.
  Result<WellFoundedModel> wf = WellFoundedSemantics(program, input, ctx);
  if (!wf.ok()) return wf.status();

  // The unknown atoms, listed per predicate.
  std::vector<std::pair<PredId, Tuple>> unknown;
  for (PredId p : program.idb_preds) {
    for (const Tuple& t : wf->possible_facts.Rel(p)) {
      if (!wf->true_facts.Contains(p, t)) unknown.emplace_back(p, t);
    }
  }

  StableModelsResult out;
  out.unknown_atoms = static_cast<int64_t>(unknown.size());
  if (unknown.size() < 63 &&
      (int64_t{1} << unknown.size()) > max_candidates) {
    return Status::BudgetExhausted(
        "stable-model search needs 2^" + std::to_string(unknown.size()) +
        " candidates, above max_candidates = " +
        std::to_string(max_candidates));
  }
  if (unknown.size() >= 63) {
    return Status::BudgetExhausted(
        "stable-model search space too large: " +
        std::to_string(unknown.size()) + " unknown atoms");
  }

  const uint64_t combinations = uint64_t{1} << unknown.size();

  // Candidate M = well-founded true facts + selected unknowns.
  auto build_candidate = [&](uint64_t mask) {
    Instance candidate = wf->true_facts;
    for (size_t i = 0; i < unknown.size(); ++i) {
      if (mask & (uint64_t{1} << i)) {
        candidate.Insert(unknown[i].first, unknown[i].second);
      }
    }
    return candidate;
  };

  ThreadPool* pool = ctx->pool();
  if (pool != nullptr) {
    // Fan the Gelfond–Lifschitz checks over the pool: candidates are
    // independent, so each worker evaluates its masks with a private
    // sub-context and stages the verdict plus the finalized stats. The
    // merge below walks masks in ascending order and folds each
    // candidate's stats exactly as the sequential loop does, so models,
    // every counter, and the stop-at-first-error behaviour are
    // byte-identical to it.
    std::vector<uint8_t> stable(combinations, 0);
    std::vector<EvalStats> cand_stats(combinations);
    std::mutex failures_mu;
    std::map<uint64_t, Status> failures;
    EvalOptions cand_options = ctx->options;
    cand_options.provenance = nullptr;
    const size_t chunk = std::max<size_t>(
        1, static_cast<size_t>(combinations) /
               (static_cast<size_t>(pool->num_workers()) * 8));
    // The workers copy `wf->true_facts` and read `input` concurrently;
    // fold any staged columnar rows on this thread first — lazy
    // materialization must not race (see Relation::MaterializeStaged).
    wf->true_facts.MaterializeStaged();
    input.MaterializeStaged();
    pool->ParallelFor(
        static_cast<size_t>(combinations), chunk,
        [&](size_t begin, size_t end, int /*worker*/) {
          for (size_t m = begin; m < end; ++m) {
            const uint64_t mask = static_cast<uint64_t>(m);
            OBS_SPAN("stable.candidate",
                     {{"mask", static_cast<int64_t>(mask)}});
            Instance candidate = build_candidate(mask);
            EvalContext cand_ctx(cand_options);
            // The merge below folds this sub-context into `ctx` —
            // publishing it separately would double-count every event.
            cand_ctx.publish_metrics = false;
            // Sub-evaluations share the run's absolute deadline rather
            // than restarting the clock per candidate.
            cand_ctx.InheritDeadline(*ctx);
            Result<Instance> reduct_lfp =
                NaiveLeastFixpoint(program, input, &candidate, &cand_ctx);
            if (!reduct_lfp.ok()) {
              std::lock_guard<std::mutex> lock(failures_mu);
              failures.emplace(mask, reduct_lfp.status());
              continue;
            }
            cand_ctx.Finalize();
            cand_stats[m] = std::move(cand_ctx.stats);
            if (*reduct_lfp == candidate) stable[m] = 1;
          }
        },
        ctx->StopProbe());
    // An interrupt may have skipped whole candidates, so the staged
    // verdicts are not trustworthy — report the interruption instead.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->Finalize();
      return interrupted;
    }
    for (uint64_t mask = 0; mask < combinations; ++mask) {
      ++out.candidates_checked;
      auto fit = failures.find(mask);
      if (fit != failures.end()) return fit->second;
      MergeCandidate(cand_stats[mask], &ctx->stats);
      if (stable[mask]) out.models.push_back(build_candidate(mask));
    }
    return out;
  }

  for (uint64_t mask = 0; mask < combinations; ++mask) {
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->Finalize();
      return interrupted;
    }
    ++out.candidates_checked;
    OBS_SPAN("stable.candidate", {{"mask", static_cast<int64_t>(mask)}});
    Instance candidate = build_candidate(mask);
    // Gelfond–Lifschitz check: S(M) == M, where S evaluates the positive
    // part to a least fixpoint with negations fixed against M. Each
    // candidate gets a fresh sub-context (indexes over one candidate are
    // useless for the next); only its scalar counters are kept.
    EvalContext cand_ctx(options);
    cand_ctx.provenance = nullptr;
    cand_ctx.InheritDeadline(*ctx);
    // MergeFrom folds this sub-context into `ctx` — publishing it
    // separately would double-count every event.
    cand_ctx.publish_metrics = false;
    Result<Instance> reduct_lfp =
        NaiveLeastFixpoint(program, input, &candidate, &cand_ctx);
    if (!reduct_lfp.ok()) return reduct_lfp.status();
    cand_ctx.Finalize();
    MergeCandidate(cand_ctx.stats, &ctx->stats);
    if (*reduct_lfp == candidate) {
      out.models.push_back(std::move(candidate));
    }
  }
  return out;
}

}  // namespace datalog
