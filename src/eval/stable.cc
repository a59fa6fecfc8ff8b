#include "eval/stable.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "eval/naive.h"
#include "eval/wellfounded.h"
#include "obs/trace.h"

namespace datalog {

namespace {

/// Folds candidate stats into the search's: every scalar counter adds up,
/// but the search's rounds are those of its well-founded bracket, not of
/// the Gelfond–Lifschitz checks.
void MergeCandidate(const EvalStats& candidate, EvalStats* search) {
  const int rounds = search->rounds;
  search->MergeFrom(candidate);
  search->rounds = rounds;
}

/// What the checks of one chunk of consecutive masks found, up to the
/// chunk's first failure.
struct ChunkResult {
  /// The sum of the checked candidates' finalized stats.
  EvalStats stats;
  /// The stable candidates, in mask order.
  std::vector<Instance> models;
  Status failure;
};

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

  // The Gelfond–Lifschitz checks are independent: chunks of consecutive
  // masks run on up to num_threads workers, and the chunks fold in mask
  // order below, so the models, every deterministic counter and the
  // stop-at-first-failure behaviour are the same at any thread count.
  // Each worker gets at least kCandidatesPerWorker candidates: below
  // that, starting a thread costs more than the checks it would take
  // over (BENCH_parallel_baseline.json), so a small search stays on the
  // calling thread.
  int threads = ctx->options.num_threads;
  if (threads <= 0) {
    threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  const uint64_t chunk_size = std::max<uint64_t>(
      1, combinations / (static_cast<uint64_t>(threads) * 8));
  std::vector<ChunkResult> chunks(
      static_cast<size_t>((combinations + chunk_size - 1) / chunk_size));
  constexpr uint64_t kCandidatesPerWorker = 16;
  const int workers = static_cast<int>(std::min<uint64_t>(
      {static_cast<uint64_t>(threads), static_cast<uint64_t>(chunks.size()),
       (combinations + kCandidatesPerWorker - 1) / kCandidatesPerWorker}));
  EvalOptions cand_options = ctx->options;
  cand_options.provenance = nullptr;
  std::vector<WorkerActivity> activity =
      ParallelChunks(workers, chunks.size(), [&](size_t c) {
        ChunkResult& chunk = chunks[c];
        const uint64_t end = std::min(combinations, (c + 1) * chunk_size);
        for (uint64_t mask = c * chunk_size; mask < end; ++mask) {
          chunk.failure = ctx->CheckInterrupt();
          if (!chunk.failure.ok()) return;
          OBS_SPAN("stable.candidate", {{"mask", static_cast<int64_t>(mask)}});
          Instance candidate = build_candidate(mask);
          // Gelfond–Lifschitz check: S(M) == M, where S evaluates the
          // positive part to a least fixpoint with negations fixed
          // against M. Each candidate gets a fresh sub-context (indexes
          // over one candidate are useless for the next).
          EvalContext cand_ctx(cand_options);
          // The fold below merges this sub-context into `ctx` —
          // publishing it separately would double-count every event.
          cand_ctx.publish_metrics = false;
          // Sub-evaluations share the run's absolute deadline rather than
          // restarting the clock per candidate.
          cand_ctx.InheritDeadline(*ctx);
          Result<Instance> reduct_lfp =
              NaiveLeastFixpoint(program, input, &candidate, &cand_ctx);
          if (!reduct_lfp.ok()) {
            chunk.failure = reduct_lfp.status();
            return;
          }
          cand_ctx.Finalize();
          chunk.stats.MergeFrom(cand_ctx.stats);
          if (*reduct_lfp == candidate) {
            chunk.models.push_back(std::move(candidate));
          }
        }
      });
  if (workers > 1) ctx->stats.per_worker = std::move(activity);
  // An interrupt may have cut any chunk short, so report it rather than
  // a partial search.
  if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
    ctx->Finalize();
    return interrupted;
  }
  for (ChunkResult& chunk : chunks) {
    MergeCandidate(chunk.stats, &ctx->stats);
    if (!chunk.failure.ok()) return chunk.failure;
    for (Instance& model : chunk.models) out.models.push_back(std::move(model));
  }
  out.candidates_checked = static_cast<int64_t>(combinations);
  return out;
}

}  // namespace datalog
