#include "eval/nondet.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "eval/grounder.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {

Instance Move::ApplyTo(const Instance& state) const {
  Instance next = state;
  for (const auto& [p, t] : deletes) next.Erase(p, t);
  for (const auto& [p, t] : inserts) next.Insert(p, t);
  return next;
}

namespace {

/// Order-independent fingerprint of a move's effect, for deduplication.
uint64_t MoveFingerprint(const Move& move) {
  TupleHash th;
  uint64_t h = 0;
  auto mix = [&th](PredId p, const Tuple& t, uint64_t salt) {
    uint64_t x = th(t) + salt + 0x9e3779b97f4a7c15ull * (p + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return x;
  };
  for (const auto& [p, t] : move.inserts) h ^= mix(p, t, 0x1111);
  for (const auto& [p, t] : move.deletes) h ^= mix(p, t, 0x7777);
  return h;
}

bool SameMove(const Move& a, const Move& b) {
  auto sorted = [](std::vector<std::pair<PredId, Tuple>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  return sorted(a.inserts) == sorted(b.inserts) &&
         sorted(a.deletes) == sorted(b.deletes);
}

}  // namespace

NondetEvaluator::NondetEvaluator(const Program* program,
                                 const Catalog* catalog)
    : program_(program), catalog_(catalog) {
  bottom_pred_ = catalog->Find("bottom");
  bool mentions_bottom = false;
  for (const Rule& rule : program->rules) {
    if (!rule.InventionVars().empty()) has_invention_ = true;
    for (const Literal& head : rule.heads) {
      if (head.kind == Literal::Kind::kBottom) mentions_bottom = true;
    }
  }
  if (!mentions_bottom) bottom_pred_ = -1;
}

std::vector<Move> NondetEvaluator::Moves(const Instance& state,
                                         SymbolTable* symbols, bool invent,
                                         EvalContext* ctx) const {
  EvalContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  ctx->stats.EnsureRuleSlots(program_->rules.size());
  std::vector<Move> moves;
  std::unordered_map<uint64_t, std::vector<size_t>> dedup;
  DbView view{&state, &state};
  const std::vector<Value>& adom = ctx->Adom(*program_, state);

  for (size_t ri = 0; ri < program_->rules.size(); ++ri) {
    const Rule& rule = program_->rules[ri];
    RuleMatcher matcher(&rule);
    std::vector<int> inv = rule.InventionVars();
    matcher.ForEachMatch(view, adom, &ctx->index,
                         [&](const Valuation& val) -> bool {
      ctx->stats.CountMatch(ri, /*produced=*/false);
      Valuation full = val;
      if (!inv.empty()) {
        if (!invent) return true;  // invention disabled: skip this rule
        for (int v : inv) full[v] = symbols->Invent();
      }
      Move move;
      bool consistent = true;
      for (const Literal& head : rule.heads) {
        Tuple t = head.kind == Literal::Kind::kBottom
                      ? Tuple{}
                      : InstantiateAtom(head.atom, full);
        PredId p = head.atom.pred;
        if (head.negative) {
          move.deletes.emplace_back(p, std::move(t));
        } else {
          move.inserts.emplace_back(p, std::move(t));
        }
      }
      // Definition 5.1(ii): the head must be consistent — skip
      // instantiations inferring both A and ¬A.
      for (const auto& ins : move.inserts) {
        for (const auto& del : move.deletes) {
          if (ins == del) {
            consistent = false;
            break;
          }
        }
        if (!consistent) break;
      }
      if (!consistent) return true;
      // Keep only state-changing moves (self-loop successors J' == I are
      // irrelevant both for runs and for terminality, Definition 5.2(ii)).
      bool changes = false;
      for (const auto& [p, t] : move.inserts) {
        if (!state.Contains(p, t)) {
          changes = true;
          break;
        }
      }
      if (!changes) {
        for (const auto& [p, t] : move.deletes) {
          if (state.Contains(p, t)) {
            changes = true;
            break;
          }
        }
      }
      if (!changes) return true;
      uint64_t h = MoveFingerprint(move);
      auto& bucket = dedup[h];
      for (size_t idx : bucket) {
        if (SameMove(moves[idx], move)) return true;
      }
      bucket.push_back(moves.size());
      moves.push_back(std::move(move));
      // "Produced" here means a distinct state-changing move.
      ++ctx->stats.per_rule[ri].tuples_produced;
      return true;
    });
  }
  return moves;
}

Result<Instance> NondetEvaluator::RunOnce(const Instance& input, uint64_t seed,
                                          SymbolTable* symbols,
                                          const NondetOptions& options) const {
  if (has_invention_ && !options.allow_invention) {
    return Status::Unsupported(
        "program invents values; enable options.allow_invention");
  }
  Rng rng(seed);
  EvalContext ctx(options.eval);
  OBS_SPAN("nondet.run");
  Instance state = input;
  const bool invent = options.allow_invention && has_invention_;
  // A step is one applied move; the last, moveless stage does not count.
  const StageLoop loop{"nondet.step", "step",
                       "nondeterministic run exceeded " +
                           std::to_string(options.eval.max_rounds) + " steps",
                       "nondeterministic run exceeded facts"};
  Status status = RunStages(&ctx, loop, state, [&]() -> Result<bool> {
    std::vector<Move> moves = Moves(state, symbols, invent, &ctx);
    if (moves.empty()) return false;
    ++ctx.stats.rounds;
    state = moves[rng.Uniform(moves.size())].ApplyTo(state);
    if (bottom_pred_ >= 0 && state.Contains(bottom_pred_, Tuple{})) {
      return Status::Abandoned("computation derived ⊥ at step " +
                               std::to_string(ctx.stats.rounds));
    }
    return true;
  });
  last_stats_ = ctx.stats;
  if (!status.ok()) return status;
  return state;
}

Result<EffectSet> NondetEvaluator::Enumerate(
    const Instance& input, const NondetOptions& options) const {
  if (has_invention_) {
    return Status::Unsupported(
        "cannot enumerate eff(P) for an invention program: the state space "
        "is infinite; use RunOnce with seeds");
  }
  EffectSet out;

  StateSet states;
  EvalContext ctx(options.eval);
  OBS_SPAN("nondet.enumerate");
  std::vector<size_t> stack;
  states.Insert(input);
  stack.push_back(0);
  while (!stack.empty()) {
    if (Status interrupted = ctx.CheckInterrupt(); !interrupted.ok()) {
      ctx.Finalize();
      last_stats_ = ctx.stats;
      return interrupted;
    }
    size_t idx = stack.back();
    stack.pop_back();
    const Instance state = states[idx];  // copy: `states` may reallocate
    if (bottom_pred_ >= 0 && state.Contains(bottom_pred_, Tuple{})) {
      // ⊥ can never be retracted in N-Datalog¬⊥, so every computation
      // through this state is abandoned.
      ++out.abandoned_branches;
      continue;
    }
    ctx.StartRound();
    std::vector<Move> moves = Moves(state, /*symbols=*/nullptr,
                                    /*invent=*/false, &ctx);
    ctx.FinishRound();
    ++ctx.stats.rounds;
    if (moves.empty()) {
      out.images.push_back(state);
      continue;
    }
    for (const Move& move : moves) {
      Instance next = move.ApplyTo(state);
      auto [next_idx, fresh] = states.Insert(next);
      if (fresh) {
        if (static_cast<int64_t>(states.size()) > options.max_states) {
          ctx.Finalize();
          last_stats_ = ctx.stats;
          return Status::BudgetExhausted(
              "effect enumeration exceeded max_states = " +
              std::to_string(options.max_states));
        }
        stack.push_back(next_idx);
      }
    }
  }
  out.states_explored = states.size();
  ctx.Finalize();
  last_stats_ = ctx.stats;
  return out;
}

PossCert ComputePossCert(const EffectSet& effects, const Catalog& catalog) {
  Instance poss(&catalog);
  Instance cert(&catalog);
  if (effects.images.empty()) return PossCert(std::move(poss), std::move(cert));
  cert = effects.images[0];
  for (const Instance& image : effects.images) {
    poss.UnionWith(image);
  }
  for (size_t i = 1; i < effects.images.size(); ++i) {
    // Intersect cert with each image.
    Instance next(&catalog);
    for (PredId p = 0; p < catalog.size(); ++p) {
      const Relation& a = cert.Rel(p);
      const Relation& b = effects.images[i].Rel(p);
      if (a.empty() || b.empty()) continue;
      Relation* dst = nullptr;
      for (const Tuple& t : a) {
        if (b.Contains(t)) {
          if (dst == nullptr) dst = next.MutableRel(p);
          dst->Insert(t);
        }
      }
    }
    cert = std::move(next);
  }
  PossCert result(std::move(poss), std::move(cert));
  result.image_count = effects.images.size();
  return result;
}

}  // namespace datalog
