#include "active/eca.h"

#include <map>
#include <string>
#include <vector>

#include "eval/context.h"
#include "eval/grounder.h"
#include "eval/noninflationary.h"
#include "eval/stage.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// True if `pred`'s name carries a delta prefix; sets `*base_name` and
/// whether the prefix is `ins_`.
bool IsDeltaPred(const Catalog& catalog, PredId pred, std::string* base_name,
                 bool* is_insertion) {
  const std::string& name = catalog.NameOf(pred);
  *is_insertion = name.starts_with("ins_");
  if (!*is_insertion && !name.starts_with("del_")) return false;
  *base_name = name.substr(4);
  return true;
}

}  // namespace

Result<ActiveResult> RunActiveRules(const Program& program, Catalog* catalog,
                                    const Instance& db,
                                    const Instance& insertions,
                                    const Instance& deletions,
                                    const ActiveOptions& options) {
  // The delta predicate of each (base predicate, insertion?) pair the
  // rules read, declaring bases that only occur under a delta prefix.
  std::map<std::pair<PredId, bool>, PredId> delta_of;
  std::vector<RuleMatcher> matchers;
  for (const Rule& rule : program.rules) {
    for (const Literal& head : rule.heads) {
      if (head.kind != Literal::Kind::kRelational) {
        return Status::Unsupported("active rules use Datalog¬¬ heads");
      }
      std::string base;
      bool is_ins;
      if (IsDeltaPred(*catalog, head.atom.pred, &base, &is_ins)) {
        return Status::InvalidProgram(
            "rule head writes delta predicate '" +
            catalog->NameOf(head.atom.pred) +
            "'; deltas are maintained by the engine");
      }
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported("∀-rules are not part of active rules");
    }
    matchers.emplace_back(&rule);
  }
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kRelational) continue;
      std::string base;
      bool is_ins;
      if (!IsDeltaPred(*catalog, lit.atom.pred, &base, &is_ins)) continue;
      Result<PredId> base_pred =
          catalog->Declare(base, catalog->ArityOf(lit.atom.pred));
      if (!base_pred.ok()) return base_pred.status();
      delta_of.emplace(std::make_pair(*base_pred, is_ins), lit.atom.pred);
    }
  }

  ActiveResult result(db);
  Instance& state = result.instance;

  // Apply the external update; its effective changes seed the deltas.
  auto clear_deltas = [&](Instance* s) {
    for (const auto& entry : delta_of) s->MutableRel(entry.second)->Clear();
  };
  auto set_delta = [&](Instance* s, PredId base_pred, bool is_ins,
                       const Tuple& t) {
    auto it = delta_of.find({base_pred, is_ins});
    if (it != delta_of.end()) s->Insert(it->second, t);
  };

  clear_deltas(&state);
  for (PredId p = 0; p < catalog->size(); ++p) {
    for (const Tuple& t : insertions.Rel(p)) {
      if (state.Insert(p, t)) set_delta(&state, p, /*is_ins=*/true, t);
    }
  }
  for (PredId p = 0; p < catalog->size(); ++p) {
    for (const Tuple& t : deletions.Rel(p)) {
      if (state.Erase(p, t)) set_delta(&state, p, /*is_ins=*/false, t);
    }
  }

  // Cycle detection over full states (user + delta relations).
  StateSet seen;
  if (options.detect_cycles) seen.Insert(state);

  EvalContext ctx(options.eval);
  OBS_SPAN("eca.eval");
  ctx.stats.EnsureRuleSlots(program.rules.size());
  const std::vector<MatchUnit> units = WholeRuleUnits(matchers.size());
  const StageLoop loop{"eca.stage", "stage",
                       "active rules exceeded stage budget",
                       "active rules exceeded fact budget"};
  Status status = RunStages(&ctx, loop, state, [&]() -> Result<bool> {
    // Parallel firing against the frozen state. The state is replaced
    // each round, so the caches rebuild via the epoch check.
    Instance inserts(catalog);
    Instance deletes(catalog);
    FireStage(
        program, matchers, units, DbView{&state, &state}, &ctx,
        [&](const MatchUnit& unit, const Valuation& val, Firing* out) {
          for (const Literal& head : matchers[unit.matcher].rule().heads) {
            out->Fire(head.atom.pred, InstantiateAtom(head.atom, val),
                      head.negative);
          }
          return false;
        },
        &inserts, &deletes);

    // Apply with positive priority; the effective changes are the next
    // stage's deltas.
    Instance next = state;
    clear_deltas(&next);
    bool changed = false;
    DATALOG_RETURN_IF_ERROR(ApplySigned(
        inserts, deletes, ConflictPolicy::kPositiveWins, &next,
        [&](PredId p, const Tuple& t, bool inserted) {
          set_delta(&next, p, inserted, t);
          changed = true;
        }));
    if (!changed) {
      // Quiescent: no user-predicate changes. Clear any leftover deltas in
      // the result.
      clear_deltas(&state);
      return false;
    }
    ++result.stages;
    ++ctx.stats.rounds;
    state = std::move(next);
    if (options.detect_cycles) {
      auto [prev, added] = seen.Insert(state);
      if (!added) {
        return Status::NonTerminating(
            "active rules revisit the state of stage " +
            std::to_string(prev) + " (cycle length " +
            std::to_string(seen.size() - prev) + ")");
      }
    }
    return true;
  });
  if (!status.ok()) return status;
  result.stats = ctx.stats;
  return result;
}

}  // namespace datalog
