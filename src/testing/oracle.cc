#include "testing/oracle.h"

#include <stdlib.h>
#include <unistd.h>

#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/magic.h"
#include "base/rng.h"
#include "core/engine.h"
#include "dist/convergence.h"
#include "eval/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/session.h"
#include "store/fault.h"
#include "store/recover.h"
#include "store/snapshotter.h"
#include "store/store.h"
#include "store/wal.h"
#include "testing/translate.h"
#include "while/while_lang.h"

namespace datalog {
namespace fuzz {
namespace {

/// One parsed case: engine + program + database, the unit every pair
/// evaluates in. Parse or validation failures mark the pair inapplicable —
/// the shrinker feeds syntactically broken candidates on purpose and they
/// must read as "not failing".
struct ParsedCase {
  Engine engine;
  std::optional<Program> program;
  std::optional<Instance> db;

  bool Init(const std::string& program_text, const std::string& facts_text) {
    Result<Program> p = engine.Parse(program_text);
    if (!p.ok()) return false;
    program.emplace(std::move(p).value());
    db.emplace(engine.NewInstance());
    return engine.AddFacts(facts_text, &*db).ok();
  }

  bool ValidDialect(Dialect dialect) const {
    return engine.Validate(*program, dialect).ok();
  }
};

std::string Truncate(std::string s, size_t limit = 600) {
  if (s.size() > limit) {
    s.resize(limit);
    s += " ...";
  }
  return s;
}

/// "lhs and rhs differ" diagnostic over canonical instance listings.
std::string DescribeDiff(const char* lhs_name, const Instance& lhs,
                         const char* rhs_name, const Instance& rhs,
                         const SymbolTable& symbols) {
  return std::string(lhs_name) + ":\n  " + Truncate(lhs.ToString(symbols)) +
         "\n" + rhs_name + ":\n  " + Truncate(rhs.ToString(symbols));
}

std::string DescribeRelDiff(const char* lhs_name, const Relation& lhs,
                            const char* rhs_name, const Relation& rhs,
                            const std::string& pred_name,
                            const SymbolTable& symbols) {
  auto render = [&](const Relation& rel) {
    std::string out;
    for (const Tuple& t : rel.Sorted()) {
      out += pred_name + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        out += symbols.NameOf(t[i]);
      }
      out += ") ";
    }
    return Truncate(std::move(out));
  };
  return std::string(lhs_name) + " " + pred_name + ": " + render(lhs) +
         "\n" + rhs_name + " " + pred_name + ": " + render(rhs);
}

bool SameDeterministicStats(const EvalStats& a, const EvalStats& b,
                            std::string* detail) {
  if (a.rounds != b.rounds || a.facts_derived != b.facts_derived ||
      a.instantiations != b.instantiations) {
    *detail = "scalar stats diverge: rounds " + std::to_string(a.rounds) +
              " vs " + std::to_string(b.rounds) + ", facts " +
              std::to_string(a.facts_derived) + " vs " +
              std::to_string(b.facts_derived) + ", instantiations " +
              std::to_string(a.instantiations) + " vs " +
              std::to_string(b.instantiations);
    return false;
  }
  if (a.per_rule.size() != b.per_rule.size()) {
    *detail = "per-rule stats sized " + std::to_string(a.per_rule.size()) +
              " vs " + std::to_string(b.per_rule.size());
    return false;
  }
  for (size_t i = 0; i < a.per_rule.size(); ++i) {
    if (a.per_rule[i].matches != b.per_rule[i].matches ||
        a.per_rule[i].tuples_produced != b.per_rule[i].tuples_produced) {
      *detail = "per-rule stats diverge at rule " + std::to_string(i);
      return false;
    }
  }
  return true;
}

OracleVerdict Inapplicable() { return OracleVerdict{}; }

OracleVerdict Agreed() {
  OracleVerdict v;
  v.applicable = true;
  return v;
}

OracleVerdict Disagreed(std::string detail) {
  OracleVerdict v;
  v.applicable = true;
  v.agreed = false;
  v.detail = std::move(detail);
  return v;
}

// ---- kNaiveVsSemiNaive --------------------------------------------------

OracleVerdict RunNaiveVsSemiNaive(ParsedCase* c) {
  if (!c->ValidDialect(Dialect::kDatalog)) return Inapplicable();
  Result<Instance> naive = c->engine.MinimumModelNaive(*c->program, *c->db);
  Result<Instance> seminaive = c->engine.MinimumModel(*c->program, *c->db);
  if (!naive.ok()) return Disagreed("naive: " + naive.status().ToString());
  if (!seminaive.ok()) {
    return Disagreed("semi-naive: " + seminaive.status().ToString());
  }
  if (*naive != *seminaive) {
    return Disagreed(DescribeDiff("naive", *naive, "semi-naive", *seminaive,
                                  c->engine.symbols()));
  }
  return Agreed();
}

// ---- kMagicVsOriginal ---------------------------------------------------

OracleVerdict RunMagicVsOriginal(ParsedCase* c, uint64_t salt) {
  if (!c->ValidDialect(Dialect::kDatalog)) return Inapplicable();
  Result<Instance> full = c->engine.MinimumModel(*c->program, *c->db);
  if (!full.ok()) return Disagreed("full: " + full.status().ToString());

  // Bound values are drawn from the case's own domain so roughly half the
  // adorned queries are nonempty.
  std::set<Value> domain = c->db->ActiveDomain();
  domain.insert(c->program->constants.begin(), c->program->constants.end());
  std::vector<Value> values(domain.begin(), domain.end());
  if (values.empty()) values.push_back(c->engine.symbols().InternInt(0));

  Rng rng(salt);
  for (PredId q : c->program->idb_preds) {
    const int arity = c->engine.catalog().ArityOf(q);
    MagicQuery query;
    query.query_pred = q;
    for (int a = 0; a < arity; ++a) {
      const bool bound = rng.Chance(0.5);
      query.adornment += bound ? 'b' : 'f';
      if (bound) {
        query.bound_values.push_back(values[rng.Uniform(values.size())]);
      }
    }
    Result<MagicRewrite> rewrite =
        MagicSetRewrite(*c->program, query, &c->engine.catalog());
    if (!rewrite.ok()) {
      return Disagreed("rewrite: " + rewrite.status().ToString());
    }
    Instance input = *c->db;
    input.UnionWith(rewrite->seed);

    // Oracle answer: the full model filtered by the bound columns.
    Relation expected(arity);
    for (const Tuple& t : full->Rel(q)) {
      bool match = true;
      size_t bi = 0;
      for (int a = 0; a < arity; ++a) {
        if (query.adornment[static_cast<size_t>(a)] == 'b' &&
            t[static_cast<size_t>(a)] != query.bound_values[bi++]) {
          match = false;
          break;
        }
      }
      if (match) expected.Insert(t);
    }

    // The rewritten program must agree under both evaluation algorithms.
    const std::string label = c->engine.catalog().NameOf(q) + "^" +
                              query.adornment;
    Result<Instance> magic_sn =
        c->engine.MinimumModel(rewrite->program, input);
    if (!magic_sn.ok()) {
      return Disagreed("magic/semi-naive " + label + ": " +
                       magic_sn.status().ToString());
    }
    if (magic_sn->Rel(rewrite->query_pred) != expected) {
      return Disagreed(
          "magic/semi-naive query " + label + "\n" +
          DescribeRelDiff("magic", magic_sn->Rel(rewrite->query_pred),
                          "filtered-full", expected, label,
                          c->engine.symbols()));
    }
    Result<Instance> magic_naive =
        c->engine.MinimumModelNaive(rewrite->program, input);
    if (!magic_naive.ok()) {
      return Disagreed("magic/naive " + label + ": " +
                       magic_naive.status().ToString());
    }
    if (magic_naive->Rel(rewrite->query_pred) != expected) {
      return Disagreed(
          "magic/naive query " + label + "\n" +
          DescribeRelDiff("magic", magic_naive->Rel(rewrite->query_pred),
                          "filtered-full", expected, label,
                          c->engine.symbols()));
    }
  }
  return Agreed();
}

// ---- kInflationaryVsWhile -----------------------------------------------

OracleVerdict RunInflationaryVsWhile(ParsedCase* c) {
  if (!c->ValidDialect(Dialect::kSemiPositive)) return Inapplicable();
  Result<InflationaryResult> infl = c->engine.Inflationary(*c->program, *c->db);
  if (!infl.ok()) {
    return Disagreed("inflationary: " + infl.status().ToString());
  }
  Result<WhileProgram> wprog =
      DatalogToWhile(*c->program, c->engine.catalog());
  if (!wprog.ok()) {
    return Disagreed("translation: " + wprog.status().ToString());
  }
  Result<Instance> wres = RunWhile(*wprog, *c->db, WhileOptions{});
  if (!wres.ok()) return Disagreed("while: " + wres.status().ToString());
  Instance infl_idb = infl->instance.Restrict(c->program->idb_preds);
  Instance while_idb = wres->Restrict(c->program->idb_preds);
  if (infl_idb != while_idb) {
    return Disagreed(DescribeDiff("inflationary", infl_idb, "while",
                                  while_idb, c->engine.symbols()));
  }
  return Agreed();
}

// ---- kWellFoundedVsStratified -------------------------------------------

OracleVerdict RunWellFoundedVsStratified(ParsedCase* c) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  Result<Instance> strat = c->engine.Stratified(*c->program, *c->db);
  if (!strat.ok()) {
    return Disagreed("stratified: " + strat.status().ToString());
  }
  Result<WellFoundedModel> wf = c->engine.WellFounded(*c->program, *c->db);
  if (!wf.ok()) {
    return Disagreed("well-founded: " + wf.status().ToString());
  }
  if (!wf->IsTotal()) {
    return Disagreed(
        "well-founded model of a stratified program is not total:\n" +
        DescribeDiff("true", wf->true_facts, "possible", wf->possible_facts,
                     c->engine.symbols()));
  }
  if (wf->true_facts != *strat) {
    return Disagreed(DescribeDiff("well-founded", wf->true_facts,
                                  "stratified", *strat,
                                  c->engine.symbols()));
  }
  return Agreed();
}

// ---- kSequentialVsParallel ----------------------------------------------

OracleVerdict RunSequentialVsParallel(ParsedCase* c,
                                      const std::vector<int>& thread_counts) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  c->engine.options().num_threads = 1;
  EvalStats seq_stats;
  Result<Instance> seq = c->engine.Stratified(*c->program, *c->db, &seq_stats);
  if (!seq.ok()) {
    return Disagreed("sequential: " + seq.status().ToString());
  }
  Result<InflationaryResult> seq_infl =
      c->engine.Inflationary(*c->program, *c->db);
  if (!seq_infl.ok()) {
    return Disagreed("sequential inflationary: " +
                     seq_infl.status().ToString());
  }
  for (int t : thread_counts) {
    c->engine.options().num_threads = t;
    const std::string label = "t=" + std::to_string(t);
    EvalStats par_stats;
    Result<Instance> par =
        c->engine.Stratified(*c->program, *c->db, &par_stats);
    if (!par.ok()) {
      return Disagreed(label + ": " + par.status().ToString());
    }
    if (*par != *seq) {
      return Disagreed(label + " stratified result diverges\n" +
                       DescribeDiff("sequential", *seq, label.c_str(), *par,
                                    c->engine.symbols()));
    }
    std::string stats_detail;
    if (!SameDeterministicStats(seq_stats, par_stats, &stats_detail)) {
      return Disagreed(label + " stratified " + stats_detail);
    }
    Result<InflationaryResult> par_infl =
        c->engine.Inflationary(*c->program, *c->db);
    if (!par_infl.ok()) {
      return Disagreed(label + " inflationary: " +
                       par_infl.status().ToString());
    }
    if (par_infl->instance != seq_infl->instance ||
        par_infl->stages != seq_infl->stages) {
      return Disagreed(label + " inflationary result diverges\n" +
                       DescribeDiff("sequential", seq_infl->instance,
                                    label.c_str(), par_infl->instance,
                                    c->engine.symbols()));
    }
    if (!SameDeterministicStats(seq_infl->stats, par_infl->stats,
                                &stats_detail)) {
      return Disagreed(label + " inflationary " + stats_detail);
    }
  }
  return Agreed();
}

// ---- kTraceOnVsTraceOff -------------------------------------------------

/// Scope guard turning the process-wide tracer and metrics registry on
/// for one comparison, restoring the previous metrics gate (a --metrics
/// sweep may have it on) and disabling the tracer on exit — a
/// disagreement must not leave a tracing session open for later cases.
class ObsSession {
 public:
  ObsSession() : metrics_was_enabled_(obs::MetricsRegistry::Get().enabled()) {
    obs::Tracer::Get().Enable(/*events_per_thread=*/size_t{1} << 12);
    obs::MetricsRegistry::Get().SetEnabled(true);
  }
  ~ObsSession() {
    obs::MetricsRegistry::Get().SetEnabled(metrics_was_enabled_);
    obs::Tracer::Get().Disable();
  }

 private:
  const bool metrics_was_enabled_;
};

OracleVerdict RunTraceOnVsTraceOff(ParsedCase* c) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  EvalStats off_stats;
  Result<Instance> off = c->engine.Stratified(*c->program, *c->db, &off_stats);
  if (!off.ok()) return Disagreed("trace-off: " + off.status().ToString());

  EvalStats on_stats;
  std::optional<Result<Instance>> on;
  {
    ObsSession session;
    on.emplace(c->engine.Stratified(*c->program, *c->db, &on_stats));
  }
  if (!on->ok()) return Disagreed("trace-on: " + on->status().ToString());
  if (**on != *off) {
    return Disagreed("tracing changed the stratified model\n" +
                     DescribeDiff("trace-off", *off, "trace-on", **on,
                                  c->engine.symbols()));
  }
  std::string stats_detail;
  if (!SameDeterministicStats(off_stats, on_stats, &stats_detail)) {
    return Disagreed("trace-on " + stats_detail);
  }
  return Agreed();
}

// ---- kReliableVsFaultyPeers ---------------------------------------------

/// The three fault schedules every case runs against, in addition to the
/// reliable baseline: (0) lossy/chaotic link, (1) a partition that heals,
/// (2) a crash with checkpoint recovery under residual loss. Fixed shapes
/// so failures reproduce from (case, salt) alone; the salt seeds the
/// transports' Rngs through ConvergenceOptions.
std::vector<FaultSpec> FaultyPeerSchedules() {
  std::vector<FaultSpec> schedules(3);
  FaultSchedule& chaos = schedules[0].faults;
  chaos.drop = 0.25;
  chaos.duplicate = 0.2;
  chaos.reorder = 0.5;
  chaos.delay = 0.3;
  chaos.max_delay_rounds = 2;
  FaultSchedule& split = schedules[1].faults;
  split.drop = 0.15;
  split.partitions.push_back(NetworkPartition{2, 6, {0}});
  FaultSchedule& crash = schedules[2].faults;
  crash.drop = 0.1;
  crash.duplicate = 0.1;
  schedules[2].crashes.events.push_back(CrashEvent{1, 2, 2});
  return schedules;
}

OracleVerdict RunReliableVsFaultyPeers(ParsedCase* c,
                                       const std::string& program_text,
                                       const std::string& facts_text,
                                       uint64_t salt) {
  // CALM restricts the oracle to the monotone (positive) dialect: with
  // negation in bodies the asynchronous fixpoint depends on delivery
  // timing even between two *reliable* runs.
  if (!c->ValidDialect(Dialect::kDatalog)) return Inapplicable();

  // Three peers in a gossip ring, each running the generated program
  // locally and forwarding every predicate it holds to the next peer; all
  // initial facts live at the first peer. Every peer therefore converges
  // to the same instance, and every fact crosses the (faulty) network.
  const Catalog& catalog = c->engine.catalog();
  const char* names[3] = {"pa", "pb", "pc"};
  std::vector<PredId> preds = c->program->edb_preds;
  preds.insert(preds.end(), c->program->idb_preds.begin(),
               c->program->idb_preds.end());
  std::vector<PeerSpec> specs(3);
  for (int i = 0; i < 3; ++i) {
    std::string forward;
    for (PredId p : preds) {
      const std::string& name = catalog.NameOf(p);
      const int arity = catalog.ArityOf(p);
      // Nullary predicates cannot be written as atoms, and predicates
      // already using the location convention would nest ambiguously.
      if (arity == 0) continue;
      if (name.rfind("at_", 0) == 0) return Inapplicable();
      std::string args;
      for (int a = 0; a < arity; ++a) {
        if (a > 0) args += ", ";
        args += "X" + std::to_string(a);
      }
      forward += "at_" + std::string(names[(i + 1) % 3]) + "_" + name + "(" +
                 args + ") :- " + name + "(" + args + ").\n";
    }
    specs[static_cast<size_t>(i)] =
        PeerSpec{names[i], program_text + forward, i == 0 ? facts_text : ""};
  }

  ConvergenceOptions options;
  // Faulty runs take many more rounds than the reliable baseline (backoff,
  // partitions, crash recovery) but the ring is tiny; this budget is far
  // beyond anything a converging run needs, so hitting it is a bug.
  options.eval.max_rounds = 10'000;
  options.schedules = FaultyPeerSchedules();
  options.seed = salt;
  options.checkpoint_every_rounds = 2;

  Result<ConvergenceReport> report = CheckConvergence(specs, options);
  if (!report.ok()) {
    return Disagreed("convergence run failed: " + report.status().ToString());
  }
  if (!report->converged) return Disagreed(report->divergence);
  return Agreed();
}

// ---- kIncrementalVsScratch ----------------------------------------------

/// Parses the `%~` update-batch lines out of a facts text: one batch per
/// line, one `+pred(v,...)` / `-pred(v,...)` token per update, integer
/// arguments only (the generator's value domain). Token parsing is shared
/// with the server's session scripts (server::ParseUpdateTokens). Returns
/// false on any malformed token or unknown/wrong-arity predicate — the
/// pair then reads as inapplicable, which is what the shrinker's blind
/// line edits need.
bool ParseUpdateBatches(const std::string& facts_text, Engine* engine,
                        std::vector<std::vector<FactUpdate>>* batches) {
  size_t pos = 0;
  while (pos < facts_text.size()) {
    size_t eol = facts_text.find('\n', pos);
    if (eol == std::string::npos) eol = facts_text.size();
    std::string_view line(facts_text.data() + pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.substr(0, 2) != "%~") continue;
    line.remove_prefix(2);
    std::vector<FactUpdate> batch;
    if (!server::ParseUpdateTokens(line, engine->catalog(),
                                   &engine->symbols(), &batch)) {
      return false;
    }
    if (!batch.empty()) batches->push_back(std::move(batch));
  }
  return true;
}

bool SameMaintenanceStats(const IncrementalView::Stats& a,
                          const IncrementalView::Stats& b,
                          std::string* detail) {
  auto diff = [&](const char* name, int64_t x, int64_t y) {
    if (x == y) return false;
    *detail = std::string("maintenance counter ") + name + " diverges: " +
              std::to_string(x) + " vs " + std::to_string(y);
    return true;
  };
  if (diff("batches", a.batches, b.batches) ||
      diff("inserts", a.inserts, b.inserts) ||
      diff("retracts", a.retracts, b.retracts) ||
      diff("noops", a.noops, b.noops) ||
      diff("counting_strata", a.counting_strata, b.counting_strata) ||
      diff("dred_strata", a.dred_strata, b.dred_strata) ||
      diff("recounted", a.recounted, b.recounted) ||
      diff("instantiations", a.instantiations, b.instantiations) ||
      diff("overdeleted", a.overdeleted, b.overdeleted) ||
      diff("rederived_base", a.rederived_base, b.rederived_base) ||
      diff("rederived_provenance", a.rederived_provenance,
           b.rederived_provenance) ||
      diff("rederived_query", a.rederived_query, b.rederived_query) ||
      diff("facts_added", a.facts_added, b.facts_added) ||
      diff("facts_removed", a.facts_removed, b.facts_removed)) {
    return false;
  }
  return true;
}

OracleVerdict RunIncrementalVsScratch(ParsedCase* c,
                                      const std::string& facts_text) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  std::vector<std::vector<FactUpdate>> batches;
  if (!ParseUpdateBatches(facts_text, &c->engine, &batches) ||
      batches.empty()) {
    return Inapplicable();
  }

  Result<std::unique_ptr<IncrementalView>> view = IncrementalView::Create(
      *c->program, c->engine.catalog(), *c->db, c->engine.options());
  if (!view.ok()) {
    // The incremental fragment is narrower than the stratified dialect
    // (no ∀-rules, adom-free safety); refusal is not a disagreement.
    if (view.status().code() == StatusCode::kUnsupported ||
        view.status().code() == StatusCode::kNotStratifiable) {
      return Inapplicable();
    }
    return Disagreed("incremental create: " + view.status().ToString());
  }

  // The initial from-scratch evaluation inside the view (sequential,
  // provenance-recording) must match a plain stratified run under the
  // sweep's thread configuration, stats included.
  EvalStats initial_stats;
  Result<Instance> initial =
      c->engine.Stratified(*c->program, *c->db, &initial_stats);
  if (!initial.ok()) {
    return Disagreed("scratch initial: " + initial.status().ToString());
  }
  if ((*view)->model().SerializeSnapshot() != initial->SerializeSnapshot()) {
    return Disagreed("initial model diverges\n" +
                     DescribeDiff("incremental", (*view)->model(), "scratch",
                                  *initial, c->engine.symbols()));
  }
  std::string stats_detail;
  if (!SameDeterministicStats((*view)->initial_stats(), initial_stats,
                              &stats_detail)) {
    return Disagreed("initial " + stats_detail);
  }

  // Replay every batch on the view and mirror it into a scratch base; the
  // maintained model must be byte-identical to a from-scratch stratified
  // run on the mirrored base after each batch.
  Instance base = *c->db;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const std::string label = "batch " + std::to_string(bi);
    if (Status st = (*view)->ApplyBatch(batches[bi]); !st.ok()) {
      return Disagreed(label + " apply: " + st.ToString());
    }
    for (const FactUpdate& u : batches[bi]) {
      if (u.insert) {
        base.Insert(u.pred, u.tuple);
      } else {
        base.Erase(u.pred, u.tuple);
      }
    }
    if ((*view)->base().SerializeSnapshot() != base.SerializeSnapshot()) {
      return Disagreed(label + " maintained base diverges\n" +
                       DescribeDiff("incremental", (*view)->base(), "mirror",
                                    base, c->engine.symbols()));
    }
    Result<Instance> fresh = c->engine.Stratified(*c->program, base);
    if (!fresh.ok()) {
      return Disagreed(label + " scratch: " + fresh.status().ToString());
    }
    if ((*view)->model().SerializeSnapshot() != fresh->SerializeSnapshot()) {
      return Disagreed(label + " maintained model diverges\n" +
                       DescribeDiff("incremental", (*view)->model(),
                                    "scratch", *fresh, c->engine.symbols()));
    }
  }

  // Determinism of the maintenance itself: a second view fed the same
  // update sequence must land on the same bytes and the same counters.
  Result<std::unique_ptr<IncrementalView>> replay = IncrementalView::Create(
      *c->program, c->engine.catalog(), *c->db, c->engine.options());
  if (!replay.ok()) {
    return Disagreed("replay create: " + replay.status().ToString());
  }
  for (const std::vector<FactUpdate>& batch : batches) {
    if (Status st = (*replay)->ApplyBatch(batch); !st.ok()) {
      return Disagreed("replay apply: " + st.ToString());
    }
  }
  if ((*replay)->model().SerializeSnapshot() !=
      (*view)->model().SerializeSnapshot()) {
    return Disagreed("replayed maintenance model diverges\n" +
                     DescribeDiff("first", (*view)->model(), "replay",
                                  (*replay)->model(), c->engine.symbols()));
  }
  if (!SameMaintenanceStats((*view)->stats(), (*replay)->stats(),
                            &stats_detail)) {
    return Disagreed("replay " + stats_detail);
  }
  return Agreed();
}

// ---- kServerVsLibrary ---------------------------------------------------

/// One virtual-clock run of the case's session script against a fresh
/// Server. Create-refusals surface as !created (inapplicable upstream
/// when the fragment is the reason). The server itself stays alive in
/// `server` — pair #11 reads its DurableStore after the run, pair #10
/// just lets it drop.
struct ServerRunOutcome {
  bool created = false;
  Status create_status;
  std::unique_ptr<server::Server> server;
  server::ScheduleRun run;
};

ServerRunOutcome RunServerSchedule(
    ParsedCase* c, const std::vector<server::SessionOp>& ops, uint64_t salt,
    const store::StoreOptions* durability = nullptr) {
  ServerRunOutcome outcome;
  server::ServerOptions options;
  options.eval = c->engine.options();
  if (durability != nullptr) options.durability = *durability;
  Result<std::unique_ptr<server::Server>> srv = server::Server::Create(
      *c->program, &c->engine.catalog(), &c->engine.symbols(), *c->db,
      options);
  if (!srv.ok()) {
    outcome.create_status = srv.status();
    return outcome;
  }
  outcome.created = true;
  outcome.server = std::move(*srv);
  server::SchedulerOptions sched;
  sched.seed = salt;
  // A seeded fraction of reads arrives pre-cancelled, so every fuzzed
  // schedule also exercises the refuse-without-leaking-a-pin path.
  sched.cancel_prob = 0.15;
  outcome.run = server::RunSessions(outcome.server.get(), ops, sched);
  return outcome;
}

OracleVerdict RunServerVsLibrary(ParsedCase* c, const std::string& facts_text,
                                 uint64_t salt) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  std::vector<server::SessionOp> ops;
  if (!server::ParseSessionScript(facts_text, &ops) || ops.empty()) {
    return Inapplicable();
  }

  ServerRunOutcome first = RunServerSchedule(c, ops, salt);
  if (!first.created) {
    // Same fragment gate as pair #9: the server wraps an IncrementalView.
    if (first.create_status.code() == StatusCode::kUnsupported ||
        first.create_status.code() == StatusCode::kNotStratifiable) {
      return Inapplicable();
    }
    return Disagreed("server create: " + first.create_status.ToString());
  }
  const server::ScheduleRun& run = first.run;
  if (!run.ok) return Disagreed("schedule: " + run.error);

  // 1. Sequential library replay of the commit log: one model copy per
  // epoch. Epoch e's published bytes must match the replay after the
  // first e batches — the torn-read check.
  Result<std::unique_ptr<IncrementalView>> view = IncrementalView::Create(
      *c->program, c->engine.catalog(), *c->db, c->engine.options());
  if (!view.ok()) {
    return Disagreed("library create: " + view.status().ToString());
  }
  std::vector<Instance> models;
  models.push_back((*view)->model());
  for (size_t i = 0; i < run.commits.size(); ++i) {
    if (run.commits[i].epoch != static_cast<int64_t>(i) + 1) {
      return Disagreed("commit log epoch " +
                       std::to_string(run.commits[i].epoch) +
                       " at position " + std::to_string(i));
    }
    if (Status st = (*view)->ApplyBatch(run.commits[i].batch); !st.ok()) {
      return Disagreed("library replay apply: " + st.ToString());
    }
    models.push_back((*view)->model());
  }
  if (run.epoch_bytes.size() != models.size()) {
    return Disagreed("server published " +
                     std::to_string(run.epoch_bytes.size()) +
                     " epochs but committed " +
                     std::to_string(run.commits.size()) + " batches");
  }
  for (size_t e = 0; e < models.size(); ++e) {
    if (models[e].SerializeSnapshot() != run.epoch_bytes[e]) {
      return Disagreed(
          "epoch " + std::to_string(e) +
          " published snapshot diverges from the sequential replay "
          "(torn read?)\nlibrary at epoch " + std::to_string(e) + ":\n  " +
          Truncate(models[e].ToString(c->engine.symbols())));
    }
  }

  // 2. Per-response checks: status discipline, payload bytes against the
  // replay model at the served epoch, monotone epochs per session (with
  // read-your-writes via the blocking update semantics).
  std::map<int, int64_t> last_epoch;
  for (const server::ScheduledEvent& ev : run.events) {
    const server::SessionOp& op = ops[ev.op_index];
    const std::string where = "session " + std::to_string(ev.session) +
                              " op " + std::to_string(ev.op_index) + " (" +
                              server::FormatSessionOp(op) + ")";
    if (ev.cancelled_injected) {
      if (ev.response.status != StatusCode::kCancelled) {
        return Disagreed(where + ": pre-cancelled read returned status " +
                         std::to_string(static_cast<int>(
                             ev.response.status)));
      }
      continue;
    }
    if (ev.response.status != StatusCode::kOk) {
      // Two refusals are legitimate, and both must be kSchemaError:
      // querying a predicate the program never mentions (the catalog has
      // no entry for it), and submitting an update batch the library-side
      // parser rejects too (unknown predicate or wrong arity). Anything
      // else — or a refusal of a request the library accepts — is a
      // disagreement.
      if (ev.response.status == StatusCode::kSchemaError) {
        if (op.kind == server::SessionOp::Kind::kQuery &&
            c->engine.catalog().Find(op.pred) < 0) {
          continue;
        }
        if (op.kind == server::SessionOp::Kind::kUpdate) {
          std::vector<FactUpdate> batch;
          if (!server::ParseUpdateTokens(op.update_tokens,
                                         c->engine.catalog(),
                                         &c->engine.symbols(), &batch)) {
            continue;
          }
        }
      }
      return Disagreed(where + ": " + ev.response.error);
    }
    const int64_t epoch = ev.response.epoch;
    if (epoch < 0 || epoch >= static_cast<int64_t>(models.size())) {
      return Disagreed(where + ": served epoch " + std::to_string(epoch) +
                       " out of range");
    }
    auto [it, inserted] = last_epoch.emplace(ev.session, epoch);
    if (!inserted) {
      if (epoch < it->second) {
        return Disagreed(where + ": epoch went backwards (" +
                         std::to_string(it->second) + " -> " +
                         std::to_string(epoch) + ")");
      }
      it->second = epoch;
    }
    const Instance& at = models[static_cast<size_t>(epoch)];
    switch (op.kind) {
      case server::SessionOp::Kind::kQuery: {
        const PredId pred = c->engine.catalog().Find(op.pred);
        if (pred < 0) {
          return Disagreed(where + ": unknown predicate served OK");
        }
        if (ev.response.body !=
            at.Restrict({pred}).SerializeSnapshot()) {
          return Disagreed(where + ": predicate bytes diverge from the "
                                   "replay at epoch " +
                           std::to_string(epoch));
        }
        break;
      }
      case server::SessionOp::Kind::kSnapshot:
        if (ev.response.body != run.epoch_bytes[static_cast<size_t>(epoch)]) {
          return Disagreed(where + ": snapshot bytes diverge at epoch " +
                           std::to_string(epoch));
        }
        break;
      case server::SessionOp::Kind::kUpdate:
        if (epoch < 1) {
          return Disagreed(where + ": update committed at epoch " +
                           std::to_string(epoch));
        }
        break;
    }
  }

  // 3. Maintenance counters: the server's view walked the same batches
  // in the same order as the replay view.
  std::string stats_detail;
  if (!SameMaintenanceStats(run.view_stats, (*view)->stats(),
                            &stats_detail)) {
    return Disagreed("server " + stats_detail);
  }

  // 4. Epoch-based reclamation quiesced: no pins held, every retired
  // snapshot reclaimed, exactly the current epoch alive.
  if (run.pinned != 0 || run.live_snapshots != 1 ||
      run.counters.pins != run.counters.unpins ||
      run.counters.reclaimed != run.counters.retired ||
      run.counters.retired != run.counters.published - 1) {
    return Disagreed(
        "reclamation counters unbalanced at quiescence: pinned=" +
        std::to_string(run.pinned) + " live=" +
        std::to_string(run.live_snapshots) + " pins=" +
        std::to_string(run.counters.pins) + " unpins=" +
        std::to_string(run.counters.unpins) + " published=" +
        std::to_string(run.counters.published) + " retired=" +
        std::to_string(run.counters.retired) + " reclaimed=" +
        std::to_string(run.counters.reclaimed));
  }

  // 5. Schedule determinism: the same seed must reproduce the identical
  // event stream, commit order and published bytes.
  ServerRunOutcome second = RunServerSchedule(c, ops, salt);
  if (!second.created || !second.run.ok) {
    return Disagreed("deterministic re-run failed to run");
  }
  if (second.run.events.size() != run.events.size() ||
      second.run.epoch_bytes != run.epoch_bytes ||
      second.run.commits.size() != run.commits.size()) {
    return Disagreed("deterministic re-run diverged in shape");
  }
  for (size_t i = 0; i < run.events.size(); ++i) {
    const server::ScheduledEvent& a = run.events[i];
    const server::ScheduledEvent& b = second.run.events[i];
    if (a.vtime != b.vtime || a.op_index != b.op_index ||
        a.session != b.session ||
        a.cancelled_injected != b.cancelled_injected ||
        a.response.status != b.response.status ||
        a.response.epoch != b.response.epoch ||
        a.response.body != b.response.body) {
      return Disagreed("deterministic re-run diverged at event " +
                       std::to_string(i));
    }
  }
  return Agreed();
}

// ---- kCrashRecoverVsReplay ----------------------------------------------

/// mkdtemp-backed store directory for one oracle run, emptied and removed
/// (best-effort) on scope exit so 1000-case sweeps don't litter TMPDIR.
class ScratchStoreDir {
 public:
  ScratchStoreDir() {
    const char* tmpdir = ::getenv("TMPDIR");
    std::string tmpl =
        std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
        "/unchained-dur.XXXXXX";
    buf_.assign(tmpl.begin(), tmpl.end());
    buf_.push_back('\0');
    ok_ = ::mkdtemp(buf_.data()) != nullptr;
  }
  ~ScratchStoreDir() {
    if (!ok_) return;
    const std::string d = dir();
    ::unlink(store::WalPath(d).c_str());
    ::unlink(store::SnapshotPath(d).c_str());
    ::unlink(store::SnapshotTmpPath(d).c_str());
    ::rmdir(d.c_str());
  }
  bool ok() const { return ok_; }
  std::string dir() const { return std::string(buf_.data()); }

 private:
  std::vector<char> buf_;
  bool ok_ = false;
};

OracleVerdict RunCrashRecoverVsReplay(ParsedCase* c,
                                      const std::string& facts_text,
                                      uint64_t salt) {
  if (!c->ValidDialect(Dialect::kStratified)) return Inapplicable();
  std::vector<server::SessionOp> ops;
  if (!server::ParseSessionScript(facts_text, &ops) || ops.empty()) {
    return Inapplicable();
  }
  store::DurabilitySpec spec;
  bool have_spec = false;
  if (!store::ParseDurabilitySpec(facts_text, &spec, &have_spec) ||
      !have_spec) {
    // No (or blind-edit-mangled) `%!` line: nothing durable to check.
    return Inapplicable();
  }

  ScratchStoreDir scratch;
  if (!scratch.ok()) return Disagreed("mkdtemp for the store dir failed");

  store::StoreOptions durability;
  durability.dir = scratch.dir();
  durability.sync_every = spec.sync_every;
  durability.snapshot_every = spec.snapshot_every;
  // The crash is the schedule's, not the kernel's: tracking fsync
  // bookkeeping without fdatasync keeps 1000-case sweeps off the disk.
  durability.simulate_sync = true;
  durability.faults = spec.Schedule();

  ServerRunOutcome outcome = RunServerSchedule(c, ops, salt, &durability);
  if (!outcome.created) {
    // Same fragment gate as pairs #9/#10.
    if (outcome.create_status.code() == StatusCode::kUnsupported ||
        outcome.create_status.code() == StatusCode::kNotStratifiable) {
      return Inapplicable();
    }
    return Disagreed("durable server create: " +
                     outcome.create_status.ToString());
  }
  const server::ScheduleRun& run = outcome.run;
  if (!run.ok) return Disagreed("schedule: " + run.error);

  // Settle the shutdown flush first — a crash pending on the fsync path
  // fires here — then freeze the store's ground truth and destroy the
  // server (whose own destructor flush is now a no-op).
  (void)outcome.server->FlushStore();
  const store::DurableStore* st = outcome.server->store();
  if (st == nullptr) return Disagreed("durable server has no store");
  const store::CommitAttempt last = st->last_attempt();
  const bool store_crashed = st->crashed();
  const int64_t durable_epoch = st->durable_epoch();
  const char* crash_point =
      store_crashed ? store::CrashPointName(st->faults().crash_point) : "none";
  // The attempted batches are the published commits (epochs 1..P, from
  // the publish hook) plus the store's last attempt when its append
  // failed (epoch P + 1, never published).
  const int64_t published = static_cast<int64_t>(run.commits.size());
  for (int64_t e = 1; e <= published; ++e) {
    const int64_t epoch = run.commits[static_cast<size_t>(e - 1)].epoch;
    if (epoch != e) {
      return Disagreed("commit " + std::to_string(e) + " carries epoch " +
                       std::to_string(epoch));
    }
  }
  if (last.epoch != published && last.epoch != published + 1) {
    return Disagreed("last commit attempt carries epoch " +
                     std::to_string(last.epoch) + " after " +
                     std::to_string(published) + " published commits");
  }
  const int64_t last_attempt = last.epoch;
  outcome.server.reset();

  Result<store::Recovered> rec =
      store::Recover(scratch.dir(), *c->program, c->engine.catalog(),
                     &c->engine.symbols(), *c->db, c->engine.options());
  const std::string where = std::string("(crash point ") + crash_point +
                            " after " + std::to_string(last_attempt) +
                            " attempts)";
  if (!rec.ok()) {
    return Disagreed("recover " + where + ": " + rec.status().ToString());
  }

  // 1. Bounded loss: everything durable survives, nothing beyond the last
  // attempted commit appears. Without a crash the shutdown flush makes
  // every attempt durable, so recovery must land exactly on the last one.
  if (rec->epoch < durable_epoch || rec->epoch > last_attempt) {
    return Disagreed("recovered epoch " + std::to_string(rec->epoch) +
                     " outside [durable " + std::to_string(durable_epoch) +
                     ", attempted " + std::to_string(last_attempt) + "] " +
                     where);
  }
  if (!store_crashed && rec->epoch != last_attempt) {
    return Disagreed("clean shutdown lost commits: recovered to epoch " +
                     std::to_string(rec->epoch) + " of " +
                     std::to_string(last_attempt));
  }

  // 2. Byte-identity against an independent replay of the surviving
  // prefix: a fresh IncrementalView walks attempts 1..recovered_epoch.
  Result<std::unique_ptr<IncrementalView>> replay = IncrementalView::Create(
      *c->program, c->engine.catalog(), *c->db, c->engine.options());
  if (!replay.ok()) {
    return Disagreed("replay create: " + replay.status().ToString());
  }
  for (int64_t e = 1; e <= rec->epoch; ++e) {
    std::vector<FactUpdate> batch;
    if (e <= published) {
      batch = run.commits[static_cast<size_t>(e - 1)].batch;
    } else if (!server::ParseUpdateTokens(last.update_tokens,
                                          c->engine.catalog(),
                                          &c->engine.symbols(), &batch)) {
      return Disagreed("attempt for epoch " + std::to_string(e) +
                       " holds unparseable tokens");
    }
    if (Status s = (*replay)->ApplyBatch(batch); !s.ok()) {
      return Disagreed("replay apply at epoch " + std::to_string(e) + ": " +
                       s.ToString());
    }
  }
  if (rec->view->model().SerializeSnapshot() !=
      (*replay)->model().SerializeSnapshot()) {
    return Disagreed("recovered model diverges from the replay of " +
                     std::to_string(rec->epoch) + " surviving commits " +
                     where + "\n" +
                     DescribeDiff("recovered", rec->view->model(), "replay",
                                  (*replay)->model(), c->engine.symbols()));
  }
  if (rec->view->base().SerializeSnapshot() !=
      (*replay)->base().SerializeSnapshot()) {
    return Disagreed("recovered base diverges from the replay " + where);
  }

  // 3. What clients saw: when the recovered epoch was published before
  // the crash, its bytes must match what the server handed out then.
  if (rec->epoch >= run.base_epoch &&
      rec->epoch - run.base_epoch <
          static_cast<int64_t>(run.epoch_bytes.size()) &&
      rec->view->model().SerializeSnapshot() !=
          run.epoch_bytes[static_cast<size_t>(rec->epoch - run.base_epoch)]) {
    return Disagreed("recovered model diverges from the bytes published at "
                     "epoch " +
                     std::to_string(rec->epoch) + " " + where);
  }

  // 4. Tail repair: after recovery the log must re-scan clean — a torn or
  // bit-flipped tail left behind (internal::g_store_skip_truncate) would
  // poison the next writer's appends.
  Result<store::WalScan> rescan = store::ScanWal(store::WalPath(scratch.dir()));
  if (!rescan.ok()) {
    return Disagreed("post-recovery wal scan: " + rescan.status().ToString());
  }
  if (!rescan->clean) {
    return Disagreed("wal still dirty after recovery " + where + ": " +
                     rescan->detail);
  }

  // 5. Idempotence: recovering the repaired directory again must land on
  // the same epoch and the same bytes.
  Result<store::Recovered> again =
      store::Recover(scratch.dir(), *c->program, c->engine.catalog(),
                     &c->engine.symbols(), *c->db, c->engine.options());
  if (!again.ok()) {
    return Disagreed("second recover: " + again.status().ToString());
  }
  if (again->epoch != rec->epoch ||
      again->view->model().SerializeSnapshot() !=
          rec->view->model().SerializeSnapshot()) {
    return Disagreed("recovery is not idempotent: epoch " +
                     std::to_string(rec->epoch) + " then " +
                     std::to_string(again->epoch) + " " + where);
  }
  return Agreed();
}

}  // namespace

std::vector<OraclePair> AllOraclePairs() {
  std::vector<OraclePair> pairs;
  pairs.reserve(kNumOraclePairs);
  for (int i = 0; i < kNumOraclePairs; ++i) {
    pairs.push_back(static_cast<OraclePair>(i));
  }
  return pairs;
}

const char* PairName(OraclePair pair) {
  switch (pair) {
    case OraclePair::kNaiveVsSemiNaive:
      return "naive-vs-seminaive";
    case OraclePair::kMagicVsOriginal:
      return "magic-vs-original";
    case OraclePair::kInflationaryVsWhile:
      return "inflationary-vs-while";
    case OraclePair::kWellFoundedVsStratified:
      return "wellfounded-vs-stratified";
    case OraclePair::kSequentialVsParallel:
      return "sequential-vs-parallel";
    case OraclePair::kTraceOnVsTraceOff:
      return "trace-on-vs-trace-off";
    case OraclePair::kReliableVsFaultyPeers:
      return "reliable-vs-faulty-peers";
    case OraclePair::kIncrementalVsScratch:
      return "incremental-vs-scratch";
    case OraclePair::kServerVsLibrary:
      return "server-vs-library";
    case OraclePair::kCrashRecoverVsReplay:
      return "crash-recover-vs-replay";
  }
  return "unknown";
}

bool PairFromName(std::string_view name, OraclePair* out) {
  for (OraclePair pair : AllOraclePairs()) {
    if (name == PairName(pair)) {
      *out = pair;
      return true;
    }
  }
  return false;
}

OracleVerdict OracleRunner::Run(OraclePair pair, const std::string& program,
                                const std::string& facts,
                                uint64_t salt) const {
  ParsedCase c;
  if (!c.Init(program, facts)) return Inapplicable();
  switch (pair) {
    case OraclePair::kNaiveVsSemiNaive:
      return RunNaiveVsSemiNaive(&c);
    case OraclePair::kMagicVsOriginal:
      return RunMagicVsOriginal(&c, salt);
    case OraclePair::kInflationaryVsWhile:
      return RunInflationaryVsWhile(&c);
    case OraclePair::kWellFoundedVsStratified:
      return RunWellFoundedVsStratified(&c);
    case OraclePair::kSequentialVsParallel:
      return RunSequentialVsParallel(&c, options_.thread_counts);
    case OraclePair::kTraceOnVsTraceOff:
      return RunTraceOnVsTraceOff(&c);
    case OraclePair::kReliableVsFaultyPeers:
      return RunReliableVsFaultyPeers(&c, program, facts, salt);
    case OraclePair::kIncrementalVsScratch:
      return RunIncrementalVsScratch(&c, facts);
    case OraclePair::kServerVsLibrary:
      return RunServerVsLibrary(&c, facts, salt);
    case OraclePair::kCrashRecoverVsReplay:
      return RunCrashRecoverVsReplay(&c, facts, salt);
  }
  return Inapplicable();
}

}  // namespace fuzz
}  // namespace datalog
