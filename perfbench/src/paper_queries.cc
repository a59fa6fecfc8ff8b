// The paper-queries workload (README.md#workloads): no server. One client
// thread evaluates a seeded closed-loop stream of requests through Engine
// with num_threads = 1, one request type per batch engine of the paper,
// each sized so the types cost about the same. Every answer is read out
// as canonical snapshot bytes and checked after the run against a
// different engine on the same input, or against a direct property check.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "core/engine.h"
#include "eval/test_hooks.h"
#include "workload/graphs.h"

namespace perfbench {
namespace {

using datalog::Engine;
using datalog::Instance;
using datalog::PredId;
using datalog::Program;
using datalog::Tuple;

enum Type { kSemiNaive, kNaive, kStratified, kInflationary, kWellFounded,
            kNonInflationary, kTypes };

const char* const kTypeNames[kTypes] = {"seminaive",    "naive",
                                        "stratified",   "inflationary",
                                        "wellfounded",  "noninflationary"};

/// Input graph sizes per type: n nodes, m edges. Committed sizes first,
/// then the self-test's.
struct Size {
  int n = 0;
  int m = 0;
};
const Size kSizes[kTypes] = {{55, 165}, {34, 102}, {46, 138},
                             {7, 12},   {100, 200},  {120, 170}};
const Size kTinySizes[kTypes] = {{12, 24}, {12, 24}, {10, 20},
                                 {5, 8},   {20, 30},  {20, 24}};
constexpr int kInputsPerType = 4;
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 50;
/// peak_rss_mb covers the measured loop up to this many evaluations, the
/// same count on every host and at every throughput.
constexpr int64_t kRssEvals = 1000;

const char kTc[] =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- g(X, Z), t(Z, Y).\n";
// Example 4.3, inflationary form: the complement of TC computed by
// detecting the stage at which t stopped growing.
const char kInflationaryCt[] =
    "it(X, Y) :- g(X, Y).\n"
    "it(X, Y) :- g(X, Z), it(Z, Y).\n"
    "old-it(X, Y) :- it(X, Y).\n"
    "old-it-except-final(X, Y) :- it(X, Y), it(X2, Z2), it(Z2, Y2), "
    "!it(X2, Y2).\n"
    "ct(X, Y) :- !it(X, Y), old-it(X2, Y2), !old-it-except-final(X2, Y2).\n";
// Example 4.3, stratified form.
const char kStratifiedCt[] =
    "st(X, Y) :- g(X, Y).\n"
    "st(X, Y) :- g(X, Z), st(Z, Y).\n"
    "sct(X, Y) :- !st(X, Y).\n";
// Example 3.2.
const char kWin[] = "win(X) :- moves(X, Y), !win(Y).\n";
// A terminating Datalog¬¬ program: repeatedly delete every edge into a
// node with no outgoing edge (sink stripping).
const char kSinkStrip[] =
    "!out(X) :- out(X).\n"
    "out(X) :- g(X, Y).\n"
    "init0.\n"
    "!g(X, Y) :- init0, g(X, Y), !out(Y).\n";

/// Everything one request type needs: its engine (catalog, symbols),
/// program(s), input pool and answer predicate.
struct TypeState {
  Engine engine;
  std::unique_ptr<Program> program;
  std::vector<Instance> inputs;
  PredId answer = -1;
  PredId edge = -1;
};

/// One evaluation's outcome, recorded in the measured loop.
struct Eval {
  int type = 0;
  int input = 0;
  bool ok = false;
  int rounds = 0;
  int64_t instantiations = 0;
  /// The answer's tuples (all values) and, for the well-founded engine,
  /// its unknown facts; kept only for the first request on each input.
  std::vector<Tuple> answer;
  std::vector<Tuple> unknown;
  /// Hash of answer and unknown facts; repeats must match the first.
  uint64_t hash = 0;
};

uint64_t HashTuples(const std::vector<Tuple>& answer,
                    const std::vector<Tuple>& unknown) {
  std::string bytes;
  for (const std::vector<Tuple>* part : {&answer, &unknown}) {
    for (const Tuple& t : *part) {
      for (datalog::Value v : t) bytes += std::to_string(v) + ",";
      bytes += ";";
    }
    bytes += "|";
  }
  return Hash64(bytes);
}

std::unique_ptr<Program> ParseOrNull(Engine* engine, const char* text) {
  auto p = engine->Parse(text);
  return p.ok() ? std::make_unique<Program>(std::move(*p)) : nullptr;
}

/// Parses every program and generates every input pool from the seed.
bool BuildStates(uint64_t seed, bool tiny,
                 std::vector<std::unique_ptr<TypeState>>* states) {
  states->clear();
  for (int t = 0; t < kTypes; ++t) {
    auto s = std::make_unique<TypeState>();
    const char* text = t == kSemiNaive || t == kNaive ? kTc
                       : t == kStratified             ? kStratifiedCt
                       : t == kInflationary           ? kInflationaryCt
                       : t == kWellFounded            ? kWin
                                                      : kSinkStrip;
    s->program = ParseOrNull(&s->engine, text);
    if (s->program == nullptr) return false;
    s->engine.options().num_threads = 1;
    s->edge = s->engine.catalog().Find(t == kWellFounded ? "moves" : "g");
    const char* answer = t == kSemiNaive || t == kNaive ? "t"
                         : t == kStratified             ? "sct"
                         : t == kInflationary           ? "ct"
                         : t == kWellFounded            ? "win"
                                                        : "g";
    s->answer = s->engine.catalog().Find(answer);
    if (s->edge < 0 || s->answer < 0) return false;
    const Size size = (tiny ? kTinySizes : kSizes)[t];
    datalog::Catalog* catalog = &s->engine.catalog();
    datalog::SymbolTable* symbols = &s->engine.symbols();
    datalog::Rng labels(seed * 1000003 + static_cast<uint64_t>(t));
    for (int i = 0; i < kInputsPerType; ++i) {
      // A fixed shape per (type, input), so the work per request does not
      // depend on the run seed; the run seed relabels its nodes.
      const uint64_t shape_seed = static_cast<uint64_t>(t * 64 + i + 1);
      const Instance shape =
          t == kWellFounded
              ? datalog::RandomGameGraph(catalog, symbols, size.n, size.m,
                                         shape_seed)
              : datalog::GraphBuilder(catalog, symbols)
                    .RandomDigraph(size.n, size.m, shape_seed);
      std::vector<int> order(static_cast<size_t>(size.n));
      for (int v = 0; v < size.n; ++v) order[static_cast<size_t>(v)] = v;
      for (size_t v = order.size(); v > 1; --v) {
        std::swap(order[v - 1], order[labels.Uniform(v)]);
      }
      std::map<datalog::Value, datalog::Value> label;
      for (int v = 0; v < size.n; ++v) {
        label[symbols->InternInt(v)] =
            symbols->InternInt(order[static_cast<size_t>(v)]);
      }
      Instance db(catalog);
      for (const Tuple& e : shape.Rel(s->edge).Sorted()) {
        db.Insert(s->edge, Tuple{label[e[0]], label[e[1]]});
      }
      s->inputs.push_back(std::move(db));
    }
    states->push_back(std::move(s));
  }
  return true;
}

/// Runs one request: moves the engine's result into `*answer_model` and
/// fills `eval`'s counters. False when the engine refused.
bool Evaluate(TypeState* s, int type, const Instance& input, Eval* eval,
              Instance* answer_model) {
  Engine& engine = s->engine;
  switch (type) {
    case kSemiNaive:
    case kNaive: {
      auto r = type == kSemiNaive ? engine.MinimumModel(*s->program, input)
                                  : engine.MinimumModelNaive(*s->program,
                                                             input);
      if (!r.ok()) return false;
      eval->rounds = engine.LastRunStats().rounds;
      eval->instantiations = engine.LastRunStats().instantiations;
      *answer_model = std::move(*r);
      return true;
    }
    case kStratified: {
      auto r = engine.Stratified(*s->program, input);
      if (!r.ok()) return false;
      eval->rounds = engine.LastRunStats().rounds;
      eval->instantiations = engine.LastRunStats().instantiations;
      *answer_model = std::move(*r);
      return true;
    }
    case kInflationary: {
      auto r = engine.Inflationary(*s->program, input);
      if (!r.ok()) return false;
      eval->rounds = r->stages;
      eval->instantiations = r->stats.instantiations;
      *answer_model = std::move(r->instance);
      return true;
    }
    case kWellFounded: {
      auto r = engine.WellFounded(*s->program, input);
      if (!r.ok()) return false;
      eval->rounds = r->stats.rounds;
      eval->instantiations = r->stats.instantiations;
      for (const Tuple& t : r->possible_facts.Rel(s->answer).Sorted()) {
        if (!r->true_facts.Contains(s->answer, t)) eval->unknown.push_back(t);
      }
      *answer_model = std::move(r->true_facts);
      return true;
    }
    case kNonInflationary: {
      auto r = engine.NonInflationary(*s->program, input);
      if (!r.ok()) return false;
      eval->rounds = r->stages;
      eval->instantiations = r->stats.instantiations;
      *answer_model = std::move(r->instance);
      return true;
    }
  }
  return false;
}

// -- Checks -------------------------------------------------------------

using Edges = std::set<std::pair<datalog::Value, datalog::Value>>;

Edges EdgesOf(const Instance& db, PredId p) {
  Edges out;
  for (const Tuple& t : db.Rel(p).Sorted()) out.emplace(t[0], t[1]);
  return out;
}

std::vector<Tuple> AsTuples(const Edges& edges) {
  std::vector<Tuple> out;
  for (const auto& [a, b] : edges) out.push_back(Tuple{a, b});
  return out;
}

/// The expected answer of one (type, input), from a different engine or a
/// direct computation; `*ok` is false when it could not be computed.
std::vector<Tuple> Reference(TypeState* s, int type, const Instance& input,
                             bool* ok) {
  *ok = true;
  Engine& engine = s->engine;
  switch (type) {
    case kSemiNaive:
    case kNaive: {
      // Each TC engine is checked by the other one.
      auto r = type == kSemiNaive
                   ? engine.MinimumModelNaive(*s->program, input)
                   : engine.MinimumModel(*s->program, input);
      if (!r.ok()) break;
      return r->Rel(s->answer).Sorted();
    }
    case kInflationary: {
      // The stratified complement of TC on the same input.
      auto p = engine.Parse(kStratifiedCt);
      if (!p.ok()) break;
      auto r = engine.Stratified(*p, input);
      if (!r.ok()) break;
      return r->Rel(engine.catalog().Find("sct")).Sorted();
    }
    case kStratified: {
      // Complement over adom² of the semi-naive TC on the same input.
      auto p = engine.Parse(
          "rt(X, Y) :- g(X, Y).\nrt(X, Y) :- g(X, Z), rt(Z, Y).\n");
      if (!p.ok()) break;
      auto r = engine.MinimumModel(*p, input);
      if (!r.ok()) break;
      const PredId rt = engine.catalog().Find("rt");
      std::vector<Tuple> out;
      const std::set<datalog::Value> adom = input.ActiveDomain();
      for (datalog::Value x : adom) {
        for (datalog::Value y : adom) {
          if (!r->Contains(rt, Tuple{x, y})) out.push_back(Tuple{x, y});
        }
      }
      return out;
    }
    case kNonInflationary: {
      // Direct sink stripping: drop edges into nodes without an outgoing
      // edge until none is left to drop.
      Edges g = EdgesOf(input, s->edge);
      for (bool changed = true; changed;) {
        changed = false;
        std::set<datalog::Value> has_out;
        for (const auto& e : g) has_out.insert(e.first);
        for (auto it = g.begin(); it != g.end();) {
          if (has_out.count(it->second) == 0) {
            it = g.erase(it);
            changed = true;
          } else {
            ++it;
          }
        }
      }
      return AsTuples(g);
    }
    default:
      break;
  }
  *ok = false;
  return {};
}

/// The game rule on the well-founded model of win: a position is won iff
/// some move reaches a lost one, lost iff every move reaches a won one,
/// drawn otherwise.
bool GameRuleHolds(const TypeState& s, const Instance& input,
                   const Eval& eval) {
  std::set<datalog::Value> won;
  std::set<datalog::Value> unknown;
  for (const Tuple& t : eval.answer) won.insert(t[0]);
  for (const Tuple& t : eval.unknown) unknown.insert(t[0]);
  std::map<datalog::Value, std::vector<datalog::Value>> moves;
  for (const Tuple& t : input.Rel(s.edge).Sorted()) {
    moves[t[0]].push_back(t[1]);
  }
  for (datalog::Value x : input.ActiveDomain()) {
    bool to_lost = false;
    bool all_won = true;
    for (datalog::Value y : moves[x]) {
      const bool y_won = won.count(y) > 0;
      const bool y_lost = !y_won && unknown.count(y) == 0;
      to_lost = to_lost || y_lost;
      all_won = all_won && y_won;
    }
    const bool x_won = won.count(x) > 0;
    const bool x_unknown = unknown.count(x) > 0;
    if (x_won != to_lost) return false;
    if (!x_won && !x_unknown && !all_won) return false;
    if (x_unknown && (to_lost || all_won)) return false;
  }
  return true;
}

}  // namespace

Outcome RunPaperQueries(const RunConfig& config) {
  Outcome out;
  out.Stamp("workload", "paper-queries");
  out.Stamp("seed", std::to_string(config.seed));
  out.Stamp("clients", "1 closed-loop thread, Engine num_threads=1; an op "
                       "is a block of one evaluation per engine");
  out.Stamp("peak_rss", "up to " + std::to_string(kRssEvals) +
                            " evaluations of the measured loop");
  std::string sizes;
  for (int t = 0; t < kTypes; ++t) {
    const Size size = (config.tiny ? kTinySizes : kSizes)[t];
    sizes += std::string(t > 0 ? ", " : "") + kTypeNames[t] + " n=" +
             std::to_string(size.n) + " m=" + std::to_string(size.m);
  }
  out.Stamp("sizes", sizes + " (" + std::to_string(kInputsPerType) +
                         " seeded inputs each)");

  // Set-up: parse plus input generation, timed several times, each
  // followed by a host-speed probe.
  std::vector<std::unique_ptr<TypeState>> states;
  std::vector<double> setup_ms;
  std::vector<double> setup_probe_ms;
  for (int i = 0; i < (config.tiny ? 1 : kSetups); ++i) {
    const Clock::time_point t0 = Clock::now();
    if (!BuildStates(config.seed, config.tiny, &states)) {
      out.Fail("set-up failed");
      return out;
    }
    setup_ms.push_back(MsBetween(t0, Clock::now()));
    setup_probe_ms.push_back(ProbeMs());
  }

  if (config.inject == "seminaive-skip-delta") {
    datalog::internal::g_seminaive_skip_delta_rule = 1;
  }

  // The stream: blocks of the six types in seeded order, seeded inputs.
  // A block is one op of the end-to-end figures: its six evaluations
  // cost about the same in total whatever their order, while a single
  // evaluation's latency depends on its engine, so a median over single
  // evaluations would sit between two engines' costs and jump between
  // them from run to run.
  datalog::Rng rng(config.seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<int> block;
  std::vector<Eval> evals;
  std::set<std::pair<int, int>> seen;  // (type, input) answered before
  Samples eval_ms[kTypes];
  SpanRecorder spans(config.trace);
  const Clock::time_point origin = Clock::now();

  // In the traced run, blocks alternate between traced and untraced, so
  // the overhead compares ops of the same mix at the same time; only the
  // traced blocks give the per-engine numbers.
  const double warmup = std::min(1.0, config.seconds / 10);
  Samples untraced_ms;     // single untraced evaluations
  Samples block_eval_ms;   // untraced blocks inside the window
  Samples block_read_ms;
  Samples probe_ms;        // one probe after each of those blocks
  double block_eval = 0;
  double block_read = 0;
  bool block_counts = false;
  int64_t window_done = 0;
  bool traced = false;
  int64_t blocks = 0;
  TrimHeap();
  std::atomic<int64_t> done{0};
  RssSampler rss;
  rss.Start(&done, kRssEvals);
  const Clock::time_point start = Clock::now();
  const Clock::time_point window_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (int64_t op = 0; Clock::now() < end; ++op) {
    if (block.empty()) {
      if (block_counts) {
        block_eval_ms.Add(block_eval);
        block_read_ms.Add(block_read);
        probe_ms.Add(ProbeMs());
      }
      for (int t = 0; t < kTypes; ++t) block.push_back(t);
      for (size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.Uniform(i)]);
      }
      traced = config.trace && ++blocks % 2 == 0;
      block_eval = 0;
      block_read = 0;
      block_counts = !traced;
    }
    const int type = block.back();
    block.pop_back();
    const int input = static_cast<int>(rng.Uniform(kInputsPerType));
    TypeState* s = states[static_cast<size_t>(type)].get();
    Eval eval;
    eval.type = type;
    eval.input = input;
    Instance answer(&s->engine.catalog());
    const Clock::time_point t0 = Clock::now();
    eval.ok = Evaluate(s, type, s->inputs[static_cast<size_t>(input)], &eval,
                       &answer);
    const Clock::time_point t1 = Clock::now();
    // Reading the answer out: its canonical snapshot bytes, the format the
    // server ships query results in.
    const std::string bytes = answer.Restrict({s->answer}).SerializeSnapshot();
    const Clock::time_point t2 = Clock::now();
    if (traced) {
      const int64_t root = spans.Record("client.request", op, -1, t0, t2);
      spans.Record(kTypeNames[type], op, root, t0, t1);
      spans.Record("ra.SerializeSnapshot", op, root, t1, t2);
    }
    if (eval.ok) {
      eval.answer = answer.Rel(s->answer).Sorted();
      eval.hash = HashTuples(eval.answer, eval.unknown);
      if (!seen.emplace(type, input).second) {
        std::vector<Tuple>().swap(eval.answer);
        std::vector<Tuple>().swap(eval.unknown);
      }
    }
    if (bytes.empty()) eval.ok = false;
    if (t2 >= window_start && t2 <= end) ++window_done;
    const bool in_window = t0 >= window_start && t2 <= end;
    block_counts = block_counts && in_window;
    block_eval += MsBetween(t0, t1);
    block_read += MsBetween(t1, t2);
    if (in_window) {
      if (traced) {
        eval_ms[type].Add(MsBetween(t0, t1));
      } else {
        untraced_ms.Add(MsBetween(t0, t1));
      }
    }
    evals.push_back(std::move(eval));
    ++done;
  }
  rss.Stop();
  datalog::internal::g_seminaive_skip_delta_rule = -1;

  // Checks: per distinct (type, input), the answer must match the
  // reference; every repeat must equal the first answer.
  std::map<std::pair<int, int>, const Eval*> first;
  for (const Eval& eval : evals) {
    ++out.attempted;
    if (!eval.ok) {
      out.Fail(std::string(kTypeNames[eval.type]) + " evaluation failed");
      continue;
    }
    TypeState* s = states[static_cast<size_t>(eval.type)].get();
    const Instance& input = s->inputs[static_cast<size_t>(eval.input)];
    auto [it, inserted] =
        first.emplace(std::make_pair(eval.type, eval.input), &eval);
    if (!inserted) {
      if (it->second->hash != eval.hash) {
        out.Fail(std::string(kTypeNames[eval.type]) +
                 " answer changed between runs on one input");
      }
      continue;
    }
    if (eval.type == kWellFounded) {
      if (!GameRuleHolds(*s, input, eval)) {
        out.Fail("wellfounded win model breaks the game rule");
      }
      continue;
    }
    bool ok = false;
    const std::vector<Tuple> expected = Reference(s, eval.type, input, &ok);
    if (!ok || expected != eval.answer) {
      out.Fail(std::string(kTypeNames[eval.type]) +
               " answer differs from its reference on input " +
               std::to_string(eval.input));
    }
  }

  if (config.trace) {
    for (int t = 0; t < kTypes; ++t) {
      // Rounds and instantiations of the lowest-numbered input answered;
      // the shapes do not depend on the seed, so neither do these.
      auto it = first.lower_bound(std::make_pair(t, 0));
      const Eval* counted =
          it != first.end() && it->first.first == t ? it->second : nullptr;
      const std::string e = std::string("eval.") + kTypeNames[t];
      out.Add(e + "_p50_ms", eval_ms[t].Quantile(0.5), "ms",
              eval_ms[t].size());
      out.Add(e + "_rounds", counted ? counted->rounds : 0, "count");
      out.Add(e + "_instantiations",
              counted ? static_cast<double>(counted->instantiations) : 0,
              "count");
    }
    Samples traced_all;
    for (const Samples& s : eval_ms) traced_all.Append(s);
    out.Add("trace.overhead_pct",
            100 * (traced_all.Mean() / untraced_ms.Mean() - 1), "%",
            traced_all.size());
    double lo = 1e300;
    double hi = 0;
    for (const Samples& s : eval_ms) {
      lo = std::min(lo, s.Mean());
      hi = std::max(hi, s.Mean());
    }
    char line[96];
    std::snprintf(line, sizeof(line), "%.2f (costliest mean / cheapest)",
                  hi / lo);
    out.Stamp("type_cost_ratio", line);
    const std::string trace_path = config.out_dir + "/trace-paper-queries-" +
                                   std::to_string(config.seed) + ".json";
    if (!spans.WriteJson(trace_path, origin)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   trace_path.c_str());
    }
    out.Stamp("trace_file", trace_path);
  } else {
    const double probe = probe_ms.Quantile(0.5);
    out.Add("setup_s",
            AtReferenceSpeed(Median(setup_ms), Median(setup_probe_ms)) / 1e3,
            "s", setup_ms.size());
    out.Add("op_p50_ref_ms",
            AtReferenceSpeed(block_eval_ms.Quantile(0.5), probe), "ms",
            block_eval_ms.size());
    out.Add("read_p50_ref_ms",
            AtReferenceSpeed(block_read_ms.Quantile(0.5), probe), "ms",
            block_read_ms.size());
    out.Add("setup_raw_s", Median(setup_ms) / 1e3, "s", setup_ms.size());
    out.Add("op_p50_ms", block_eval_ms.Quantile(0.5), "ms",
            block_eval_ms.size());
    out.Add("read_p50_ms", block_read_ms.Quantile(0.5), "ms",
            block_read_ms.size());
    out.Add("probe_p50_ms", probe, "ms", probe_ms.size());
    out.Add("ops_per_s",
            static_cast<double>(window_done) /
                (MsBetween(window_start, end) / 1e3),
            "1/s", untraced_ms.size());
    AddLatency(&out, "eval", untraced_ms);
    out.Add("peak_rss_mb", rss.peak_mb(), "MB");
  }
  return out;
}

}  // namespace perfbench
