#include "eval/provenance.h"

#include <functional>

#include "ast/printer.h"

namespace datalog {

void DerivationLog::Record(PredId pred, const Tuple& tuple, int rule_index,
                           int stage, std::vector<GroundFact> premises) {
  const size_t p = static_cast<size_t>(pred);
  if (p >= preds_.size()) preds_.resize(p + 1);
  PredLog& log = preds_[p];
  if (log.entries.empty()) {
    log.facts = storage::RowSet(static_cast<int>(tuple.size()));
  }
  if (!log.facts.Insert(tuple.data())) return;
  log.entries.push_back(Entry{rule_index, stage, std::move(premises)});
  ++size_;
}

const DerivationLog::Entry* DerivationLog::Lookup(PredId pred,
                                                  const Tuple& tuple) const {
  const size_t p = static_cast<size_t>(pred);
  if (pred < 0 || p >= preds_.size()) return nullptr;
  const PredLog& log = preds_[p];
  if (log.entries.empty() ||
      static_cast<int>(tuple.size()) != log.facts.arity()) {
    return nullptr;
  }
  const size_t r = log.facts.Find(tuple.data());
  return r == storage::RowSet::kAbsent ? nullptr : &log.entries[r];
}

namespace {

void AppendFact(PredId pred, const Tuple& tuple, const Catalog& catalog,
                const SymbolTable& symbols, std::string* out) {
  *out += catalog.NameOf(pred);
  if (!tuple.empty()) {
    *out += '(';
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += symbols.NameOf(tuple[i]);
    }
    *out += ')';
  }
}

}  // namespace

std::string DerivationLog::Explain(PredId pred, const Tuple& tuple,
                                   const Program& program,
                                   const Catalog& catalog,
                                   const SymbolTable& symbols,
                                   int max_depth) const {
  std::string out;
  // Recursive tree rendering with box-drawing connectors.
  std::function<void(PredId, const Tuple&, bool, const std::string&, bool,
                     int)>
      render = [&](PredId p, const Tuple& t, bool negative,
                   const std::string& indent, bool is_root, int depth) {
        AppendFact(p, t, catalog, symbols, &out);
        const Entry* entry = Lookup(p, t);
        if (negative) {
          out += "   (negative premise: absent when checked)\n";
          return;
        }
        if (entry == nullptr) {
          out += is_root ? "   (input fact or not derived)\n" : "   (input)\n";
          return;
        }
        out += '\n';
        if (depth >= max_depth) {
          out += indent + "└─ ... (max depth reached)\n";
          return;
        }
        std::string rule_text =
            entry->rule_index >= 0 &&
                    entry->rule_index < static_cast<int>(program.rules.size())
                ? RuleToString(
                      program.rules[static_cast<size_t>(entry->rule_index)],
                      catalog, symbols)
                : "?";
        out += indent + "└─ rule #" + std::to_string(entry->rule_index + 1) +
               " [stage " + std::to_string(entry->stage) + "]: " + rule_text +
               "\n";
        std::string child_indent = indent + "   ";
        for (size_t i = 0; i < entry->premises.size(); ++i) {
          const GroundFact& premise = entry->premises[i];
          bool last = i + 1 == entry->premises.size();
          out += child_indent + (last ? "└─ " : "├─ ");
          if (premise.negative) out += "¬";
          render(premise.pred, premise.tuple, premise.negative,
                 child_indent + (last ? "   " : "│  "), false, depth + 1);
        }
      };
  render(pred, tuple, /*negative=*/false, "", /*is_root=*/true, 0);
  return out;
}

std::vector<GroundFact> InstantiateBodyPremises(const Rule& rule,
                                                const Valuation& val) {
  std::vector<GroundFact> premises;
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kRelational) continue;
    GroundFact fact;
    fact.pred = lit.atom.pred;
    fact.tuple = InstantiateAtom(lit.atom, val);
    fact.negative = lit.negative;
    premises.push_back(std::move(fact));
  }
  return premises;
}

}  // namespace datalog
