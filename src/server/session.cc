#include "server/session.h"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace datalog {
namespace server {

bool ParseUpdateTokens(std::string_view tokens, const Catalog& catalog,
                       SymbolTable* symbols, std::vector<FactUpdate>* out) {
  // Nothing is interned until the whole batch has parsed: a refused batch
  // leaves the shared symbol table, and so every later snapshot's
  // spellings, as it found it. The tuples hold placeholders meanwhile;
  // an accepted batch then interns its values in token order, so WAL
  // replay and recovery assign the same Values.
  const size_t first = out->size();
  std::vector<int64_t> values;
  auto refuse = [&] {
    out->erase(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
    return false;
  };
  size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i] == ' ' || tokens[i] == '\t') {
      ++i;
      continue;
    }
    FactUpdate u;
    if (tokens[i] == '+') {
      u.insert = true;
    } else if (tokens[i] == '-') {
      u.insert = false;
    } else {
      return refuse();
    }
    ++i;
    const size_t name_start = i;
    while (i < tokens.size() &&
           (std::isalnum(static_cast<unsigned char>(tokens[i])) != 0 ||
            tokens[i] == '_')) {
      ++i;
    }
    if (i == name_start || i >= tokens.size() || tokens[i] != '(') {
      return refuse();
    }
    u.pred = catalog.Find(tokens.substr(name_start, i - name_start));
    if (u.pred < 0) return refuse();
    ++i;  // '('
    while (i < tokens.size() && tokens[i] != ')') {
      int64_t v = 0;
      const size_t digit_start = i;
      while (i < tokens.size() &&
             std::isdigit(static_cast<unsigned char>(tokens[i])) != 0) {
        const int64_t digit = tokens[i] - '0';
        // Reject the token on int64 overflow: tokens arrive from the
        // wire and from WAL replay, and a wrapped value would break the
        // Format∘Parse identity recovery depends on (overflow of signed
        // arithmetic is UB besides).
        if (v > (std::numeric_limits<int64_t>::max() - digit) / 10) {
          return refuse();
        }
        v = v * 10 + digit;
        ++i;
      }
      if (i == digit_start) return refuse();
      values.push_back(v);
      u.tuple.push_back(0);
      if (i < tokens.size() && tokens[i] == ',') ++i;
    }
    if (i >= tokens.size()) return refuse();
    ++i;  // ')'
    if (static_cast<int>(u.tuple.size()) != catalog.ArityOf(u.pred)) {
      return refuse();
    }
    out->push_back(std::move(u));
  }
  size_t next = 0;
  for (size_t j = first; j < out->size(); ++j) {
    for (Value& v : (*out)[j].tuple) v = symbols->InternInt(values[next++]);
  }
  return true;
}

std::string FormatUpdateTokens(const std::vector<FactUpdate>& updates,
                               const Catalog& catalog,
                               const SymbolTable& symbols) {
  std::string out;
  for (const FactUpdate& u : updates) {
    if (!out.empty()) out += ' ';
    out += u.insert ? '+' : '-';
    out += catalog.NameOf(u.pred);
    out += '(';
    for (size_t i = 0; i < u.tuple.size(); ++i) {
      if (i > 0) out += ',';
      out += symbols.NameOf(u.tuple[i]);
    }
    out += ')';
  }
  return out;
}

namespace {

/// Identifier charset of predicate names (matches the program grammar).
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ParseSessionLine(std::string_view line, SessionOp* op) {
  size_t i = 0;
  auto skip_blanks = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  skip_blanks();
  // Session id.
  const size_t id_start = i;
  int sid = 0;
  while (i < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
    const int digit = line[i] - '0';
    // Same overflow discipline as ParseUpdateTokens: reject rather than
    // wrap on untrusted digit runs.
    if (sid > (std::numeric_limits<int>::max() - digit) / 10) return false;
    sid = sid * 10 + digit;
    ++i;
  }
  if (i == id_start) return false;
  op->session = sid;
  skip_blanks();
  if (i >= line.size()) return false;
  const char kind = line[i++];
  switch (kind) {
    case 'q': {
      skip_blanks();
      const size_t name_start = i;
      while (i < line.size() && IsNameChar(line[i])) ++i;
      if (i == name_start) return false;
      op->kind = SessionOp::Kind::kQuery;
      op->pred = std::string(line.substr(name_start, i - name_start));
      skip_blanks();
      return i == line.size();
    }
    case 's': {
      op->kind = SessionOp::Kind::kSnapshot;
      skip_blanks();
      return i == line.size();
    }
    case 'u': {
      if (i < line.size() && line[i] != ' ' && line[i] != '\t') return false;
      skip_blanks();
      if (i == line.size()) return false;  // an update needs tokens
      op->kind = SessionOp::Kind::kUpdate;
      std::string_view rest = line.substr(i);
      while (!rest.empty() &&
             (rest.back() == ' ' || rest.back() == '\t')) {
        rest.remove_suffix(1);
      }
      op->update_tokens = std::string(rest);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool ParseSessionScript(const std::string& facts_text,
                        std::vector<SessionOp>* out) {
  size_t pos = 0;
  while (pos < facts_text.size()) {
    size_t eol = facts_text.find('\n', pos);
    if (eol == std::string::npos) eol = facts_text.size();
    std::string_view line(facts_text.data() + pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.substr(0, 2) != "%@") continue;
    SessionOp op;
    if (!ParseSessionLine(line.substr(2), &op)) return false;
    out->push_back(std::move(op));
  }
  return true;
}

std::string FormatSessionOp(const SessionOp& op) {
  std::string line = "%@ " + std::to_string(op.session) + " ";
  switch (op.kind) {
    case SessionOp::Kind::kQuery:
      line += "q " + op.pred;
      break;
    case SessionOp::Kind::kSnapshot:
      line += "s";
      break;
    case SessionOp::Kind::kUpdate:
      line += "u " + op.update_tokens;
      break;
  }
  return line;
}

}  // namespace server
}  // namespace datalog
