#ifndef UNCHAINED_SERVER_SESSION_H_
#define UNCHAINED_SERVER_SESSION_H_

// Client-session scripts (docs/server.md#session-scripts): a textual
// description of a multi-client workload that rides inside a case's
// facts text as `%` comment lines, invisible to every parser and engine:
//
//   %@ <session> q <pred>      query one predicate at a snapshot
//   %@ <session> s             query the full model snapshot
//   %@ <session> u <tokens>    submit a mutation batch, e.g.
//                              `%@ 1 u +e1(0,1) -e2(3)` — the same signed
//                              ground-atom tokens as `%~` update lines
//
// Ops of one session execute in script order; ops of different sessions
// interleave however the scheduler (or real threads) decides. The fuzz
// generator emits these lines, the virtual-clock scheduler replays them,
// oracle pair #10 diffs the outcome against a sequential library replay,
// and the shrinker's session-minimization pass edits them blindly — so
// parsing is strict and total: any malformed `%@` line fails the parse
// (the oracle then reads the case as inapplicable).

#include <string>
#include <string_view>
#include <vector>

#include "base/symbols.h"
#include "eval/incremental.h"
#include "ra/catalog.h"

namespace datalog {
namespace server {

struct SessionOp {
  enum class Kind : uint8_t { kQuery, kSnapshot, kUpdate };

  int session = 0;
  Kind kind = Kind::kQuery;
  /// kQuery: predicate name.
  std::string pred;
  /// kUpdate: the signed ground-atom tokens, verbatim.
  std::string update_tokens;
};

/// Parses the `+pred(v,...)` / `-pred(v,...)` tokens shared by `%~`
/// update-batch lines and `u` session ops into FactUpdates — integer
/// arguments only (the generator's value domain), appended to `out`.
/// False on any malformed token or unknown/wrong-arity predicate; a
/// refused batch interns no value and leaves `out` as it was. Shared
/// with the incremental-vs-scratch oracle and the server's kUpdate
/// requests.
bool ParseUpdateTokens(std::string_view tokens, const Catalog& catalog,
                       SymbolTable* symbols, std::vector<FactUpdate>* out);

/// Renders a batch back into canonical `+pred(v,...)` tokens, space
/// separated — the exact inverse of ParseUpdateTokens on its integer
/// value domain. The WAL stores these bytes per committed batch
/// (store/wal.h), so Format ∘ Parse must be the identity: recovery
/// replays what was logged, and the crash-recover-vs-replay oracle
/// diffs the two byte-for-byte.
std::string FormatUpdateTokens(const std::vector<FactUpdate>& updates,
                               const Catalog& catalog,
                               const SymbolTable& symbols);

/// Extracts the `%@` session ops from a facts text, in line order. Lines
/// not starting with `%@` (after leading blanks) are ignored. Returns
/// false on any malformed `%@` line; `out` is then unspecified. Note the
/// update tokens are *not* validated here — that needs a catalog and
/// happens at submission.
bool ParseSessionScript(const std::string& facts_text,
                        std::vector<SessionOp>* out);

/// Renders one op back into its script line (no trailing newline).
/// FormatSessionOp ∘ parse is the identity on canonical lines, which the
/// shrinker's rewrite passes rely on.
std::string FormatSessionOp(const SessionOp& op);

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SESSION_H_
