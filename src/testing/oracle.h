#ifndef UNCHAINED_TESTING_ORACLE_H_
#define UNCHAINED_TESTING_ORACLE_H_

// Differential oracles: each OraclePair names two independently implemented
// evaluation routes that must agree on every legal input — the paper's
// equivalence theorems turned into executable checks (docs/testing.md).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace datalog {
namespace fuzz {

/// The engine pairs the fuzzer can diff:
///
///  * kNaiveVsSemiNaive     — Section 3.1: minimum model, naive vs
///                            delta-driven evaluation (positive programs).
///  * kMagicVsOriginal      — magic-sets rewrite vs filtered full model,
///                            under both naive and semi-naive evaluation
///                            (positive programs; random adornments).
///  * kInflationaryVsWhile  — Theorem 4.2: inflationary fixpoint vs the
///                            compiled fixpoint/while program
///                            (semi-positive programs).
///  * kWellFoundedVsStratified — Section 3.3: the well-founded model must
///                            be total and equal the stratified semantics
///                            on stratified programs.
///  * kSequentialVsParallel — the thread-count contract: results and the
///                            deterministic EvalStats counters must be
///                            identical at every num_threads setting.
///  * kTraceOnVsTraceOff    — observability must be inert: running with
///                            tracing spans and the metrics registry
///                            enabled must produce instances and
///                            deterministic EvalStats identical to a run
///                            with observability off (stratified programs).
///  * kReliableVsFaultyPeers — the empirical CALM check (Section 6,
///                            docs/distribution.md): the generated program
///                            runs on a three-peer gossip ring once over
///                            the reliable transport and once per faulty
///                            schedule (drop/duplicate/reorder/delay,
///                            partitions, crash/restart); the final
///                            instances must be byte-identical. Positive
///                            programs only — the monotone dialect is what
///                            CALM promises is delivery-order independent.
///  * kIncrementalVsScratch — the maintenance contract
///                            (docs/incremental.md): an IncrementalView
///                            applying the case's `%~` update batches must
///                            match a from-scratch stratified run after
///                            every batch — byte-identical serialized
///                            snapshots, identical deterministic stats on
///                            the initial run, and a replayed view must
///                            reproduce the exact maintenance counters.
///  * kServerVsLibrary      — the snapshot-isolation contract
///                            (docs/server.md): the case's `%@` session
///                            script runs against a concurrent Server
///                            under a seeded virtual-clock schedule; the
///                            bytes published for every epoch, every
///                            query response, and the maintenance
///                            counters must match a *sequential*
///                            IncrementalView replay of the committed
///                            batches — plus monotone epochs per session,
///                            read-your-writes, balanced pin/reclaim
///                            counters at quiescence, and a re-run of the
///                            same seed reproducing the identical event
///                            stream.
///  * kCrashRecoverVsReplay — the durability contract
///                            (docs/durability.md): the case's session
///                            script runs against a *durable* server in a
///                            scratch store directory under the `%!`
///                            line's fault schedule (store/fault.h) — a
///                            seeded crash may fire mid-commit, tearing or
///                            bit-flipping the unsynced WAL tail. The
///                            server is then destroyed and the directory
///                            recovered (store/recover.h); the recovered
///                            epoch must land in [durable_epoch,
///                            last-attempted], the recovered model must be
///                            byte-identical to a fresh IncrementalView
///                            replay of the surviving commit prefix (and
///                            to the bytes the server published for that
///                            epoch), the repaired WAL must re-scan clean,
///                            and a second recovery must be idempotent.
enum class OraclePair {
  kNaiveVsSemiNaive,
  kMagicVsOriginal,
  kInflationaryVsWhile,
  kWellFoundedVsStratified,
  kSequentialVsParallel,
  kTraceOnVsTraceOff,
  kReliableVsFaultyPeers,
  kIncrementalVsScratch,
  kServerVsLibrary,
  kCrashRecoverVsReplay,
};

inline constexpr int kNumOraclePairs = 10;

/// All pairs, in declaration order.
std::vector<OraclePair> AllOraclePairs();

/// Short stable name ("naive-vs-seminaive", ...), used by the CLI and in
/// artifact files.
const char* PairName(OraclePair pair);

/// Inverse of PairName; returns false on an unknown name.
bool PairFromName(std::string_view name, OraclePair* out);

struct OracleOptions {
  /// Worker-pool sizes compared against the sequential run by
  /// kSequentialVsParallel.
  std::vector<int> thread_counts = {2, 4};
};

/// Outcome of one oracle run. A pair is *inapplicable* when the program
/// lies outside its dialect (e.g. naive-vs-seminaive on a program with
/// negation); inapplicable runs are vacuously ok.
struct OracleVerdict {
  bool applicable = false;
  bool agreed = true;
  /// Human-readable diff (first differing predicates/facts) when !agreed.
  std::string detail;

  bool ok() const { return !applicable || agreed; }
};

/// Runs oracle pairs on textual (program, facts) cases. Stateless apart
/// from options; every run parses into a fresh Engine, so disagreements
/// can never leak state between cases. `salt` seeds the pair's internal
/// random choices (magic adornments): the same (case, salt) always runs
/// the same comparison, which the shrinker relies on.
///
/// The facts text may carry update-batch lines of the form
/// `%~ +e1(0,1) -e2(3)` — one line per batch, one signed ground atom per
/// token. The parser reads them as `%` comments, so they are invisible to
/// every pair except kIncrementalVsScratch, which replays them against an
/// IncrementalView. It may also carry `%@ <sid> q|s|u ...` session-script
/// lines (server/session.h), equally comment-invisible, consumed by
/// kServerVsLibrary and kCrashRecoverVsReplay — the latter additionally
/// requires a `%! crash=... torn=... flip=... sync=... snap=...`
/// durability line (store/fault.h) naming its crash schedule.
class OracleRunner {
 public:
  OracleRunner() = default;
  explicit OracleRunner(const OracleOptions& options) : options_(options) {}

  const OracleOptions& options() const { return options_; }

  OracleVerdict Run(OraclePair pair, const std::string& program,
                    const std::string& facts, uint64_t salt) const;

 private:
  OracleOptions options_;
};

}  // namespace fuzz
}  // namespace datalog

#endif  // UNCHAINED_TESTING_ORACLE_H_
