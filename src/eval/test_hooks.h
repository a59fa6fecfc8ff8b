#ifndef UNCHAINED_EVAL_TEST_HOOKS_H_
#define UNCHAINED_EVAL_TEST_HOOKS_H_

// Fault-injection knobs for the fuzzing harness's end-to-end self-test
// (tools/unchained_fuzz --inject-bug=...): deliberately planted engine
// bugs that the differential oracles must catch and the shrinker must
// minimize. Production code never sets these; the defaults are no-ops.

#include <cstddef>

namespace datalog {
namespace internal {

/// When >= 0, semi-naive evaluation silently drops the *delta rounds* of
/// the program rule with this (program-global) index — round 0 still
/// fires, so the bug only shows on recursive derivations reached after
/// the first round: the canonical "forgot a delta rule" incompleteness.
extern int g_seminaive_skip_delta_rule;

/// When true, IncrementalView's DRed strata skip the rederivation pass:
/// every overdeleted fact stays deleted even when an alternative
/// derivation survives — the classic delete-rederive bug (deleting one
/// edge of a diamond kills facts the other path still supports). Only
/// visible on retractions through DRed-maintained strata, which is what
/// makes it a good end-to-end probe for the incremental-vs-scratch
/// oracle and the update-sequence shrinker.
extern bool g_dred_skip_rederive;

/// When true, the concurrent server publishes its chunk manifest from
/// *before* merging the writer batch's delta under the new epoch — a
/// snapshot-publish-before-resync bug: every reader at
/// epoch e >= 1 sees epoch e-1's data, i.e. a torn read between the
/// epoch counter and the model it is supposed to version. Caught by
/// oracle pair #10's per-epoch byte diff against the sequential library
/// replay, and the canonical target of the session-minimization shrinker
/// pass (a 1-update schedule already fails). Defined in
/// server/server.cc.
extern bool g_server_publish_stale;

/// When true, durability recovery (store/recover.cc) skips truncating a
/// torn or corrupt WAL tail after replay — the recovered state is still
/// correct, but the next recovery (or the post-recovery oracle check)
/// finds garbage after the last valid record: a forgot-to-repair bug
/// that only a crash schedule producing a torn tail can expose. The
/// canonical target of oracle pair #11 (crash-recover-vs-replay) and the
/// durability-spec shrinker pass. Defined in store/recover.cc.
extern bool g_store_skip_truncate;

/// When > 0, each store::PWriteAll call consumes one unit and fails with
/// a synthetic EIO — the injectable stand-in for a *real* disk error
/// (ENOSPC, yanked device) as opposed to a scheduled crash. Used to
/// prove genuine I/O failures latch the WAL/snapshotter crashed flag so
/// the server's crashed() gate quarantines the dirtied view. Defined in
/// store/io.cc.
extern int g_store_fail_pwrites;

/// When > 0, replaces the WAL's 64 MiB record payload cap
/// (store::WalRecordFits, Wal::Append) so tests reach the over-cap
/// refusal with a small batch. Defined in store/wal.cc.
extern size_t g_wal_record_cap;

}  // namespace internal
}  // namespace datalog

#endif  // UNCHAINED_EVAL_TEST_HOOKS_H_
