#ifndef UNCHAINED_DIST_TRANSPORT_H_
#define UNCHAINED_DIST_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "ra/instance.h"

namespace datalog {

// Message delivery for the peer system (dist/peers.h), factored out of the
// round loop so the same peer programs run over two network models:
//
//   * ReliableTransport — the synchronous default. Facts derived in round
//     r arrive at their destination at the end of round r, exactly the
//     semantics PeerSystem::Run always had.
//   * UnreliableTransport — a deterministic fault-injection network: a
//     seeded schedule drops, duplicates, reorders and delays individual
//     messages and severs scripted partitions. An at-least-once protocol
//     (per-link sequence numbers, cumulative acks, retry with exponential
//     backoff in rounds, receiver-side dedup) recovers delivery; the CALM
//     argument (docs/distribution.md) is that for the monotone peer
//     dialect the final instances are *identical* to the reliable run's.
//
// Everything is driven by the round clock — there are no threads and no
// wall-clock inside a transport — so a run is a pure function of
// (programs, facts, schedule, seed) and can be replayed bit-for-bit.

/// Scripted network partition: while active, messages crossing the cut
/// between `group` and the remaining peers are dropped (payloads and acks
/// alike). Rounds are 1-based, matching the peer system's global round
/// counter; the partition is active in rounds [from_round, until_round).
struct NetworkPartition {
  int from_round = 0;
  int until_round = 0;
  std::vector<int> group;

  bool Active(int round) const {
    return round >= from_round && round < until_round;
  }
  /// True if the (src, dest) link crosses the cut while active.
  bool Severs(int round, int src, int dest) const;
};

/// Per-message fault probabilities plus scripted partitions. All
/// randomness is drawn from the transport's single seeded Rng in a fixed
/// iteration order, so a schedule plus a seed fully determines every
/// drop/duplicate/delay decision.
struct FaultSchedule {
  /// Probability a transmission is lost (applied per attempt, so retries
  /// re-roll). Must be < 1 for convergence — see docs/distribution.md.
  double drop = 0.0;
  /// Probability a delivered transmission is duplicated in flight.
  double duplicate = 0.0;
  /// Probability an arriving message swaps behind a random earlier
  /// arrival of the same round (per-message, applied to the arrival
  /// batch).
  double reorder = 0.0;
  /// Probability a transmission is delayed by 1..max_delay_rounds rounds
  /// instead of arriving at the end of the current round.
  double delay = 0.0;
  int max_delay_rounds = 3;
  /// Retry burst length: after this many unacknowledged transmissions the
  /// packet's attempt counter resets (counted in TransportStats::expired)
  /// and the backoff restarts from one round. The sender never silently
  /// abandons a packet — at-least-once delivery over a fair-lossy link
  /// requires retrying until acknowledged, and a monotone sender would
  /// simply re-offer the fact anyway.
  int max_retries = 12;
  /// Cap on the exponential backoff between retries, in rounds.
  int max_backoff_rounds = 8;
  std::vector<NetworkPartition> partitions;
};

/// Kills `peer` at the start of global round `at_round` (1-based) for
/// `down_rounds` rounds. A down peer fires no rules, loses every
/// in-flight message to and from it, and its link state (sequence
/// numbers, send caches) is reset on both sides. At the start of round
/// `at_round + down_rounds` it restarts from its latest checkpoint and
/// re-derives/re-receives the rest.
struct CrashEvent {
  int peer = 0;
  int at_round = 0;
  int down_rounds = 1;
};

struct CrashSchedule {
  std::vector<CrashEvent> events;
  bool empty() const { return events.empty(); }
};

/// A fault schedule and a crash schedule parsed from one spec string, the
/// `--faults=` syntax of the CLI and the declarative-networking example.
struct FaultSpec {
  FaultSchedule faults;
  CrashSchedule crashes;
};

/// Parses a comma-separated fault spec, e.g.
///   "drop=0.1,dup=0.05,reorder=0.2,delay=0.3,max_delay=3,retries=12,
///    backoff=8,partition=2:5:0+1,crash=1:3:2"
/// where partition=FROM:UNTIL:P+P+... isolates peers {P...} during rounds
/// [FROM, UNTIL) and crash=PEER:ROUND:DOWN kills peer PEER at round ROUND
/// for DOWN rounds. Multiple partition=/crash= entries accumulate.
Result<FaultSpec> ParseFaultSpec(const std::string& spec);

/// Deterministic transport counters, surfaced as `dist.*` metrics and via
/// PeerSystem::last_dist_stats().
struct TransportStats {
  /// Payload transmissions handed to the network (including retries).
  int64_t sent = 0;
  /// Payload messages handed to a receiver that were new to its database.
  int64_t delivered = 0;
  /// Transmissions lost to drop probability, partitions, or a down peer.
  int64_t dropped = 0;
  /// Extra in-flight copies injected by the duplicate probability.
  int64_t duplicated = 0;
  /// Arrivals swapped behind a later send of the same round.
  int64_t reordered = 0;
  /// Transmissions deferred past their natural arrival round.
  int64_t delayed = 0;
  /// Retransmissions of an unacknowledged packet.
  int64_t retries = 0;
  /// Arrivals discarded by receiver-side sequence-number dedup.
  int64_t redeliveries = 0;
  /// Cumulative acknowledgements put on the wire.
  int64_t acks = 0;
  /// Retry bursts that hit max_retries and restarted their backoff.
  int64_t expired = 0;
};

/// Pluggable message delivery for PeerSystem::Run. The peer runtime calls
/// Send for every located-head derivation while firing a round, then
/// EndRound once to flush arrivals into the destination databases, then
/// Idle to decide quiescence. Implementations must be deterministic:
/// given the same call sequence (and seed), the same deliveries happen in
/// the same order.
class Transport {
 public:
  /// How EndRound hands arrivals back to the peer runtime (which owns the
  /// per-peer databases).
  class Sink {
   public:
    virtual ~Sink() = default;
    /// Inserts one fact into `dest`'s database; true if it was new.
    virtual bool Deliver(int dest, PredId pred, const Tuple& tuple) = 0;
    /// Unions a whole outbox instance into `dest`; returns #new facts.
    virtual size_t DeliverAll(int dest, const Instance& outbox) = 0;
  };

  /// Read access to a peer's current database, for send-side dedup.
  using DbFn = std::function<const Instance&(int)>;

  virtual ~Transport() = default;

  /// Offers one derived fact for delivery to `dest`'s relation `pred`.
  /// `remote` distinguishes located heads (which count as messages) from
  /// plain local heads; both may have dest == src.
  virtual void Send(int src, int dest, bool remote, PredId pred,
                    const Tuple& tuple) = 0;

  /// Ends global round `round` (1-based): applies every message arriving
  /// this round through `sink` and returns the number of facts that were
  /// new at their destination.
  virtual int64_t EndRound(int round, Sink* sink) = 0;

  /// True when nothing is queued, in flight, or awaiting retransmission.
  /// Quiescence requires Idle() — a silent round with packets still in
  /// flight must not end the run.
  virtual bool Idle() const = 0;

  /// Peer lifecycle hooks for crash simulation. A down peer loses its
  /// in-flight traffic in both directions and its link state is reset so
  /// senders re-offer everything after the restart.
  virtual void OnPeerDown(int peer) { (void)peer; }
  virtual void OnPeerRestart(int peer) { (void)peer; }

  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

/// The synchronous, lossless default: per-destination outboxes flushed at
/// the end of each round. Reproduces the historical PeerSystem::Run
/// delivery byte for byte (same dedup against the destination database at
/// send time, same per-destination union order, same message counts).
class ReliableTransport : public Transport {
 public:
  ReliableTransport(const Catalog* catalog, DbFn db);

  void Send(int src, int dest, bool remote, PredId pred,
            const Tuple& tuple) override;
  int64_t EndRound(int round, Sink* sink) override;
  bool Idle() const override { return outboxes_.empty(); }
  void OnPeerDown(int peer) override { down_.insert(peer); }
  void OnPeerRestart(int peer) override { down_.erase(peer); }

 private:
  const Catalog* catalog_;
  DbFn db_;
  std::map<int, Instance> outboxes_;
  std::set<int> down_;
};

/// The fault-injection network. Local (non-located and self-addressed)
/// heads bypass the network; remote messages run the at-least-once
/// protocol described at the top of this header. Fully deterministic
/// given (schedule, seed): all probabilistic draws come from one Rng
/// consumed in sorted link order.
class UnreliableTransport : public Transport {
 public:
  UnreliableTransport(const Catalog* catalog, DbFn db, FaultSchedule schedule,
                      uint64_t seed);

  void Send(int src, int dest, bool remote, PredId pred,
            const Tuple& tuple) override;
  int64_t EndRound(int round, Sink* sink) override;
  bool Idle() const override;
  void OnPeerDown(int peer) override;
  void OnPeerRestart(int peer) override;

  /// When set, structural events (partition open/heal) are appended as
  /// stable one-line strings — the golden crash-restart trace is built
  /// from this log.
  void set_event_log(std::vector<std::string>* log) { event_log_ = log; }

 private:
  using LinkKey = std::pair<int, int>;  // (src, dest)

  /// One unacknowledged packet in a sender's retransmit window.
  struct OutEntry {
    uint32_t seq = 0;
    PredId pred = 0;
    Tuple tuple;
    int attempts = 0;
    int next_attempt_round = 0;
  };

  /// Sender side of a link.
  struct LinkOut {
    uint32_t next_seq = 0;
    std::deque<OutEntry> window;  // unacked, seq ascending
    /// Send cache: facts already offered on this link (in flight or
    /// acked). Cleared when either endpoint crashes, which is what makes
    /// senders re-offer everything a restarted peer lost.
    std::set<std::pair<PredId, Tuple>> offered;
  };

  /// Receiver side of a link: contiguous-prefix dedup state.
  struct LinkIn {
    uint32_t next_expected = 0;
    std::set<uint32_t> out_of_order;
    bool ack_due = false;
  };

  struct Packet {
    int src = 0;
    int dest = 0;
    uint32_t seq = 0;
    PredId pred = 0;
    Tuple tuple;
  };

  struct AckPacket {
    int src = 0;   // the link's sender (the ack's destination)
    int dest = 0;  // the link's receiver (the ack's origin)
    uint32_t cum = 0;
  };

  bool Severed(int round, int src, int dest) const;
  void LogPartitionTransitions(int round);

  const Catalog* catalog_;
  DbFn db_;
  FaultSchedule schedule_;
  Rng rng_;

  std::map<LinkKey, LinkOut> out_;
  std::map<LinkKey, LinkIn> in_;
  /// round -> payloads/acks arriving at the end of that round.
  std::map<int, std::vector<Packet>> arrivals_;
  std::map<int, std::vector<AckPacket>> ack_arrivals_;
  /// Per-destination buffers for network-bypassing local deliveries,
  /// deduplicated exactly like the reliable outboxes.
  std::map<int, Instance> local_;
  std::set<int> down_;
  std::vector<bool> partition_open_;
  std::vector<std::string>* event_log_ = nullptr;
};

// -- Byte-stream channels (the server's wire substrate) -----------------
//
// The concurrent Datalog server (src/server/, docs/server.md) speaks
// length-prefixed frames over a reliable, ordered byte stream. Unlike the
// round-clocked peer transports above, these channels are plain blocking
// streams driven by real threads: an in-process duplex pair for tests and
// benches, and localhost TCP sockets for the `unchained_serve` binary.

/// A reliable, ordered, blocking byte-stream endpoint. Read blocks until
/// exactly `n` bytes arrived and returns false on a clean close or error.
/// One writer thread and one reader thread may use an endpoint
/// concurrently (full duplex), but each direction has a single owner.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;
  /// Gather write: sends `parts` back to back in one call (one `sendmsg`
  /// on a socket, one append on the in-process pair), so a frame's
  /// length prefix and its payload leave together and neither is copied
  /// into a joint buffer. True once every byte is written; false on a
  /// closed channel or an error.
  virtual bool Write(std::span<const std::string_view> parts) = 0;
  virtual bool Read(void* data, size_t n) = 0;
  /// Closes both directions; pending and future Reads return false.
  virtual void Close() = 0;
};

/// An in-process duplex channel pair: bytes written to one endpoint are
/// read from the other, each direction a mutex/condvar byte queue.
/// Closing either endpoint closes the pair.
std::pair<std::unique_ptr<ByteChannel>, std::unique_ptr<ByteChannel>>
InProcessChannelPair();

/// Listening half of a localhost TCP (IPv4) socket transport.
class SocketListener {
 public:
  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral
  /// port (read it back with port()).
  static Result<std::unique_ptr<SocketListener>> Listen(int port);
  ~SocketListener();

  int port() const { return port_; }
  /// Blocks for the next connection; nullptr once the listener is closed.
  std::unique_ptr<ByteChannel> Accept();
  /// Unblocks pending and future Accepts. Safe from another thread.
  void Close();

 private:
  SocketListener(int fd, int port) : fd_(fd), port_(port) {}
  std::atomic<int> fd_{-1};  // Close races Accept from another thread
  int port_ = 0;
};

/// Connects to 127.0.0.1:`port`.
Result<std::unique_ptr<ByteChannel>> SocketConnect(int port);

}  // namespace datalog

#endif  // UNCHAINED_DIST_TRANSPORT_H_
