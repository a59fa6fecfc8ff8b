#include "dist/transport.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "obs/trace.h"

namespace datalog {

bool NetworkPartition::Severs(int round, int src, int dest) const {
  if (!Active(round)) return false;
  auto in_group = [this](int peer) {
    return std::find(group.begin(), group.end(), peer) != group.end();
  };
  return in_group(src) != in_group(dest);
}

namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

/// A finite number: strtod also reads "nan" and "inf", which every range
/// check lets through.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(*out);
}

/// A decimal that fits in an int: from_chars refuses one out of range
/// instead of wrapping it.
bool ParseInt(const std::string& s, int* out) {
  const char* end = s.data() + s.size();
  const auto [stop, error] = std::from_chars(s.data(), end, *out);
  return error == std::errc() && stop == end;
}

Status BadSpec(const std::string& token, const std::string& why) {
  return Status::InvalidProgram("fault spec '" + token + "': " + why);
}

}  // namespace

Result<FaultSpec> ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  if (spec.empty()) return out;
  for (const std::string& token : Split(spec, ',')) {
    if (token.empty()) continue;
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return BadSpec(token, "expected key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    double d = 0;
    int i = 0;
    if (key == "drop" || key == "dup" || key == "reorder" || key == "delay") {
      if (!ParseDouble(value, &d) || d < 0 || d > 1) {
        return BadSpec(token, "probability must be in [0, 1]");
      }
      if (key == "drop") out.faults.drop = d;
      if (key == "dup") out.faults.duplicate = d;
      if (key == "reorder") out.faults.reorder = d;
      if (key == "delay") out.faults.delay = d;
    } else if (key == "max_delay" || key == "retries" || key == "backoff") {
      if (!ParseInt(value, &i) || i < 1) {
        return BadSpec(token, "expected a positive integer");
      }
      if (key == "max_delay") out.faults.max_delay_rounds = i;
      if (key == "retries") out.faults.max_retries = i;
      if (key == "backoff") out.faults.max_backoff_rounds = i;
    } else if (key == "partition") {
      // partition=FROM:UNTIL:P+P+...
      std::vector<std::string> parts = Split(value, ':');
      NetworkPartition p;
      if (parts.size() != 3 || !ParseInt(parts[0], &p.from_round) ||
          !ParseInt(parts[1], &p.until_round)) {
        return BadSpec(token, "expected FROM:UNTIL:P+P+...");
      }
      if (p.from_round < 1 || p.until_round <= p.from_round) {
        return BadSpec(token, "rounds must satisfy 1 <= FROM < UNTIL");
      }
      for (const std::string& peer : Split(parts[2], '+')) {
        int idx = 0;
        if (!ParseInt(peer, &idx) || idx < 0) {
          return BadSpec(token, "bad peer index '" + peer + "'");
        }
        p.group.push_back(idx);
      }
      out.faults.partitions.push_back(std::move(p));
    } else if (key == "crash") {
      // crash=PEER:ROUND:DOWN
      std::vector<std::string> parts = Split(value, ':');
      CrashEvent ev;
      if (parts.size() != 3 || !ParseInt(parts[0], &ev.peer) ||
          !ParseInt(parts[1], &ev.at_round) ||
          !ParseInt(parts[2], &ev.down_rounds)) {
        return BadSpec(token, "expected PEER:ROUND:DOWN");
      }
      if (ev.peer < 0 || ev.at_round < 1 || ev.down_rounds < 1) {
        return BadSpec(token, "peer/round/down out of range");
      }
      out.crashes.events.push_back(ev);
    } else {
      return BadSpec(token, "unknown key '" + key + "'");
    }
  }
  return out;
}

// -- ReliableTransport ---------------------------------------------------

ReliableTransport::ReliableTransport(const Catalog* catalog, DbFn db)
    : catalog_(catalog), db_(std::move(db)) {}

void ReliableTransport::Send(int src, int dest, bool remote, PredId pred,
                             const Tuple& tuple) {
  (void)src;
  if (down_.count(dest) > 0) {
    // Messages addressed to a dead host are lost; the sender re-offers
    // them after the restart because the restored database fails the
    // send-time dedup below.
    if (remote) ++stats_.dropped;
    return;
  }
  if (db_(dest).Contains(pred, tuple)) return;
  auto [it, created] = outboxes_.try_emplace(dest, Instance(catalog_));
  const bool fresh = it->second.Insert(pred, tuple);
  if (fresh && remote) {
    ++stats_.sent;
    ++stats_.delivered;
  }
}

int64_t ReliableTransport::EndRound(int round, Sink* sink) {
  (void)round;
  int64_t added = 0;
  for (auto& [dest, outbox] : outboxes_) {
    added += static_cast<int64_t>(sink->DeliverAll(dest, outbox));
  }
  outboxes_.clear();
  return added;
}

// -- UnreliableTransport -------------------------------------------------

UnreliableTransport::UnreliableTransport(const Catalog* catalog, DbFn db,
                                         FaultSchedule schedule, uint64_t seed)
    : catalog_(catalog),
      db_(std::move(db)),
      schedule_(std::move(schedule)),
      rng_(seed),
      partition_open_(schedule_.partitions.size(), false) {}

bool UnreliableTransport::Severed(int round, int src, int dest) const {
  for (const NetworkPartition& p : schedule_.partitions) {
    if (p.Severs(round, src, dest)) return true;
  }
  return false;
}

void UnreliableTransport::Send(int src, int dest, bool remote, PredId pred,
                               const Tuple& tuple) {
  if (!remote || src == dest) {
    // Local heads (and self-addressed located heads) bypass the network:
    // a peer cannot lose a message to itself.
    if (db_(dest).Contains(pred, tuple)) return;
    auto [it, created] = local_.try_emplace(dest, Instance(catalog_));
    const bool fresh = it->second.Insert(pred, tuple);
    if (fresh && remote) {
      ++stats_.sent;
      ++stats_.delivered;
    }
    return;
  }
  LinkOut& link = out_[{src, dest}];
  if (!link.offered.insert({pred, tuple}).second) return;  // already in flight
  OutEntry entry;
  entry.seq = link.next_seq++;
  entry.pred = pred;
  entry.tuple = tuple;
  entry.next_attempt_round = 0;  // due immediately
  link.window.push_back(std::move(entry));
}

void UnreliableTransport::LogPartitionTransitions(int round) {
  for (size_t i = 0; i < schedule_.partitions.size(); ++i) {
    const NetworkPartition& p = schedule_.partitions[i];
    const bool active = p.Active(round);
    if (active == partition_open_[i]) continue;
    partition_open_[i] = active;
    OBS_SPAN("dist.partition", {{"round", round}, {"open", active ? 1 : 0}});
    if (event_log_ != nullptr) {
      std::string peers;
      for (size_t k = 0; k < p.group.size(); ++k) {
        if (k > 0) peers += ",";
        peers += std::to_string(p.group[k]);
      }
      event_log_->push_back(
          active ? "round " + std::to_string(round) + ": partition isolates {" +
                       peers + "} until round " + std::to_string(p.until_round)
                 : "round " + std::to_string(round) + ": partition around {" +
                       peers + "} healed");
    }
  }
}

int64_t UnreliableTransport::EndRound(int round, Sink* sink) {
  LogPartitionTransitions(round);

  // 1. Acks arriving this round truncate their link's retransmit window.
  //    Acks are a pure optimization: losing every ack only costs extra
  //    retransmissions, never correctness.
  if (auto it = ack_arrivals_.find(round); it != ack_arrivals_.end()) {
    for (const AckPacket& ack : it->second) {
      auto lo = out_.find({ack.src, ack.dest});
      if (lo == out_.end()) continue;  // link reset by a crash in between
      std::deque<OutEntry>& window = lo->second.window;
      while (!window.empty() && window.front().seq < ack.cum) {
        window.pop_front();
      }
    }
    ack_arrivals_.erase(it);
  }

  // 2. Pump retransmit windows onto the wire in sorted link order — the
  //    fixed iteration order is what makes the Rng draws reproducible.
  for (auto& [key, link] : out_) {
    const int src = key.first;
    const int dest = key.second;
    if (down_.count(src) > 0) continue;  // cleared on crash; defensive
    for (OutEntry& entry : link.window) {
      if (entry.next_attempt_round > round) continue;
      ++entry.attempts;
      if (entry.attempts > 1) ++stats_.retries;
      const int exponent = std::min(entry.attempts - 1, 20);
      const int backoff =
          std::max(1, std::min(1 << exponent, schedule_.max_backoff_rounds));
      entry.next_attempt_round = round + backoff;
      if (entry.attempts >= schedule_.max_retries) {
        // Burst exhausted: restart the backoff (see FaultSchedule — the
        // sender must keep retrying until acknowledged).
        ++stats_.expired;
        entry.attempts = 0;
      }
      ++stats_.sent;
      if (Severed(round, src, dest) || down_.count(dest) > 0) {
        ++stats_.dropped;
        continue;
      }
      if (schedule_.drop > 0 && rng_.Chance(schedule_.drop)) {
        ++stats_.dropped;
        continue;
      }
      int delay = 0;
      if (schedule_.delay > 0 && rng_.Chance(schedule_.delay)) {
        delay = 1 + rng_.UniformInt(std::max(1, schedule_.max_delay_rounds));
        ++stats_.delayed;
      }
      arrivals_[round + delay].push_back(
          Packet{src, dest, entry.seq, entry.pred, entry.tuple});
      if (schedule_.duplicate > 0 && rng_.Chance(schedule_.duplicate)) {
        ++stats_.duplicated;
        int dup_delay = 0;
        if (schedule_.delay > 0 && rng_.Chance(schedule_.delay)) {
          dup_delay =
              1 + rng_.UniformInt(std::max(1, schedule_.max_delay_rounds));
        }
        arrivals_[round + dup_delay].push_back(
            Packet{src, dest, entry.seq, entry.pred, entry.tuple});
      }
    }
  }

  // 3. Deliver this round's arrivals, possibly reordered within the batch.
  int64_t new_facts = 0;
  if (auto it = arrivals_.find(round); it != arrivals_.end()) {
    std::vector<Packet>& batch = it->second;
    if (schedule_.reorder > 0 && batch.size() > 1) {
      for (size_t i = batch.size(); i-- > 1;) {
        if (rng_.Chance(schedule_.reorder)) {
          std::swap(batch[i], batch[rng_.Uniform(i)]);
          ++stats_.reordered;
        }
      }
    }
    for (Packet& pkt : batch) {
      if (down_.count(pkt.dest) > 0) {
        ++stats_.dropped;  // lost at the dead host
        continue;
      }
      LinkIn& in = in_[{pkt.src, pkt.dest}];
      in.ack_due = true;
      const bool seen =
          pkt.seq < in.next_expected || in.out_of_order.count(pkt.seq) > 0;
      if (seen) {
        ++stats_.redeliveries;
        continue;
      }
      in.out_of_order.insert(pkt.seq);
      while (in.out_of_order.count(in.next_expected) > 0) {
        in.out_of_order.erase(in.next_expected);
        ++in.next_expected;
      }
      if (sink->Deliver(pkt.dest, pkt.pred, pkt.tuple)) {
        ++new_facts;
        ++stats_.delivered;
      }
    }
    arrivals_.erase(it);
  }

  // 4. Emit cumulative acks on every link that heard something this round
  //    (fresh or duplicate — a redelivery means an earlier ack was lost).
  for (auto& [key, in] : in_) {
    if (!in.ack_due) continue;
    in.ack_due = false;
    const int link_src = key.first;
    const int link_dest = key.second;
    ++stats_.acks;
    if (Severed(round, link_dest, link_src) ||
        (schedule_.drop > 0 && rng_.Chance(schedule_.drop))) {
      continue;  // ack lost; the sender retries and the receiver re-acks
    }
    ack_arrivals_[round + 1].push_back(
        AckPacket{link_src, link_dest, in.next_expected});
  }

  // 5. Network-bypassing local deliveries.
  for (auto& [dest, outbox] : local_) {
    new_facts += static_cast<int64_t>(sink->DeliverAll(dest, outbox));
  }
  local_.clear();
  return new_facts;
}

bool UnreliableTransport::Idle() const {
  if (!local_.empty() || !arrivals_.empty()) return false;
  for (const auto& [key, link] : out_) {
    if (!link.window.empty()) return false;
  }
  return true;
}

void UnreliableTransport::OnPeerDown(int peer) {
  down_.insert(peer);
  // Both directions of every link touching the peer reset: sequence
  // numbers, retransmit windows and send caches die with the incarnation,
  // so after the restart senders re-offer everything from scratch and the
  // receiver accepts a fresh sequence stream.
  for (auto it = out_.begin(); it != out_.end();) {
    if (it->first.first == peer || it->first.second == peer) {
      it = out_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = in_.begin(); it != in_.end();) {
    if (it->first.first == peer || it->first.second == peer) {
      it = in_.erase(it);
    } else {
      ++it;
    }
  }
  // In-flight traffic involving the peer goes down with it.
  for (auto it = arrivals_.begin(); it != arrivals_.end();) {
    std::vector<Packet>& batch = it->second;
    const size_t before = batch.size();
    batch.erase(std::remove_if(batch.begin(), batch.end(),
                               [peer](const Packet& p) {
                                 return p.src == peer || p.dest == peer;
                               }),
                batch.end());
    stats_.dropped += static_cast<int64_t>(before - batch.size());
    it = batch.empty() ? arrivals_.erase(it) : std::next(it);
  }
  for (auto it = ack_arrivals_.begin(); it != ack_arrivals_.end();) {
    std::vector<AckPacket>& batch = it->second;
    batch.erase(std::remove_if(batch.begin(), batch.end(),
                               [peer](const AckPacket& a) {
                                 return a.src == peer || a.dest == peer;
                               }),
                batch.end());
    it = batch.empty() ? ack_arrivals_.erase(it) : std::next(it);
  }
}

void UnreliableTransport::OnPeerRestart(int peer) { down_.erase(peer); }

}  // namespace datalog
