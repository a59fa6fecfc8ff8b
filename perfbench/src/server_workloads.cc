// The three server workloads (README.md#workloads): big-view, churn and
// durable. Each one starts the real threaded Server behind a localhost
// socket, drives it with closed-loop writer sessions and open-loop reader
// sessions, and afterwards checks every answer against a sequential
// IncrementalView replay of the commit order the clients observed.
//
// The traced run (--trace 1) drives the same op streams four ways — over
// sockets untraced and traced, in process through Server::Call, and
// single-threaded through the scheduler surface with every committed
// batch also pushed through the layer entry points on shadow objects —
// and derives the per-layer split from differences of means.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "core/engine.h"
#include "dist/transport.h"
#include "eval/incremental.h"
#include "eval/test_hooks.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "store/recover.h"
#include "store/snapshotter.h"
#include "store/store.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using datalog::ByteChannel;
using datalog::Engine;
using datalog::FactUpdate;
using datalog::IncrementalView;
using datalog::Instance;
using datalog::Program;
using datalog::StatusCode;
using datalog::server::Request;
using datalog::server::Response;
using datalog::server::Server;

constexpr int kPrivateEdges = 4;

const char kTcProgram[] =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Z) :- t(X, Y), e(Y, Z).\n";
// The stratified form of Example 4.3: the complement of TC over the nodes.
const char kComplementProgram[] =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Z) :- t(X, Y), e(Y, Z).\n"
    "ct(X, Y) :- node(X), node(Y), !t(X, Y).\n";

enum class UpdateStyle { kTogglePrivate, kCutRestore };

struct ReadSpec {
  Request::Kind kind = Request::Kind::kQuery;
  std::string pred;
};

/// One server workload. Sizes are the committed ones; --tiny shrinks them.
struct Spec {
  std::string name;
  const char* program = kTcProgram;
  /// Chain nodes 0..chain, edges e(i, i+1).
  int chain = 0;
  /// node(v) facts for every chain node (the complement's domain).
  bool nodes = false;
  int writers = 1;
  UpdateStyle style = UpdateStyle::kTogglePrivate;
  /// Cut-restore batches cut 1..batch_max owned edges at a time.
  int batch_max = 1;
  int readers = 1;
  /// Open-loop rate of each reader session, reads per second.
  double read_rate = 50;
  /// Each reader cycles through these, starting at its own index.
  std::vector<ReadSpec> read_cycle;
  bool durable = false;
  /// Compaction cadence of the durable server's store, and of the shadow
  /// store every workload's traced run logs its batches through.
  int snapshot_every = 64;
  /// Durable preparation: compact once after this many commits, then
  /// leave prep_tail more records in the WAL for set-up to replay.
  int prep_snapshot_at = 0;
  int prep_tail = 0;
  /// Set-ups timed per run; setup_s is their median.
  int setups = 50;
  /// peak_rss_mb covers the load phase up to this many acked commits, the
  /// same count on every host and at every throughput.
  int64_t rss_commits = 1000;
};

/// A run is invalid when its open-loop senders ran more than this late at
/// the 99th percentile: the read latencies, counted from the due time,
/// would then measure the client rather than the server.
constexpr double kReadLateLimitMs = 25;

/// Milliseconds between host-speed probes on the server CPU during load.
constexpr int kProbeEveryMs = 25;

/// Where the threads run. Every server thread (writer, readers, socket
/// sessions, the initial evaluation) runs on one CPU, and every client
/// thread on the others, so the host-speed probe can run on the CPU that
/// does the server's work (README.md#host-speed).
struct Placement {
  std::vector<int> server;
  std::vector<int> clients;
};

/// Computed from the calling thread's CPUs on first use, which
/// RunServerWorkload makes before it pins anything.
const Placement& ThePlacement() {
  static const Placement placement = [] {
    Placement p;
    std::vector<int> cpus = AllowedCpus();
    if (cpus.empty()) return p;
    p.server = {cpus.back()};
    if (cpus.size() > 1) cpus.pop_back();
    p.clients = cpus;
    return p;
  }();
  return placement;
}

/// Moves the calling thread (and the threads it creates meanwhile) to the
/// server CPU for the guard's lifetime, then back to where it was.
class OnServerCpu {
 public:
  OnServerCpu() : before_(AllowedCpus()) {
    PinThisThread(ThePlacement().server);
  }
  ~OnServerCpu() { PinThisThread(before_); }
  OnServerCpu(const OnServerCpu&) = delete;
  OnServerCpu& operator=(const OnServerCpu&) = delete;

 private:
  std::vector<int> before_;
};

Spec MakeSpec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "big-view") {
    s.chain = tiny ? 24 : 128;
    s.writers = 1;
    s.readers = 2;
    // The readers share the server's CPU with the writer. At 60/s each
    // they took about 45% of it, and the commit median then grew nearly
    // with the square of the CPU's slowness, more than the probe scales out.
    s.read_rate = tiny ? 40 : 30;
    // Two predicate reads per full-snapshot read, so the median read
    // lies inside the predicate reads' mode rather than between modes.
    s.read_cycle = {{Request::Kind::kQuery, "t"},
                    {Request::Kind::kQuery, "t"},
                    {Request::Kind::kSnapshotQuery, ""}};
  } else if (name == "churn") {
    s.program = kComplementProgram;
    s.chain = tiny ? 16 : 64;
    s.nodes = true;
    s.writers = 2;
    s.style = UpdateStyle::kCutRestore;
    s.batch_max = 8;
    s.readers = 1;
    s.read_rate = tiny ? 40 : 400;
    s.read_cycle = {{Request::Kind::kQuery, "e"}};
  } else if (name == "durable") {
    s.chain = 16;
    s.writers = 3;
    s.readers = 1;
    s.read_rate = tiny ? 40 : 120;
    s.read_cycle = {{Request::Kind::kQuery, "t"}};
    s.durable = true;
    s.prep_snapshot_at = tiny ? 64 : 4096;
    s.prep_tail = tiny ? 40 : 3000;
    s.rss_commits = 10000;
  }
  if (tiny) s.setups = 1;
  return s;
}

// -- Inputs -------------------------------------------------------------

int MaxValue(const Spec& spec) {
  // Chain values, then kPrivateEdges disjoint private pairs per writer plus
  // one extra "writer" for the durable preparation stream.
  return spec.chain + 2 + 2 * kPrivateEdges * (spec.writers + 1);
}

std::string EdgeToken(char sign, int a, int b) {
  return std::string(1, sign) + "e(" + std::to_string(a) + "," +
         std::to_string(b) + ")";
}

/// A writer session's seeded op stream: the i-th call returns the update
/// tokens of its i-th commit. Every commit changes the base (no no-ops).
class UpdateStream {
 public:
  UpdateStream(const Spec& spec, int writer, uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(writer) +
             1),
        style_(spec.style),
        batch_max_(spec.batch_max) {
    if (style_ == UpdateStyle::kTogglePrivate) {
      for (int j = 0; j < kPrivateEdges; ++j) {
        const int a = spec.chain + 1 + 2 * (writer * kPrivateEdges + j);
        private_.emplace_back(a, a + 1);
      }
      present_.assign(private_.size(), false);
    } else {
      for (int i = spec.chain / 4; i < 3 * spec.chain / 4; ++i) {
        if (i % spec.writers == writer) owned_.push_back(i);
      }
    }
  }

  std::string Next() {
    std::string tokens;
    if (style_ == UpdateStyle::kTogglePrivate) {
      const size_t j = rng_.Uniform(private_.size());
      tokens = EdgeToken(present_[j] ? '-' : '+', private_[j].first,
                         private_[j].second);
      present_[j] = !present_[j];
      return tokens;
    }
    if (cut_.empty()) {
      const size_t k = std::min(owned_.size(),
                                1 + rng_.Uniform(static_cast<size_t>(
                                        batch_max_)));
      std::vector<int> pool = owned_;
      for (size_t i = 0; i < k; ++i) {
        std::swap(pool[i], pool[i + rng_.Uniform(pool.size() - i)]);
        cut_.push_back(pool[i]);
      }
      for (int i : cut_) {
        if (!tokens.empty()) tokens += ' ';
        tokens += EdgeToken('-', i, i + 1);
      }
    } else {
      for (int i : cut_) {
        if (!tokens.empty()) tokens += ' ';
        tokens += EdgeToken('+', i, i + 1);
      }
      cut_.clear();
    }
    return tokens;
  }

 private:
  datalog::Rng rng_;
  UpdateStyle style_;
  int batch_max_;
  std::vector<std::pair<int, int>> private_;
  std::vector<bool> present_;
  std::vector<int> owned_;
  std::vector<int> cut_;
};

/// Catalog, symbols, program and base facts of one process-side party
/// (a server, a replay, a shadow). Every party interns the same values in
/// the same order first, so their snapshot bytes are comparable.
struct Env {
  Engine engine;
  std::unique_ptr<Program> program;
  std::unique_ptr<Instance> base;
};

std::unique_ptr<Env> MakeEnv(const Spec& spec) {
  auto env = std::make_unique<Env>();
  auto program = env->engine.Parse(spec.program);
  if (!program.ok()) return nullptr;
  env->program = std::make_unique<Program>(std::move(*program));
  for (int v = 0; v <= MaxValue(spec); ++v) env->engine.symbols().InternInt(v);
  std::string facts;
  for (int i = 0; i < spec.chain; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  if (spec.nodes) {
    for (int i = 0; i <= spec.chain; ++i) {
      facts += "node(" + std::to_string(i) + ").\n";
    }
  }
  env->base = std::make_unique<Instance>(&env->engine.catalog());
  if (!env->engine.AddFacts(facts, env->base.get()).ok()) return nullptr;
  return env;
}

/// A sequential replay: a fresh environment and view fed commit tokens in
/// order — the reference every served answer is compared against.
class Replay {
 public:
  explicit Replay(const Spec& spec) : env_(MakeEnv(spec)) {
    if (env_ == nullptr) return;
    auto view = IncrementalView::Create(*env_->program, env_->engine.catalog(),
                                        *env_->base);
    if (view.ok()) view_ = std::move(*view);
  }
  bool ok() const { return view_ != nullptr; }
  bool Apply(const std::string& tokens) {
    std::vector<FactUpdate> batch;
    return ok() &&
           datalog::server::ParseUpdateTokens(tokens, env_->engine.catalog(),
                                              &env_->engine.symbols(),
                                              &batch) &&
           view_->ApplyBatch(batch).ok();
  }
  const Instance& model() const { return view_->model(); }

 private:
  std::unique_ptr<Env> env_;
  std::unique_ptr<IncrementalView> view_;
};

// -- Socket client ------------------------------------------------------

/// Client-side timestamps of one request: encode, write, read-wait and
/// decode are the four client spans of the traced run.
struct ClientTimes {
  Clock::time_point encode0, encode1, write1, read1, decode1;
};

class Connection {
 public:
  explicit Connection(std::unique_ptr<ByteChannel> channel)
      : channel_(std::move(channel)) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const Request& request, ClientTimes* t) {
    t->encode0 = Clock::now();
    const std::string payload = datalog::server::EncodeRequest(request);
    t->encode1 = Clock::now();
    const bool ok = datalog::server::WriteFrame(channel_.get(), payload);
    t->write1 = Clock::now();
    return ok;
  }
  bool Receive(Response* response, ClientTimes* t) {
    std::string payload;
    const bool read = datalog::server::ReadFrame(channel_.get(), &payload);
    t->read1 = Clock::now();
    const bool ok =
        read && datalog::server::DecodeResponse(payload, response);
    t->decode1 = Clock::now();
    return ok;
  }
  bool Call(const Request& request, Response* response, ClientTimes* t) {
    return Send(request, t) && Receive(response, t);
  }
  void Close() {
    if (channel_ == nullptr) return;
    ClientTimes t;
    Send(Request{Request::Kind::kClose, "", 0, nullptr}, &t);
    channel_->Close();
    channel_.reset();
  }

 private:
  std::unique_ptr<ByteChannel> channel_;
};

// -- A running server ---------------------------------------------------

/// A server with its environment, and — when listening — the socket
/// listener and its accept thread. Tears down in the safe order.
struct LiveServer {
  std::unique_ptr<Env> env;
  std::unique_ptr<Server> server;
  std::unique_ptr<datalog::SocketListener> listener;
  std::thread accept_thread;

  LiveServer() = default;
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  ~LiveServer() { Shutdown(); }

  /// Stops accepting and serving; the server (and its store) stays for
  /// post-run counters until Destroy.
  void Shutdown() {
    if (listener != nullptr) listener->Close();
    if (accept_thread.joinable()) accept_thread.join();
    listener.reset();
    if (server != nullptr) server->Stop();
  }
  /// Destroys the server, which flushes a durable store.
  void Destroy() {
    Shutdown();
    server.reset();
  }
};

datalog::server::ServerOptions Options(const Spec& spec,
                                       const std::string& dir) {
  datalog::server::ServerOptions options;
  if (spec.durable) {
    options.durability.dir = dir;
    options.durability.sync_every = 1;
    options.durability.snapshot_every = spec.snapshot_every;
  }
  return options;
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// Creates (and for `listen`, starts and connects to) a server; the time
/// from Server::Create to the first acknowledged ping is `*setup_ms`.
/// Runs on the server CPU, so every thread the server starts stays there.
std::unique_ptr<LiveServer> StartServer(const Spec& spec,
                                        const std::string& prepared_dir,
                                        const std::string& store_dir,
                                        bool start, bool listen,
                                        std::unique_ptr<Connection>* first,
                                        double* setup_ms, std::string* error) {
  OnServerCpu pin;
  auto live = std::make_unique<LiveServer>();
  live->env = MakeEnv(spec);
  if (live->env == nullptr) {
    *error = "environment set-up failed";
    return nullptr;
  }
  if (spec.durable) CopyDir(prepared_dir, store_dir);
  Env& env = *live->env;
  const Clock::time_point t0 = Clock::now();
  auto server = Server::Create(*env.program, &env.engine.catalog(),
                               &env.engine.symbols(), *env.base,
                               Options(spec, store_dir));
  if (!server.ok()) {
    *error = "Server::Create: " + server.status().message();
    return nullptr;
  }
  live->server = std::move(*server);
  if (start) live->server->Start();
  if (listen) {
    auto listener = datalog::SocketListener::Listen(0);
    if (!listener.ok()) {
      *error = "listen: " + listener.status().message();
      return nullptr;
    }
    live->listener = std::move(*listener);
    Server* raw = live->server.get();
    datalog::SocketListener* l = live->listener.get();
    live->accept_thread = std::thread([raw, l] { raw->ServeListener(l); });
    auto channel = datalog::SocketConnect(live->listener->port());
    if (!channel.ok()) {
      *error = "connect: " + channel.status().message();
      return nullptr;
    }
    *first = std::make_unique<Connection>(std::move(*channel));
    Response pong;
    ClientTimes t;
    if (!(*first)->Call(Request{Request::Kind::kPing, "", 0, nullptr}, &pong,
                        &t) ||
        pong.status != StatusCode::kOk) {
      *error = "first ping failed";
      return nullptr;
    }
  }
  if (setup_ms != nullptr) *setup_ms = MsBetween(t0, Clock::now());
  return live;
}

/// One acknowledged commit as its writer saw it.
struct Ack {
  int64_t epoch = 0;
  std::string tokens;
};

/// Builds the durable workload's starting directory, untimed: a compacted
/// snapshot plus a WAL tail. Returns the preparation commits in order.
bool Prepare(const Spec& spec, const std::string& dir, uint64_t seed,
             std::vector<Ack>* commits, std::string* error) {
  fs::remove_all(dir);
  std::unique_ptr<Env> env = MakeEnv(spec);
  if (env == nullptr) return false;
  datalog::server::ServerOptions options;
  options.durability.dir = dir;
  options.durability.sync_every = 0;
  options.durability.snapshot_every = spec.prep_snapshot_at;
  auto server = Server::Create(*env->program, &env->engine.catalog(),
                               &env->engine.symbols(), *env->base, options);
  if (!server.ok()) {
    *error = "prepare: " + server.status().message();
    return false;
  }
  UpdateStream stream(spec, spec.writers, seed);
  for (int i = 0; i < spec.prep_snapshot_at + spec.prep_tail; ++i) {
    const std::string tokens = stream.Next();
    auto ticket = (*server)->SubmitUpdate(tokens);
    Response response;
    if (!ticket.ok() || !(*server)->ApplyOneQueued() ||
        !(*server)->UpdateOutcome(*ticket, &response) ||
        response.status != StatusCode::kOk) {
      *error = "prepare: commit refused";
      return false;
    }
    commits->push_back(Ack{response.epoch, tokens});
  }
  return true;
}

// -- Driving the load ---------------------------------------------------

/// How the clients reach the server in one phase.
enum class Drive { kSocket, kInProcess };

struct ReadRecord {
  int reader = 0;
  int kind_index = 0;
  Clock::time_point due;
  Clock::time_point sent;
  ClientTimes times;
  Response response;  // body cleared after hashing
  uint64_t hash = 0;
  size_t body_bytes = 0;
  bool ok = false;
};

struct WriterLog {
  /// Per op of the session's stream: the acked epoch, or -1. The tokens
  /// are regenerated from the seed for the check, which keeps the
  /// client's memory out of the server's peak RSS.
  std::vector<int64_t> epochs;
  int64_t acked = 0;
  /// Commits acked inside the measured window.
  int64_t window_acked = 0;
  /// Encode start to decoded ack, measured window only.
  Samples latency_ms;
  int64_t attempted = 0;
  std::vector<std::string> errors;
};

/// What one load phase produced.
struct PhaseResult {
  std::vector<WriterLog> writers;
  std::vector<std::vector<ReadRecord>> readers;
  Clock::time_point window_start;
  Clock::time_point window_end;
  double peak_rss_mb = 0;
  int64_t live_snapshots_max = 0;
  /// Host-speed probes on the server CPU through the measured window.
  Samples probe_ms;
  /// Sessions that could not connect.
  int64_t connect_failures = 0;
};

/// Runs closed-loop writers and open-loop readers for `seconds`, the
/// first `warmup` of which are excluded from timing. Over sockets the
/// writer 0 session reuses `first` (the connection of the set-up ping).
PhaseResult RunLoad(const Spec& spec, LiveServer* live, Drive drive,
                    std::unique_ptr<Connection>* first, uint64_t seed,
                    double seconds, double warmup, SpanRecorder* trace,
                    bool sample_live) {
  PhaseResult result;
  result.writers.resize(static_cast<size_t>(spec.writers));
  result.readers.resize(static_cast<size_t>(spec.readers));
  Server* server = live->server.get();

  std::vector<std::unique_ptr<Connection>> conns;
  if (drive == Drive::kSocket) {
    conns.push_back(std::move(*first));
    for (int i = 1; i < spec.writers + spec.readers; ++i) {
      auto channel = datalog::SocketConnect(live->listener->port());
      if (!channel.ok()) ++result.connect_failures;
      conns.push_back(channel.ok()
                          ? std::make_unique<Connection>(std::move(*channel))
                          : nullptr);
    }
  }

  const double interval_s = 1.0 / spec.read_rate;
  const size_t max_reads =
      static_cast<size_t>(seconds * spec.read_rate) + 2;
  for (auto& r : result.readers) r.resize(max_reads);

  TrimHeap();
  std::atomic<int64_t> acked_total{0};
  RssSampler rss;
  rss.Start(&acked_total, spec.rss_commits);
  std::atomic<bool> sampling{sample_live};
  std::atomic<int64_t> live_max{0};
  std::thread live_sampler;
  if (sample_live) {
    live_sampler = std::thread([&] {
      while (sampling.load()) {
        live_max = std::max(live_max.load(), server->snapshots().live());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point window_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  result.window_start = window_start;
  result.window_end = end;

  std::vector<SpanRecorder> writer_traces(
      static_cast<size_t>(spec.writers), SpanRecorder(trace->enabled()));
  std::vector<SpanRecorder> reader_traces(
      static_cast<size_t>(spec.readers) * 2, SpanRecorder(trace->enabled()));

  std::vector<std::thread> threads;
  for (int w = 0; w < spec.writers; ++w) {
    threads.emplace_back([&, w] {
      WriterLog& log = result.writers[static_cast<size_t>(w)];
      SpanRecorder& spans = writer_traces[static_cast<size_t>(w)];
      Connection* conn =
          drive == Drive::kSocket ? conns[static_cast<size_t>(w)].get()
                                  : nullptr;
      if (drive == Drive::kSocket && conn == nullptr) {
        log.errors.push_back("writer connection failed");
        return;
      }
      UpdateStream stream(spec, w, seed);
      int64_t last_epoch = -1;
      for (int64_t op = 0; Clock::now() < end; ++op) {
        const std::string tokens = stream.Next();
        const Request request{Request::Kind::kUpdate, tokens, 0, nullptr};
        Response response;
        ClientTimes t;
        bool transport_ok = true;
        if (drive == Drive::kSocket) {
          transport_ok = conn->Call(request, &response, &t);
        } else {
          t.encode0 = Clock::now();
          response = server->Call(request);
          t.decode1 = Clock::now();
        }
        ++log.attempted;
        log.epochs.push_back(-1);
        if (!transport_ok) {
          log.errors.push_back("commit transport error");
          break;
        }
        if (response.status != StatusCode::kOk) {
          log.errors.push_back("commit status " +
                               std::to_string(static_cast<int>(
                                   response.status)) +
                               ": " + response.error);
          continue;
        }
        if (response.epoch <= last_epoch) {
          log.errors.push_back("commit epoch went backwards in a session");
        }
        last_epoch = response.epoch;
        log.epochs.back() = response.epoch;
        ++log.acked;
        ++acked_total;
        if (t.decode1 >= window_start && t.decode1 <= end) ++log.window_acked;
        if (t.encode0 >= window_start && t.decode1 <= end) {
          log.latency_ms.Add(MsBetween(t.encode0, t.decode1));
        }
        if (spans.enabled()) {
          const int64_t root =
              spans.Record("client.commit", op, -1, t.encode0, t.decode1);
          if (drive == Drive::kSocket) {
            spans.Record("client.encode", op, root, t.encode0, t.encode1);
            spans.Record("client.write", op, root, t.encode1, t.write1);
            spans.Record("client.read_wait", op, root, t.write1, t.read1);
            spans.Record("client.decode", op, root, t.read1, t.decode1);
          }
        }
      }
    });
  }

  for (int r = 0; r < spec.readers; ++r) {
    // Reader sessions are spread evenly over one interval. A seeded phase
    // would make how often two readers meet at one epoch, and so how much
    // serialization the server does, differ from seed to seed.
    const double offset_s = interval_s * (r + 0.5) / spec.readers;
    auto due_of = [=](size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             offset_s + interval_s * static_cast<double>(i)));
    };
    std::vector<ReadRecord>* records = &result.readers[static_cast<size_t>(r)];
    auto request_of = [&spec, r](size_t i) {
      const size_t k = (i + static_cast<size_t>(r)) % spec.read_cycle.size();
      return std::make_pair(
          static_cast<int>(k),
          Request{spec.read_cycle[k].kind, spec.read_cycle[k].pred, 0,
                  nullptr});
    };
    if (drive == Drive::kInProcess) {
      threads.emplace_back([&, r, records, due_of, request_of] {
        SpanRecorder& spans = reader_traces[static_cast<size_t>(r) * 2];
        for (size_t i = 0; i < records->size(); ++i) {
          ReadRecord& rec = (*records)[i];
          rec.due = due_of(i);
          if (rec.due >= end) break;
          std::this_thread::sleep_until(rec.due);
          auto [k, request] = request_of(i);
          rec.reader = r;
          rec.kind_index = k;
          rec.sent = Clock::now();
          rec.times.encode0 = rec.sent;
          rec.response = server->Call(request);
          rec.times.decode1 = Clock::now();
          rec.ok = true;
          spans.Record("client.read", static_cast<int64_t>(i), -1,
                       rec.times.encode0, rec.times.decode1);
        }
      });
      continue;
    }
    // Over sockets an open-loop session needs a sender and a receiver:
    // a slow response must not delay the next due send.
    Connection* conn = conns[static_cast<size_t>(spec.writers + r)].get();
    auto state = std::make_shared<std::pair<std::mutex,
                                            std::condition_variable>>();
    auto sent = std::make_shared<size_t>(0);
    auto done = std::make_shared<bool>(false);
    threads.emplace_back([&, r, records, conn, state, sent, done, due_of,
                          request_of] {
      SpanRecorder& spans = reader_traces[static_cast<size_t>(r) * 2];
      for (size_t i = 0; conn != nullptr && i < records->size(); ++i) {
        ReadRecord& rec = (*records)[i];
        rec.due = due_of(i);
        if (rec.due >= end) break;
        std::this_thread::sleep_until(rec.due);
        auto [k, request] = request_of(i);
        rec.reader = r;
        rec.kind_index = k;
        rec.sent = Clock::now();
        if (!conn->Send(request, &rec.times)) break;
        if (spans.enabled()) {
          const int64_t op = static_cast<int64_t>(i);
          spans.Record("client.encode", op, -1, rec.times.encode0,
                       rec.times.encode1);
          spans.Record("client.write", op, -1, rec.times.encode1,
                       rec.times.write1);
        }
        std::lock_guard<std::mutex> lock(state->first);
        *sent = i + 1;
        state->second.notify_one();
      }
      std::lock_guard<std::mutex> lock(state->first);
      *done = true;
      state->second.notify_one();
    });
    threads.emplace_back([&, r, records, conn, state, sent, done] {
      SpanRecorder& spans = reader_traces[static_cast<size_t>(r) * 2 + 1];
      for (size_t i = 0; conn != nullptr; ++i) {
        {
          std::unique_lock<std::mutex> lock(state->first);
          state->second.wait(lock, [&] { return *sent > i || *done; });
          if (*sent <= i) break;
        }
        ReadRecord& rec = (*records)[i];
        rec.ok = conn->Receive(&rec.response, &rec.times);
        if (!rec.ok) break;
        rec.hash = Hash64(rec.response.body);
        rec.body_bytes = rec.response.body.size();
        std::string().swap(rec.response.body);
        if (spans.enabled()) {
          const int64_t op = static_cast<int64_t>(i);
          spans.Record("client.read_wait", op, -1, rec.times.write1,
                       rec.times.read1);
          spans.Record("client.decode", op, -1, rec.times.read1,
                       rec.times.decode1);
        }
      }
    });
  }
  std::this_thread::sleep_until(window_start);
  {
    OnServerCpu pin;
    while (Clock::now() < end) {
      result.probe_ms.Add(ProbeMs());
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbeEveryMs));
    }
  }
  for (std::thread& t : threads) t.join();
  sampling = false;
  if (live_sampler.joinable()) live_sampler.join();
  rss.Stop();
  result.peak_rss_mb = rss.peak_mb();
  result.live_snapshots_max = live_max.load();

  // In-process reads are hashed after the phase, off the clock.
  for (auto& records : result.readers) {
    for (ReadRecord& rec : records) {
      if (drive == Drive::kInProcess && rec.ok) {
        rec.hash = Hash64(rec.response.body);
        rec.body_bytes = rec.response.body.size();
        std::string().swap(rec.response.body);
      }
    }
  }
  if (drive == Drive::kSocket) *first = std::move(conns[0]);
  for (size_t i = 1; i < conns.size(); ++i) conns[i].reset();
  int tid = 1;
  for (SpanRecorder& s : writer_traces) trace->Merge(&s, tid++);
  for (SpanRecorder& s : reader_traces) trace->Merge(&s, tid++);
  return result;
}

/// Reads that were sent (the schedule stops at the end of the phase).
template <typename Fn>
void ForEachRead(const PhaseResult& phase, Fn fn) {
  for (const auto& records : phase.readers) {
    for (const ReadRecord& rec : records) {
      if (rec.sent == Clock::time_point()) break;
      fn(rec);
    }
  }
}

// -- Checks -------------------------------------------------------------

/// The per-phase answer check: commit order from the clients' own acks,
/// replayed through a fresh IncrementalView; every read and the final
/// snapshot compared against the replay. Adds attempted and failed ops.
void CheckPhase(const Spec& spec, const PhaseResult& phase,
                const std::vector<Ack>& prep, int64_t base_epoch,
                uint64_t seed, const Response& final_snapshot, Outcome* out,
                std::string* final_bytes) {
  if (phase.connect_failures > 0) {
    out->attempted += phase.connect_failures;
    out->Fail("a session could not connect", phase.connect_failures);
  }
  std::vector<Ack> commits;
  for (size_t w = 0; w < phase.writers.size(); ++w) {
    const WriterLog& log = phase.writers[w];
    out->attempted += log.attempted;
    for (const std::string& e : log.errors) out->Fail(e);
    UpdateStream stream(spec, static_cast<int>(w), seed);
    for (int64_t epoch : log.epochs) {
      std::string tokens = stream.Next();
      if (epoch >= 0) commits.push_back(Ack{epoch, std::move(tokens)});
    }
  }
  std::sort(commits.begin(), commits.end(),
            [](const Ack& a, const Ack& b) { return a.epoch < b.epoch; });
  for (size_t i = 0; i < commits.size(); ++i) {
    if (commits[i].epoch != base_epoch + 1 + static_cast<int64_t>(i)) {
      out->Fail("acked epochs are not contiguous at epoch " +
                std::to_string(commits[i].epoch));
      break;
    }
  }
  const int64_t final_epoch = base_epoch + static_cast<int64_t>(commits.size());

  std::map<int64_t, std::vector<const ReadRecord*>> reads_at;
  std::vector<int64_t> last_epoch(static_cast<size_t>(spec.readers), -1);
  ForEachRead(phase, [&](const ReadRecord& rec) {
    ++out->attempted;
    if (!rec.ok) {
      out->Fail("read transport error");
      return;
    }
    if (rec.response.status != StatusCode::kOk) {
      out->Fail("read status " +
                std::to_string(static_cast<int>(rec.response.status)));
      return;
    }
    int64_t& last = last_epoch[static_cast<size_t>(rec.reader)];
    if (rec.response.epoch < last) {
      out->Fail("read epoch went backwards in a session");
    }
    last = rec.response.epoch;
    if (rec.response.epoch < base_epoch || rec.response.epoch > final_epoch) {
      out->Fail("read served an epoch no commit produced");
      return;
    }
    reads_at[rec.response.epoch].push_back(&rec);
  });

  Replay replay(spec);
  if (!replay.ok()) {
    out->Fail("replay set-up failed");
    return;
  }
  for (const Ack& a : prep) {
    if (!replay.Apply(a.tokens)) {
      out->Fail("replay refused a preparation commit");
      return;
    }
  }
  size_t next = 0;
  for (int64_t e = base_epoch; e <= final_epoch; ++e) {
    if (e > base_epoch && !replay.Apply(commits[next++].tokens)) {
      out->Fail("replay refused commit " + std::to_string(e));
      return;
    }
    auto it = reads_at.find(e);
    if (it == reads_at.end()) continue;
    std::map<int, uint64_t> expected;
    for (const ReadRecord* rec : it->second) {
      auto cached = expected.find(rec->kind_index);
      if (cached == expected.end()) {
        const ReadSpec& rs =
            spec.read_cycle[static_cast<size_t>(rec->kind_index)];
        const Instance& model = replay.model();
        const std::string bytes =
            rs.kind == Request::Kind::kSnapshotQuery
                ? model.SerializeSnapshot()
                : model.Restrict({model.catalog().Find(rs.pred)})
                      .SerializeSnapshot();
        cached = expected.emplace(rec->kind_index, Hash64(bytes)).first;
      }
      if (rec->hash != cached->second) {
        out->Fail("read body differs from the replay at epoch " +
                  std::to_string(e));
      }
    }
  }
  *final_bytes = replay.model().SerializeSnapshot();
  ++out->attempted;
  if (final_snapshot.status != StatusCode::kOk ||
      final_snapshot.epoch != final_epoch ||
      final_snapshot.body != *final_bytes) {
    out->Fail("final served snapshot differs from the replay");
  }
}

/// Reads the full snapshot over the session's connection.
Response SnapshotRead(Connection* conn) {
  Response response;
  ClientTimes t;
  if (conn == nullptr ||
      !conn->Call(Request{Request::Kind::kSnapshotQuery, "", 0, nullptr},
                  &response, &t)) {
    response.status = StatusCode::kInternal;
  }
  return response;
}

/// Replays `commits` from the initial base and returns the model bytes.
std::string ReplayBytes(const Spec& spec, const std::vector<Ack>& commits) {
  Replay replay(spec);
  for (const Ack& a : commits) {
    if (!replay.Apply(a.tokens)) return "";
  }
  return replay.ok() ? replay.model().SerializeSnapshot() : "";
}

/// Fresh-engine recovery of `dir` must equal the replay of every commit.
void CheckRecovery(const Spec& spec, const std::string& dir,
                   int64_t expected_epoch, const std::string& expected_bytes,
                   Outcome* out) {
  ++out->attempted;
  std::unique_ptr<Env> env = MakeEnv(spec);
  if (env == nullptr) {
    out->Fail("post-run recovery set-up failed");
    return;
  }
  auto recovered = datalog::store::Recover(
      dir, *env->program, env->engine.catalog(), &env->engine.symbols(),
      *env->base);
  if (!recovered.ok()) {
    out->Fail("post-run recovery failed: " + recovered.status().message());
    return;
  }
  if (recovered->epoch != expected_epoch ||
      recovered->view->model().SerializeSnapshot() != expected_bytes) {
    out->Fail("post-run recovery differs from the replay of acked commits");
  }
}

// -- One checked phase --------------------------------------------------

struct PhaseSummary {
  PhaseResult load;
  int64_t commits = 0;
  double ops_per_s = 0;
  Samples commit_ms;
  Samples read_ms;          // from due time
  Samples read_service_ms;  // encode start to decode end
  Samples late_ms;
  double read_body_bytes = 0;
  int64_t wal_syncs = 0;
  int64_t compactions = 0;
};

PhaseSummary Summarize(PhaseResult load) {
  PhaseSummary s;
  int64_t window_acked = 0;
  for (const WriterLog& log : load.writers) {
    s.commit_ms.Append(log.latency_ms);
    s.commits += log.acked;
    window_acked += log.window_acked;
  }
  s.ops_per_s = static_cast<double>(window_acked) /
                (MsBetween(load.window_start, load.window_end) / 1e3);
  double bytes = 0;
  ForEachRead(load, [&](const ReadRecord& rec) {
    if (!rec.ok || rec.due < load.window_start) return;
    s.read_ms.Add(MsBetween(rec.due, rec.times.decode1));
    s.read_service_ms.Add(MsBetween(rec.times.encode0, rec.times.decode1));
    s.late_ms.Add(MsBetween(rec.due, rec.sent));
    bytes += static_cast<double>(rec.body_bytes);
  });
  s.read_body_bytes =
      s.read_ms.size() > 0 ? bytes / static_cast<double>(s.read_ms.size()) : 0;
  s.load = std::move(load);
  return s;
}

struct Prepared {
  std::string dir;
  std::vector<Ack> commits;
  std::string bytes;  // replay of the preparation commits
};

/// Set-up times of one run, each followed by a host-speed probe on the
/// server CPU.
struct SetupTimes {
  std::vector<double> ms;
  std::vector<double> probe_ms;
};

/// Starts a server over sockets (timing each of `spec.setups` set-ups
/// into `setups` when given), runs one load phase and checks every
/// answer of it against the replay.
PhaseSummary SocketPhase(const Spec& spec, const RunConfig& config,
                         const Prepared& prep, const std::string& store_dir,
                         double seconds, double warmup, SpanRecorder* trace,
                         bool sample_live, Outcome* out, SetupTimes* setups) {
  const int64_t base_epoch =
      static_cast<int64_t>(prep.commits.size());
  PhaseSummary summary;
  std::unique_ptr<LiveServer> live;
  std::unique_ptr<Connection> first;
  for (int i = 0; i < (setups != nullptr ? spec.setups : 1); ++i) {
    // Earlier set-ups are torn down before the next; the last one serves.
    first.reset();
    live.reset();
    double ms = 0;
    std::string error;
    live = StartServer(spec, prep.dir, store_dir, true, true, &first, &ms,
                       &error);
    ++out->attempted;
    if (live == nullptr) {
      out->Fail("set-up failed: " + error);
      return summary;
    }
    if (setups != nullptr) {
      setups->ms.push_back(ms);
      OnServerCpu pin;
      setups->probe_ms.push_back(ProbeMs());
    }
  }
  if (spec.durable) {
    ++out->attempted;
    const Response recovered = SnapshotRead(first.get());
    if (recovered.status != StatusCode::kOk ||
        recovered.epoch != base_epoch || recovered.body != prep.bytes) {
      out->Fail("state recovered at set-up differs from the replay of the "
                "preparation commits");
    }
  }
  if (config.inject == "server-publish-stale") {
    datalog::internal::g_server_publish_stale = true;
  }
  summary = Summarize(RunLoad(spec, live.get(), Drive::kSocket, &first,
                              config.seed, seconds, warmup, trace,
                              sample_live));
  datalog::internal::g_server_publish_stale = false;
  const Response final_snapshot = SnapshotRead(first.get());
  first.reset();
  live->Shutdown();
  if (const datalog::store::DurableStore* store = live->server->store()) {
    summary.wal_syncs = store->wal().syncs();
    summary.compactions = store->snapshots();
  }
  live->Destroy();
  std::string final_bytes;
  CheckPhase(spec, summary.load, prep.commits, base_epoch, config.seed,
             final_snapshot, out, &final_bytes);
  if (spec.durable) {
    CheckRecovery(spec, store_dir, base_epoch + summary.commits, final_bytes,
                  out);
  }
  return summary;
}

void StampSpec(const Spec& spec, const RunConfig& config, Outcome* out) {
  out->Stamp("workload", spec.name);
  out->Stamp("seed", std::to_string(config.seed));
  out->Stamp("program", spec.program == kTcProgram ? "tc" : "tc+complement");
  out->Stamp("chain_n", std::to_string(spec.chain));
  out->Stamp("store", spec.durable ? "durable sync_every=1 snapshot_every=" +
                                         std::to_string(spec.snapshot_every)
                                   : "memory");
  if (spec.durable) {
    out->Stamp("prepared", "snapshot@" + std::to_string(spec.prep_snapshot_at) +
                               " + wal_tail=" + std::to_string(spec.prep_tail));
  }
  out->Stamp("writers", std::to_string(spec.writers) + " closed-loop");
  out->Stamp("updates", spec.style == UpdateStyle::kTogglePrivate
                            ? "toggle a private off-chain edge"
                            : "cut then restore 1.." +
                                  std::to_string(spec.batch_max) +
                                  " owned mid-chain edges");
  std::string reads;
  for (const ReadSpec& r : spec.read_cycle) {
    reads += (reads.empty() ? "" : ",") +
             (r.kind == Request::Kind::kSnapshotQuery ? std::string("snapshot")
                                                      : "q " + r.pred);
  }
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.0f/s each", spec.read_rate);
  out->Stamp("readers", std::to_string(spec.readers) + " open-loop at " +
                            rate + " (" + reads + ")");
  std::string cpus;
  for (int c : ThePlacement().clients) {
    cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  }
  out->Stamp("server", "defaults (num_readers=2), localhost sockets; server "
                       "threads on CPU " +
                           std::to_string(ThePlacement().server.empty()
                                              ? -1
                                              : ThePlacement().server[0]) +
                           ", clients on CPUs " + cpus);
  out->Stamp("peak_rss", "up to " + std::to_string(spec.rss_commits) +
                             " acked commits of the load phase");
}

// -- The traced run -----------------------------------------------------

/// Means of the single-threaded drive (c) and the shadow layers.
struct ShadowResult {
  int64_t commits = 0;
  Samples submit_ms, step_ms, outcome_ms;
  Samples parse_us, apply_ms, format_us, append_ms, compact_ms;
  Samples serve_first_ms, serve_cached_ms;
  double updates = 0;
  double overdeleted = 0, rederived = 0, recounted = 0, changed = 0;
  double wal_bytes = 0, user_bytes = 0;
  double create_ms = 0, recover_ms = 0, load_snapshot_ms = 0;
  int64_t replayed = 0;
  /// The shadow store's fsyncs and snapshots.
  int64_t syncs = 0, compactions = 0;
};

/// Times store::LoadSnapshot and store::Recover on `dir` into `r`; returns
/// the recovered state, or null after failing the run.
std::unique_ptr<datalog::store::Recovered> RecoverTimed(
    const std::string& dir, bool need_snapshot, Env* env, ShadowResult* r,
    Outcome* out) {
  bool found = false;
  Clock::time_point t0 = Clock::now();
  auto snap = datalog::store::LoadSnapshot(dir, &found);
  r->load_snapshot_ms = MsBetween(t0, Clock::now());
  t0 = Clock::now();
  auto recovered =
      datalog::store::Recover(dir, *env->program, env->engine.catalog(),
                              &env->engine.symbols(), *env->base);
  r->recover_ms = MsBetween(t0, Clock::now());
  if (!snap.ok() || (need_snapshot && !found) || !recovered.ok()) {
    out->Fail("shadow store recovery failed");
    return nullptr;
  }
  r->replayed = recovered->replayed;
  return std::make_unique<datalog::store::Recovered>(std::move(*recovered));
}

/// Drive (c): a fresh, unstarted server stepped through SubmitUpdate →
/// ApplyOneQueued → UpdateOutcome and ServeQuery, with every committed
/// batch replayed in order through the layer entry points on shadow
/// objects (own engine, own view, own store directory). Every workload
/// logs through the shadow store; on durable it starts from a copy of the
/// prepared directory, elsewhere from an empty one that is recovered and
/// compared with the shadow view after the pass.
ShadowResult RunSingleThreaded(const Spec& spec, const RunConfig& config,
                               const Prepared& prep,
                               const std::string& store_dir,
                               const std::string& shadow_dir, double seconds,
                               double reads_per_commit, SpanRecorder* trace,
                               Outcome* out) {
  OnServerCpu pin;
  ShadowResult r;
  std::string error;
  std::unique_ptr<Connection> unused;
  auto live = StartServer(spec, prep.dir, store_dir, false, false, &unused,
                          nullptr, &error);
  ++out->attempted;
  if (live == nullptr) {
    out->Fail("single-threaded set-up failed: " + error);
    return r;
  }
  Server* server = live->server.get();

  std::unique_ptr<Env> shadow = MakeEnv(spec);
  if (shadow == nullptr) {
    out->Fail("shadow set-up failed");
    return r;
  }
  std::unique_ptr<IncrementalView> view;
  std::unique_ptr<datalog::store::DurableStore> store;
  {
    const Clock::time_point t0 = Clock::now();
    auto created = IncrementalView::Create(
        *shadow->program, shadow->engine.catalog(), *shadow->base);
    r.create_ms = MsBetween(t0, Clock::now());
    if (!created.ok()) {
      out->Fail("shadow view set-up failed");
      return r;
    }
    view = std::move(*created);
  }
  if (spec.durable) {
    CopyDir(prep.dir, shadow_dir);
    auto recovered = RecoverTimed(shadow_dir, true, shadow.get(), &r, out);
    if (recovered == nullptr) return r;
    view = std::move(recovered->view);
  } else {
    fs::remove_all(shadow_dir);
  }
  {
    datalog::store::StoreOptions options;
    options.dir = shadow_dir;
    options.sync_every = 1;
    options.snapshot_every = spec.snapshot_every;
    auto opened = datalog::store::DurableStore::Open(options);
    if (!opened.ok()) {
      out->Fail("shadow store set-up failed");
      return r;
    }
    store = std::move(*opened);
  }

  std::vector<UpdateStream> streams;
  for (int w = 0; w < spec.writers; ++w) {
    streams.emplace_back(spec, w, config.seed);
  }
  std::set<std::pair<int64_t, int>> served;
  std::vector<size_t> read_index(static_cast<size_t>(spec.readers), 0);
  double read_credit = 0;
  int next_reader = 0;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int64_t op = 0; Clock::now() < end; ++op) {
    const std::string tokens =
        streams[static_cast<size_t>(op % spec.writers)].Next();
    const Clock::time_point t0 = Clock::now();
    auto ticket = server->SubmitUpdate(tokens);
    const Clock::time_point t1 = Clock::now();
    const bool stepped = server->ApplyOneQueued();
    const Clock::time_point t2 = Clock::now();
    Response response;
    const bool settled =
        ticket.ok() && server->UpdateOutcome(*ticket, &response);
    const Clock::time_point t3 = Clock::now();
    ++out->attempted;
    if (!stepped || !settled || response.status != StatusCode::kOk) {
      out->Fail("single-threaded commit failed");
      break;
    }
    r.submit_ms.Add(MsBetween(t0, t1));
    r.step_ms.Add(MsBetween(t1, t2));
    r.outcome_ms.Add(MsBetween(t2, t3));
    const int64_t root = trace->Record("c.commit", op, -1, t0, t3);
    trace->Record("server.SubmitUpdate", op, root, t0, t1);
    trace->Record("server.ApplyOneQueued", op, root, t1, t2);
    trace->Record("server.UpdateOutcome", op, root, t2, t3);

    // The shadow layers, in the server's order.
    std::vector<FactUpdate> batch;
    Clock::time_point s0 = Clock::now();
    const bool parsed = datalog::server::ParseUpdateTokens(
        tokens, shadow->engine.catalog(), &shadow->engine.symbols(), &batch);
    Clock::time_point s1 = Clock::now();
    r.parse_us.Add(MsBetween(s0, s1) * 1e3);
    trace->Record("session.ParseUpdateTokens", op, -1, s0, s1);
    const IncrementalView::Stats before = view->stats();
    s0 = Clock::now();
    const bool applied = parsed && view->ApplyBatch(batch).ok();
    s1 = Clock::now();
    r.apply_ms.Add(MsBetween(s0, s1));
    trace->Record("incremental.ApplyBatch", op, -1, s0, s1);
    if (!applied) {
      out->Fail("shadow view refused a committed batch");
      break;
    }
    const IncrementalView::Stats& after = view->stats();
    r.updates += static_cast<double>(batch.size());
    r.overdeleted +=
        static_cast<double>(after.overdeleted - before.overdeleted);
    r.rederived += static_cast<double>(
        (after.rederived_base + after.rederived_provenance +
         after.rederived_query) -
        (before.rederived_base + before.rederived_provenance +
         before.rederived_query));
    r.recounted += static_cast<double>(after.recounted - before.recounted);
    r.changed += static_cast<double>(
        (after.facts_added + after.facts_removed) -
        (before.facts_added + before.facts_removed));
    r.user_bytes += static_cast<double>(tokens.size());
    {
      s0 = Clock::now();
      const std::string formatted = datalog::server::FormatUpdateTokens(
          batch, shadow->engine.catalog(), shadow->engine.symbols());
      s1 = Clock::now();
      r.format_us.Add(MsBetween(s0, s1) * 1e3);
      trace->Record("session.FormatUpdateTokens", op, -1, s0, s1);
      const int64_t size0 = store->wal().size();
      s0 = Clock::now();
      const bool appended = store->AppendCommit(response.epoch, formatted).ok();
      s1 = Clock::now();
      r.append_ms.Add(MsBetween(s0, s1));
      trace->Record("store.AppendCommit", op, -1, s0, s1);
      r.wal_bytes += static_cast<double>(store->wal().size() - size0);
      if (!appended) {
        out->Fail("shadow store refused an append");
        break;
      }
      if (store->CompactionDue()) {
        s0 = Clock::now();
        std::vector<std::string> spellings;
        const datalog::SymbolTable& symbols = shadow->engine.symbols();
        for (int v = 0; v < symbols.size(); ++v) {
          spellings.push_back(symbols.NameOf(static_cast<datalog::Value>(v)));
        }
        const bool compacted =
            store
                ->MaybeCompact(response.epoch, view->base().SerializeSnapshot(),
                               std::move(spellings))
                .ok();
        s1 = Clock::now();
        r.compact_ms.Add(MsBetween(s0, s1));
        trace->Record("store.MaybeCompact", op, -1, s0, s1);
        if (!compacted) {
          out->Fail("shadow store refused a compaction");
          break;
        }
      }
    }
    ++r.commits;

    // Reads in the ratio the socket phase saw them.
    read_credit += reads_per_commit;
    while (read_credit >= 1) {
      read_credit -= 1;
      const size_t rd = static_cast<size_t>(next_reader);
      next_reader = (next_reader + 1) % spec.readers;
      const size_t k = (read_index[rd]++ + rd) % spec.read_cycle.size();
      const Request request{spec.read_cycle[k].kind, spec.read_cycle[k].pred,
                            0, nullptr};
      // Full-snapshot bytes are built at publish; only a predicate read
      // can be the first to build its bytes at an epoch.
      const bool first =
          request.kind == Request::Kind::kQuery &&
          served.emplace(server->epoch(), static_cast<int>(k)).second;
      s0 = Clock::now();
      const Response read = server->ServeQuery(request);
      s1 = Clock::now();
      ++out->attempted;
      if (read.status != StatusCode::kOk) {
        out->Fail("single-threaded read failed");
      }
      (first ? r.serve_first_ms : r.serve_cached_ms).Add(MsBetween(s0, s1));
      trace->Record(
          first ? "server.ServeQuery.first" : "server.ServeQuery.cached", op,
          -1, s0, s1);
    }
  }
  live->Destroy();
  r.syncs = store->wal().syncs();
  r.compactions = store->snapshots();
  store.reset();
  if (!spec.durable) {
    ++out->attempted;
    auto recovered = RecoverTimed(shadow_dir, false, shadow.get(), &r, out);
    if (recovered != nullptr && recovered->view->model().SerializeSnapshot() !=
                                    view->model().SerializeSnapshot()) {
      out->Fail("shadow store recovery differs from the shadow view");
    }
  }
  return r;
}

double SafeDiv(double a, double b) { return b == 0 ? 0 : a / b; }

/// Drive (b): in process through Server::Call on a started server.
PhaseSummary InProcessPhase(const Spec& spec, const RunConfig& config,
                            const Prepared& prep,
                            const std::string& store_dir, double seconds,
                            double warmup, SpanRecorder* trace,
                            Outcome* out) {
  PhaseSummary summary;
  std::string error;
  std::unique_ptr<Connection> unused;
  auto live = StartServer(spec, prep.dir, store_dir, true, false, &unused,
                          nullptr, &error);
  ++out->attempted;
  if (live == nullptr) {
    out->Fail("in-process set-up failed: " + error);
    return summary;
  }
  summary = Summarize(RunLoad(spec, live.get(), Drive::kInProcess, &unused,
                              config.seed, seconds, warmup, trace, false));
  live->Destroy();
  for (const WriterLog& log : summary.load.writers) {
    out->attempted += log.attempted;
    for (const std::string& e : log.errors) out->Fail(e);
  }
  ForEachRead(summary.load, [&](const ReadRecord& rec) {
    ++out->attempted;
    if (rec.response.status != StatusCode::kOk) {
      out->Fail("in-process read failed");
    }
  });
  return summary;
}

void TracedRun(const Spec& spec, const RunConfig& config, const Prepared& prep,
               Outcome* out) {
  // Four phases share the run; each gets half the measured seconds.
  const double seconds = config.seconds / 2;
  const double warmup = std::min(0.5, seconds / 10);
  const std::string dir = config.out_dir + "/" + spec.name;
  SpanRecorder off(false);
  SpanRecorder spans(true);
  const Clock::time_point origin = Clock::now();

  const PhaseSummary u = SocketPhase(spec, config, prep, dir + "-u", seconds,
                                     warmup, &off, false, out, nullptr);
  const PhaseSummary a = SocketPhase(spec, config, prep, dir + "-a", seconds,
                                     warmup, &spans, true, out, nullptr);
  const PhaseSummary b = InProcessPhase(spec, config, prep, dir + "-b",
                                        seconds, warmup, &spans, out);
  const double reads_per_commit =
      SafeDiv(static_cast<double>(a.read_ms.size()),
              static_cast<double>(a.commit_ms.size()));
  const ShadowResult c =
      RunSingleThreaded(spec, config, prep, dir + "-c", dir + "-shadow",
                        seconds, reads_per_commit, &spans, out);
  for (const char* suffix : {"-u", "-a", "-b", "-c", "-shadow"}) {
    fs::remove_all(dir + suffix);
  }
  const std::string trace_path =
      config.out_dir + "/trace-" + spec.name + "-" +
      std::to_string(config.seed) + ".json";
  if (!spans.WriteJson(trace_path, origin)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }
  out->Stamp("trace_file", trace_path);
  out->Stamp("trace_spans", std::to_string(spans.size()));

  const double n = static_cast<double>(std::max<int64_t>(c.commits, 1));
  const double step = c.step_ms.Mean();
  const double apply = c.apply_ms.Mean();
  // The server's own writer step logs the batch only on durable.
  const bool durable = spec.durable;
  const double store_ms =
      durable ? c.format_us.Mean() / 1e3 + c.append_ms.Mean() +
                    c.compact_ms.Sum() / n
              : 0;
  const double publish = step - apply - store_ms;
  const double c_commit =
      c.submit_ms.Mean() + step + c.outcome_ms.Mean();
  const double serve_mean =
      SafeDiv(c.serve_first_ms.Sum() + c.serve_cached_ms.Sum(),
              static_cast<double>(c.serve_first_ms.size() +
                                  c.serve_cached_ms.size()));
  const double commit_queue = b.commit_ms.Mean() - c_commit;
  const double read_queue = b.read_service_ms.Mean() - serve_mean;
  const double wire_commit =
      a.commit_ms.Mean() - b.commit_ms.Mean();
  const double wire_read = a.read_service_ms.Mean() - b.read_service_ms.Mean();

  out->Add("server.writer_step_mean_ms", step, "ms", c.step_ms.size());
  out->Add("server.publish_mean_ms", publish, "ms", c.step_ms.size());
  out->Add("server.live_snapshots_max",
           static_cast<double>(a.load.live_snapshots_max), "count");
  out->Add("server.serve_first_p50_ms", c.serve_first_ms.Quantile(0.5), "ms",
           c.serve_first_ms.size());
  out->Add("server.serve_cached_p50_ms", c.serve_cached_ms.Quantile(0.5),
           "ms", c.serve_cached_ms.size());
  out->Add("server.read_cache_hit_ratio",
           SafeDiv(static_cast<double>(c.serve_cached_ms.size()),
                   static_cast<double>(c.serve_first_ms.size() +
                                       c.serve_cached_ms.size())),
           "ratio");
  out->Add("server.read_queue_mean_ms", read_queue, "ms",
           b.read_service_ms.size());
  out->Add("server.commit_queue_mean_ms", commit_queue, "ms",
           b.commit_ms.size());
  out->Add("wire.read_mean_ms", wire_read, "ms", a.read_service_ms.size());
  out->Add("wire.read_body_bytes", a.read_body_bytes, "bytes",
           a.read_ms.size());
  out->Add("wire.commit_mean_ms", wire_commit, "ms",
           a.commit_ms.size());
  out->Add("incremental.apply_p50_ms", c.apply_ms.Quantile(0.5), "ms",
           c.apply_ms.size());
  out->Add("incremental.apply_p99_ms", c.apply_ms.Quantile(0.99), "ms",
           c.apply_ms.size());
  out->Add("incremental.overdeleted_per_commit", c.overdeleted / n, "count");
  out->Add("incremental.rederived_per_commit", c.rederived / n, "count");
  out->Add("incremental.recounted_per_commit", c.recounted / n, "count");
  out->Add("incremental.facts_changed_per_commit", c.changed / n, "count");
  out->Add("incremental.useful_ratio",
           SafeDiv(c.changed, c.overdeleted + c.recounted), "ratio");
  out->Add("incremental.create_ms", c.create_ms, "ms", 1);
  out->Add("session.parse_mean_us", c.parse_us.Mean(), "us",
           c.parse_us.size());
  out->Add("session.updates_per_commit", c.updates / n, "count");
  out->Add("session.format_mean_us", c.format_us.Mean(), "us",
           c.format_us.size());
  out->Add("store.append_p50_ms", c.append_ms.Quantile(0.5), "ms",
           c.append_ms.size());
  out->Add("store.append_p99_ms", c.append_ms.Quantile(0.99), "ms",
           c.append_ms.size());
  // fsyncs and snapshots: the real server's store on durable, the shadow
  // store's elsewhere.
  out->Add("store.fsyncs_per_commit",
           durable ? SafeDiv(static_cast<double>(a.wal_syncs),
                             static_cast<double>(a.commits))
                   : SafeDiv(static_cast<double>(c.syncs), n),
           "count");
  out->Add("store.wal_bytes_per_commit", c.wal_bytes / n, "bytes");
  out->Add("store.bytes_per_user_byte", SafeDiv(c.wal_bytes, c.user_bytes),
           "ratio");
  out->Add("store.compact_p50_ms", c.compact_ms.Quantile(0.5), "ms",
           c.compact_ms.size());
  out->Add("store.compactions",
           static_cast<double>(durable ? a.compactions : c.compactions),
           "count");
  out->Add("store.recover_ms", c.recover_ms, "ms", 1);
  out->Add("store.load_snapshot_ms", c.load_snapshot_ms, "ms", 1);
  out->Add("store.replayed_records", static_cast<double>(c.replayed),
           "count");
  out->Add("gen.read_late_p99_ms", a.late_ms.Quantile(0.99), "ms",
           a.late_ms.size());
  // (u) and (a) run one after the other, so each is scaled to the
  // reference speed by its own probes first.
  out->Add("trace.overhead_pct",
           100 * (SafeDiv(AtReferenceSpeed(a.commit_ms.Mean(),
                                           a.load.probe_ms.Quantile(0.5)),
                          AtReferenceSpeed(u.commit_ms.Mean(),
                                           u.load.probe_ms.Quantile(0.5))) -
                  1),
           "%", a.commit_ms.size());

  for (const auto& [name, value] :
       {std::pair<const char*, double>{"server.publish_mean_ms", publish},
        {"server.commit_queue_mean_ms", commit_queue},
        {"server.read_queue_mean_ms", read_queue},
        {"wire.commit_mean_ms", wire_commit},
        {"wire.read_mean_ms", wire_read}}) {
    if (value < 0) {
      out->Stamp("negative_residual",
                 std::string(name) + "=" + std::to_string(value));
    }
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "publish %.1f%%, apply %.1f%%, store %.1f%% of a %.3f ms "
                "writer step",
                100 * SafeDiv(publish, step), 100 * SafeDiv(apply, step),
                100 * SafeDiv(store_ms, step), step);
  out->Stamp("writer_step_shares", line);
  std::snprintf(line, sizeof(line),
                "client %.3f = wire %.3f + queue %.3f + server %.3f ms",
                a.commit_ms.Mean(), wire_commit, commit_queue,
                c_commit);
  out->Stamp("commit_split", line);
  std::snprintf(line, sizeof(line),
                "client %.3f = wire %.3f + queue %.3f + serve %.3f ms",
                a.read_service_ms.Mean(), wire_read, read_queue, serve_mean);
  out->Stamp("read_split", line);
  for (const PhaseSummary* p : {&u, &a}) {
    if (p->late_ms.Quantile(0.99) > kReadLateLimitMs) {
      out->Invalid("open-loop generator ran late (p99 " +
                   std::to_string(p->late_ms.Quantile(0.99)) + " ms)");
    }
  }
}

}  // namespace

bool IsServerWorkload(const std::string& name) {
  return name == "big-view" || name == "churn" || name == "durable";
}

Outcome RunServerWorkload(const RunConfig& config) {
  Outcome out;
  PinThisThread(ThePlacement().clients);
  const Spec spec = MakeSpec(config.workload, config.tiny);
  StampSpec(spec, config, &out);
  fs::create_directories(config.out_dir);

  Prepared prep;
  if (spec.durable) {
    prep.dir = config.out_dir + "/" + spec.name + "-prepared";
    std::string error;
    if (!Prepare(spec, prep.dir, config.seed, &prep.commits, &error)) {
      out.Fail(error.empty() ? "preparation failed" : error);
      return out;
    }
    prep.bytes = ReplayBytes(spec, prep.commits);
  }

  if (config.trace) {
    TracedRun(spec, config, prep, &out);
  } else {
    const double warmup = std::min(1.0, config.seconds / 10);
    SetupTimes setups;
    const std::string store_dir = config.out_dir + "/" + spec.name + "-store";
    SpanRecorder off(false);
    const PhaseSummary s =
        SocketPhase(spec, config, prep, store_dir, config.seconds, warmup,
                    &off, false, &out, &setups);
    fs::remove_all(store_dir);
    const double probe = s.load.probe_ms.Quantile(0.5);
    out.Add("setup_s",
            AtReferenceSpeed(Median(setups.ms), Median(setups.probe_ms)) /
                1e3,
            "s", setups.ms.size());
    out.Add("op_p50_ref_ms", AtReferenceSpeed(s.commit_ms.Quantile(0.5), probe),
            "ms", s.commit_ms.size());
    out.Add("read_p50_ref_ms", AtReferenceSpeed(s.read_ms.Quantile(0.5), probe),
            "ms", s.read_ms.size());
    out.Add("setup_raw_s", Median(setups.ms) / 1e3, "s", setups.ms.size());
    out.Add("probe_p50_ms", probe, "ms", s.load.probe_ms.size());
    out.Add("ops_per_s", s.ops_per_s, "1/s", s.commit_ms.size());
    AddLatency(&out, "op", s.commit_ms);
    AddLatency(&out, "read", s.read_ms);
    out.Add("peak_rss_mb", s.load.peak_rss_mb, "MB");
    const double late = s.late_ms.Quantile(0.99);
    out.Stamp("gen.read_late_p99_ms", std::to_string(late));
    if (late > kReadLateLimitMs) {
      out.Invalid("open-loop generator ran late (p99 " +
                  std::to_string(late) + " ms > " +
                  std::to_string(kReadLateLimitMs) + " ms)");
    }
  }
  if (spec.durable) fs::remove_all(prep.dir);
  return out;
}

}  // namespace perfbench
