// unchained_serve — run the concurrent Datalog server (docs/server.md).
//
// Usage:
//   unchained_serve --program=FILE --facts=FILE
//                   [--script=FILE --seed=S [--cancel-prob=P]]
//                   [--port=N] [--socket-smoke] [--metrics]
//                   [--wal=DIR [--sync-every=S] [--snap-every=M]]
//                   [--kill-smoke]
//
// Modes, picked by flag:
//
//   --script=FILE   Replay a `%@` session script (docs/server.md
//                   #session-scripts) under the deterministic virtual-
//                   clock scheduler with the given seed and print the
//                   event log — the same machinery oracle pair #10 runs,
//                   exposed for replaying shrunken repros by hand.
//   --port=N        Serve the binary wire protocol (docs/server.md
//                   #wire-format) on 127.0.0.1:N until the process is
//                   killed. Port 0 picks an ephemeral port (printed).
//   --socket-smoke  End-to-end self-test: serve on an ephemeral port,
//                   connect a client socket, run an update + queries and
//                   verify the served bytes against a sequential replay
//                   of the commits, which the smoke logs through the
//                   server's publish hook. Exits 0 on success.
//   --kill-smoke    Real crash-recovery self-test (docs/durability.md):
//                   fork a child that serves durably into --wal's
//                   directory with real fsyncs, pump updates over a
//                   socket, SIGKILL the child mid-commit, then recover
//                   in the parent and verify bounded loss (no acked
//                   commit beyond the group-commit window is missing)
//                   and byte-identity against a sequential replay of the
//                   surviving prefix. Requires --wal. Exits 0 on success.
//
// --wal=DIR makes any mode durable: recovery-on-start from DIR, then
// WAL-logged commits (--sync-every, default 1 = fsync per commit) with
// snapshot compaction every --snap-every commits (default 0 = never).
//
// With no mode flag, the server evaluates the initial model, prints
// epoch 0's stats and exits — a configuration check.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dist/transport.h"
#include "eval/incremental.h"
#include "obs/metrics.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "store/snapshotter.h"

namespace {

using datalog::ByteChannel;
using datalog::Engine;
using datalog::Instance;
using datalog::Program;
using datalog::Result;
using datalog::SocketConnect;
using datalog::SocketListener;
using datalog::StatusCode;
namespace server = datalog::server;

bool ParseArg(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: unchained_serve --program=FILE --facts=FILE\n"
               "                       [--script=FILE --seed=S"
               " [--cancel-prob=P]]\n"
               "                       [--port=N] [--socket-smoke]\n"
               "                       [--wal=DIR [--sync-every=S]"
               " [--snap-every=M]]\n"
               "                       [--kill-smoke] [--metrics]\n");
  return 2;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "unchained_serve: %s\n", what.c_str());
  return 1;
}

/// One framed request/response exchange on a client channel.
bool Exchange(ByteChannel* channel, const server::Request& request,
              server::Response* response) {
  if (!server::WriteFrame(channel, server::EncodeRequest(request))) {
    return false;
  }
  std::string payload;
  if (!server::ReadFrame(channel, &payload)) return false;
  return server::DecodeResponse(payload, response);
}

int RunScript(server::Server* srv, const std::string& script_text,
              uint64_t seed, double cancel_prob) {
  std::vector<server::SessionOp> ops;
  if (!server::ParseSessionScript(script_text, &ops)) {
    return Fail("malformed session script");
  }
  if (ops.empty()) return Fail("script has no %@ session lines");
  server::SchedulerOptions sched;
  sched.seed = seed;
  sched.cancel_prob = cancel_prob;
  server::ScheduleRun run = server::RunSessions(srv, ops, sched);
  if (!run.ok) return Fail("schedule: " + run.error);
  for (const server::ScheduledEvent& ev : run.events) {
    std::printf("t=%-4lld s%d %-24s -> %s epoch=%lld body=%zuB%s\n",
                static_cast<long long>(ev.vtime), ev.session,
                server::FormatSessionOp(ops[ev.op_index]).c_str(),
                datalog::StatusCodeName(ev.response.status),
                static_cast<long long>(ev.response.epoch),
                ev.response.body.size(),
                ev.cancelled_injected ? " (injected cancel)" : "");
  }
  std::printf("final epoch %lld, %zu commits, %zu epochs published\n",
              static_cast<long long>(run.final_epoch), run.commits.size(),
              run.epoch_bytes.size());
  return 0;
}

int RunSocketSmoke(server::Server* srv, Engine* engine,
                   const Program& program, const std::string& facts_text) {
  std::vector<server::CommitRecord> commits;
  srv->set_on_publish([&commits](const server::CommitRecord& commit,
                                 const server::Snapshot&) {
    commits.push_back(commit);
  });
  srv->Start();
  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Listen(0);
  if (!listener.ok()) {
    return Fail("listen: " + listener.status().ToString());
  }
  std::thread accept_loop(
      [srv, l = listener->get()] { srv->ServeListener(l); });

  int failures = 0;
  std::string served;
  {
    Result<std::unique_ptr<ByteChannel>> client =
        SocketConnect((*listener)->port());
    if (!client.ok()) {
      (*listener)->Close();
      accept_loop.join();
      return Fail("connect: " + client.status().ToString());
    }
    server::Response response;
    if (!Exchange(client->get(),
                  server::Request{server::Request::Kind::kPing, "", 0,
                                  nullptr},
                  &response) ||
        response.status != StatusCode::kOk) {
      ++failures;
    }
    if (!Exchange(client->get(),
                  server::Request{server::Request::Kind::kUpdate,
                                  "+e1(0,1)", 0, nullptr},
                  &response) ||
        response.status != StatusCode::kOk || response.epoch != 1) {
      ++failures;
    }
    if (!Exchange(client->get(),
                  server::Request{server::Request::Kind::kSnapshotQuery, "",
                                  0, nullptr},
                  &response) ||
        response.status != StatusCode::kOk) {
      ++failures;
    }
    served = response.body;
    server::WriteFrame(client->get(),
                       server::EncodeRequest(server::Request{
                           server::Request::Kind::kClose, "", 0, nullptr}));
  }
  (*listener)->Close();
  accept_loop.join();
  srv->Stop();
  srv->set_on_publish(nullptr);

  // Byte-identity self-check: the served snapshot equals a sequential
  // replay of the logged commits against a fresh view.
  Instance base(&engine->catalog());
  if (!engine->AddFacts(facts_text, &base).ok()) ++failures;
  auto view =
      datalog::IncrementalView::Create(program, engine->catalog(), base);
  if (!view.ok()) {
    ++failures;
  } else {
    for (const server::CommitRecord& commit : commits) {
      if (!(*view)->ApplyBatch(commit.batch).ok()) ++failures;
    }
    if (served != (*view)->model().SerializeSnapshot()) ++failures;
  }
  if (failures != 0) {
    return Fail("socket smoke: " + std::to_string(failures) + " failures");
  }
  std::printf("socket smoke ok: epoch %lld, served bytes match replay\n",
              static_cast<long long>(srv->epoch()));
  return 0;
}

/// The batch committed as epoch `i` by the kill smoke: deterministic, so
/// the parent can reconstruct the exact surviving prefix from the
/// recovered epoch alone.
std::string KillSmokeTokens(int64_t i) {
  return "+e1(" + std::to_string(i) + "," + std::to_string(100 + i) + ")";
}

int RunKillSmoke(Engine* engine, const Program& program,
                 const std::string& program_text,
                 const std::string& facts_text, const Instance& base,
                 const server::ServerOptions& options) {
  const std::string& dir = options.durability.dir;
  // Scratch start: the smoke owns its directory and must be re-runnable
  // from a dirty CWD (ctest reruns, check.sh scratch lanes).
  ::unlink(datalog::store::WalPath(dir).c_str());
  ::unlink(datalog::store::SnapshotPath(dir).c_str());
  ::unlink(datalog::store::SnapshotTmpPath(dir).c_str());

  int port_pipe[2];
  if (::pipe(port_pipe) != 0) return Fail("pipe failed");
  const pid_t child = ::fork();
  if (child < 0) return Fail("fork failed");

  if (child == 0) {
    // Child: serve durably (real fsyncs) until killed. Build everything
    // after the fork — the parent has spawned no threads yet, and the
    // child gets its own engine, store fds, and server threads.
    ::close(port_pipe[0]);
    Engine child_engine;
    Result<Program> child_program = child_engine.Parse(program_text);
    if (!child_program.ok()) ::_exit(3);
    Instance child_base(&child_engine.catalog());
    if (!child_engine.AddFacts(facts_text, &child_base).ok()) ::_exit(3);
    Result<std::unique_ptr<server::Server>> srv =
        server::Server::Create(*child_program, &child_engine.catalog(),
                               &child_engine.symbols(), child_base, options);
    if (!srv.ok()) ::_exit(3);
    (*srv)->Start();
    Result<std::unique_ptr<SocketListener>> listener =
        SocketListener::Listen(0);
    if (!listener.ok()) ::_exit(3);
    const std::string port_line = std::to_string((*listener)->port()) + "\n";
    if (::write(port_pipe[1], port_line.data(), port_line.size()) !=
        static_cast<ssize_t>(port_line.size())) {
      ::_exit(3);
    }
    ::close(port_pipe[1]);
    (*srv)->ServeListener(listener->get());
    ::_exit(0);  // Unreached: the parent SIGKILLs us mid-commit.
  }

  // Parent: read the child's port.
  ::close(port_pipe[1]);
  std::string port_text;
  char c = 0;
  while (::read(port_pipe[0], &c, 1) == 1 && c != '\n') port_text += c;
  ::close(port_pipe[0]);
  const int port = std::atoi(port_text.c_str());
  if (port <= 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    return Fail("child reported no port");
  }

  Result<std::unique_ptr<ByteChannel>> client = SocketConnect(port);
  if (!client.ok()) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    return Fail("connect: " + client.status().ToString());
  }

  // Pump deterministic single-fact commits; fire the SIGKILL right after
  // a mid-stream ack, so it lands while later commits are in flight
  // (socket-buffered or mid-fsync in the writer).
  constexpr int64_t kTotal = 12;
  constexpr int64_t kKillAfter = 5;
  int64_t acked = 0;
  for (int64_t i = 1; i <= kTotal; ++i) {
    server::Response response;
    if (!Exchange(client->get(),
                  server::Request{server::Request::Kind::kUpdate,
                                  KillSmokeTokens(i), 0, nullptr},
                  &response)) {
      break;  // Connection died: the kill landed.
    }
    if (response.status != StatusCode::kOk) break;
    acked = response.epoch;
    if (acked == kKillAfter) ::kill(child, SIGKILL);
  }
  ::kill(child, SIGKILL);  // Idempotent; covers the all-acked fast path.
  ::waitpid(child, nullptr, 0);

  // Recover in this process. Server::Create replays the directory.
  Result<std::unique_ptr<server::Server>> recovered = server::Server::Create(
      program, &engine->catalog(), &engine->symbols(), base, options);
  if (!recovered.ok()) {
    return Fail("recover: " + recovered.status().ToString());
  }
  const server::Server::RecoveryInfo& info = (*recovered)->recovery();
  const int64_t epoch = info.epoch;

  // Bounded loss: with a group-commit window of S, at most S-1 acked
  // commits may be lost (sync-every=1 ⇒ none).
  const int64_t window =
      options.durability.sync_every > 0 ? options.durability.sync_every : 1;
  int failures = 0;
  if (epoch < acked - (window - 1)) {
    std::fprintf(stderr, "kill smoke: acked epoch %lld but recovered %lld "
                         "(window %lld)\n",
                 static_cast<long long>(acked), static_cast<long long>(epoch),
                 static_cast<long long>(window));
    ++failures;
  }
  if (epoch > kTotal) {
    std::fprintf(stderr, "kill smoke: recovered epoch %lld beyond %lld "
                         "attempted\n",
                 static_cast<long long>(epoch),
                 static_cast<long long>(kTotal));
    ++failures;
  }

  // Byte identity: the recovered model equals a sequential replay of the
  // surviving prefix against a fresh view.
  auto view =
      datalog::IncrementalView::Create(program, engine->catalog(), base);
  if (!view.ok()) {
    ++failures;
  } else {
    for (int64_t i = 1; i <= epoch; ++i) {
      std::vector<datalog::FactUpdate> updates;
      if (!server::ParseUpdateTokens(KillSmokeTokens(i), engine->catalog(),
                                     &engine->symbols(), &updates) ||
          !(*view)->ApplyBatch(updates).ok()) {
        ++failures;
        break;
      }
    }
    server::Response snap = (*recovered)->ServeQuery(server::Request{
        server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
    if (snap.status != StatusCode::kOk ||
        snap.body != (*view)->model().SerializeSnapshot()) {
      std::fprintf(stderr, "kill smoke: recovered bytes differ from replay "
                           "of %lld surviving commits\n",
                   static_cast<long long>(epoch));
      ++failures;
    }
  }

  // Continuity: the recovered server keeps committing where the dead one
  // stopped.
  Result<int64_t> ticket =
      (*recovered)->SubmitUpdate(KillSmokeTokens(kTotal + 1));
  if (!ticket.ok() || !(*recovered)->ApplyOneQueued() ||
      (*recovered)->epoch() != epoch + 1) {
    std::fprintf(stderr, "kill smoke: post-recovery commit failed\n");
    ++failures;
  }

  if (failures != 0) {
    return Fail("kill smoke: " + std::to_string(failures) + " failures");
  }
  std::printf("kill smoke ok: acked=%lld recovered=%lld replayed=%lld%s%s, "
              "bytes match replay, continued to epoch %lld\n",
              static_cast<long long>(acked), static_cast<long long>(epoch),
              static_cast<long long>(info.replayed),
              info.from_snapshot ? ", from snapshot" : "",
              info.truncated_tail ? ", torn tail truncated" : "",
              static_cast<long long>((*recovered)->epoch()));
  return 0;
}

int RunListener(server::Server* srv, int port) {
  srv->Start();
  Result<std::unique_ptr<SocketListener>> listener =
      SocketListener::Listen(port);
  if (!listener.ok()) {
    return Fail("listen: " + listener.status().ToString());
  }
  std::printf("serving on 127.0.0.1:%d (epoch %lld)\n", (*listener)->port(),
              static_cast<long long>(srv->epoch()));
  std::fflush(stdout);
  srv->ServeListener(listener->get());
  srv->Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::string facts_path;
  std::string script_path;
  uint64_t seed = 0;
  double cancel_prob = 0.0;
  int port = -1;
  bool socket_smoke = false;
  bool kill_smoke = false;
  bool metrics = false;
  std::string wal_dir;
  int sync_every = 1;
  int snap_every = 0;

  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseArg(arg, "program", &program_path)) {
    } else if (ParseArg(arg, "facts", &facts_path)) {
    } else if (ParseArg(arg, "script", &script_path)) {
    } else if (ParseArg(arg, "seed", &value)) {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(arg, "cancel-prob", &value)) {
      cancel_prob = std::atof(value.c_str());
    } else if (ParseArg(arg, "port", &value)) {
      port = std::atoi(value.c_str());
    } else if (ParseArg(arg, "wal", &wal_dir)) {
    } else if (ParseArg(arg, "sync-every", &value)) {
      sync_every = std::atoi(value.c_str());
    } else if (ParseArg(arg, "snap-every", &value)) {
      snap_every = std::atoi(value.c_str());
    } else if (std::strcmp(arg, "--socket-smoke") == 0) {
      socket_smoke = true;
    } else if (std::strcmp(arg, "--kill-smoke") == 0) {
      kill_smoke = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage();
    }
  }
  if (program_path.empty() || facts_path.empty()) return Usage();

  std::string program_text;
  std::string facts_text;
  if (!ReadFile(program_path, &program_text)) {
    return Fail("cannot read " + program_path);
  }
  if (!ReadFile(facts_path, &facts_text)) {
    return Fail("cannot read " + facts_path);
  }

  if (metrics) {
    datalog::obs::MetricsRegistry::Get().Reset();
    datalog::obs::MetricsRegistry::Get().SetEnabled(true);
  }

  Engine engine;
  Result<Program> program = engine.Parse(program_text);
  if (!program.ok()) return Fail("parse: " + program.status().ToString());
  Instance base(&engine.catalog());
  if (datalog::Status st = engine.AddFacts(facts_text, &base); !st.ok()) {
    return Fail("facts: " + st.ToString());
  }

  server::ServerOptions options;
  if (!wal_dir.empty()) {
    options.durability.dir = wal_dir;
    options.durability.sync_every = sync_every;
    options.durability.snapshot_every = snap_every;
  }
  if (kill_smoke) {
    if (wal_dir.empty()) return Fail("--kill-smoke requires --wal=DIR");
    // The smoke forks before building any server; it recovers in the
    // parent afterwards.
    return RunKillSmoke(&engine, *program, program_text, facts_text, base,
                        options);
  }

  Result<std::unique_ptr<server::Server>> srv = server::Server::Create(
      *program, &engine.catalog(), &engine.symbols(), base, options);
  if (!srv.ok()) return Fail("create: " + srv.status().ToString());
  if ((*srv)->recovery().ran && (*srv)->recovery().epoch > 0) {
    std::printf("recovered to epoch %lld (%lld wal records%s%s)\n",
                static_cast<long long>((*srv)->recovery().epoch),
                static_cast<long long>((*srv)->recovery().replayed),
                (*srv)->recovery().from_snapshot ? ", from snapshot" : "",
                (*srv)->recovery().truncated_tail ? ", torn tail truncated"
                                                  : "");
  }

  int rc = 0;
  if (!script_path.empty()) {
    std::string script_text;
    if (!ReadFile(script_path, &script_text)) {
      return Fail("cannot read " + script_path);
    }
    rc = RunScript(srv->get(), script_text, seed, cancel_prob);
  } else if (socket_smoke) {
    rc = RunSocketSmoke(srv->get(), &engine, *program, facts_text);
  } else if (port >= 0) {
    rc = RunListener(srv->get(), port);
  } else {
    const datalog::IncrementalView::Stats stats = (*srv)->view_stats();
    std::printf("epoch 0 published: %lld facts added, %d strata "
                "(counting %lld, dred %lld)\n",
                static_cast<long long>(stats.facts_added),
                stats.counting_strata + stats.dred_strata,
                static_cast<long long>(stats.counting_strata),
                static_cast<long long>(stats.dred_strata));
  }

  if (metrics) {
    datalog::obs::MetricsRegistry::Get().SetEnabled(false);
    std::printf("%s", datalog::obs::MetricsRegistry::Get().DumpText().c_str());
  }
  return rc;
}
