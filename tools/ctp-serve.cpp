//===- tools/ctp-serve.cpp - Resident analysis service driver -------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// A fault-tolerant resident analysis daemon: solve once (warm-starting
// from a checkpoint when one validates), then answer points-to / alias /
// taint queries over a Unix-socket protocol with per-request deadlines,
// admission control, and supervised crash recovery. See serve/Service.h
// and the "Analysis service" section of DESIGN.md.
//
// Modes:
//   ctp-serve --socket PATH (--preset NAME | --facts DIR) [solve opts]
//       run the daemon in the foreground (exit 0 on `shutdown`/SIGTERM)
//   ctp-serve --supervise --workdir DIR --socket PATH (--preset ...)
//       babysit the daemon: respawn the above command line as a child,
//       watch its heartbeat, crash-restart with backoff
//   ctp-serve --client PATH [--connect-timeout-ms N] [--retries N]
//             [--retry-base-ms N]
//       read queries from stdin (one per line, "verb arg..."), pipeline
//       them, print "id <TAB> status <TAB> mode <TAB> epoch <TAB> body"
//       lines sorted by id. OVERLOADED replies (load shed by the
//       daemon's admission queue) are re-sent with jittered exponential
//       backoff, up to --retries attempts (default 3; 0 disables, which
//       the overload drill in crashloop.sh uses to observe the sheds).
//
// Daemon options:
//   --config NAME          analysis configuration (default 2-object+H)
//   --collapse             subsumption collapsing
//   --checkpoint-dir DIR   warm-start state (strongly recommended)
//   --checkpoint-every N   mid-solve checkpoint cadence (default 20000)
//   --startup-deadline-ms N / --max-derivations N / --max-tuples N
//                          startup-solve budget (then ladder descent)
//   --mem-budget-mb N      RSS budget enforced by the in-process memory
//                          governor (support/Memory.h); under pressure
//                          the daemon drops caches, descends the ladder
//                          or falls to demand-driven answers, and sheds
//                          admissions — never dies of OOM. CTP_MEM_FAULT
//                          ("soft@N[xR]" / "hard@N[xR]" / "badalloc@N")
//                          arms a simulated pressure drill.
//   --workers N            worker threads (default 2)
//   --queue-cap N          admission queue bound (default 8)
// Supervisor options:
//   --stall-timeout-ms N   heartbeat watchdog (default 10000)
//   --backoff-ms N / --backoff-cap-ms N / --stable-reset-ms N
//   --max-restarts N       negative = never give up (default)
//
// Exit codes (support/ExitCodes.h): 0 clean stop, 1 error, 2 usage.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"
#include "serve/Wire.h"
#include "support/Budget.h"
#include "support/ExitCodes.h"
#include "support/FaultInjection.h"
#include "support/Parse.h"
#include "support/Posix.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ctp;

namespace {

volatile std::sig_atomic_t GStop = 0;

void onStopSignal(int) { GStop = 1; }

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH (--preset NAME | --facts DIR) [options]\n"
      "       %s --supervise --workdir DIR --socket PATH (--preset ...)\n"
      "       %s --client PATH [--connect-timeout-ms N] [--retries N] "
      "[--retry-base-ms N]\n"
      "see the file header or DESIGN.md (\"Analysis service\") for the "
      "option list\n",
      Prog, Prog, Prog);
  return ExitUsage;
}

//===----------------------------------------------------------------------===//
// Client mode.
//===----------------------------------------------------------------------===//

int connectWithRetry(const std::string &Path, std::uint64_t TimeoutMs) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  Stopwatch Clock;
  while (true) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      return Fd;
    posix::closeQuiet(Fd);
    if (Clock.seconds() * 1e3 >= static_cast<double>(TimeoutMs))
      return -1;
    ::usleep(20000); // The daemon may still be solving its warm start.
  }
}

/// Turns stdin lines into id-prefixed tab-separated requests, pipelines
/// them all, then prints every response sorted by (numeric) id — so
/// output order is deterministic regardless of worker scheduling.
int runClient(const std::string &SocketPath, std::uint64_t TimeoutMs,
              std::uint64_t Retries, std::uint64_t RetryBaseMs) {
  int Fd = connectWithRetry(SocketPath, TimeoutMs);
  if (Fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 SocketPath.c_str());
    return ExitError;
  }
  std::vector<std::string> Lines;
  {
    std::string Line;
    int C;
    while ((C = std::getchar()) != EOF) {
      if (C == '\n') {
        if (!Line.empty())
          Lines.push_back(Line);
        Line.clear();
      } else {
        Line.push_back(static_cast<char>(C));
      }
    }
    if (!Line.empty())
      Lines.push_back(Line);
  }
  std::vector<std::string> Payloads;
  for (std::size_t I = 0; I < Lines.size(); ++I) {
    // "verb arg..." -> "<seq>\t<verb>\t<arg>...": ids are the line
    // numbers, so responses sort back into input order.
    std::string Payload = std::to_string(I);
    std::string Field;
    for (char Ch : Lines[I]) {
      if (Ch == ' ') {
        if (!Field.empty()) {
          Payload += '\t';
          Payload += Field;
          Field.clear();
        }
      } else {
        Field.push_back(Ch);
      }
    }
    if (!Field.empty()) {
      Payload += '\t';
      Payload += Field;
    }
    Payloads.push_back(std::move(Payload));
  }

  // One send/receive round over the indices in Batch, replacing each
  // index's slot in Responses. Returns false on a stream error.
  std::vector<serve::Response> Responses(Payloads.size());
  std::vector<serve::Response> Extras;
  auto Round = [&](const std::vector<std::size_t> &Batch) -> bool {
    for (std::size_t I : Batch)
      if (!serve::writeFrame(Fd, Payloads[I])) {
        std::fprintf(stderr, "error: send failed on query %zu\n", I);
        return false;
      }
    for (std::size_t N = 0; N < Batch.size(); ++N) {
      std::string Payload;
      serve::FrameResult FR = serve::readFrame(Fd, Payload);
      if (FR != serve::FrameResult::Ok) {
        std::fprintf(stderr, "error: stream ended early (%s) after %zu of "
                             "%zu responses\n",
                     serve::frameResultName(FR), N, Batch.size());
        return false;
      }
      serve::Response R;
      if (!serve::parseResponse(Payload, R)) {
        std::fprintf(stderr, "error: malformed response frame\n");
        return false;
      }
      // Responses arrive in any order; file each under its echoed id.
      // A non-numeric id is a daemon-side parse-error reply ("-"):
      // printable, but not attributable to a slot.
      std::uint64_t Id = 0;
      if (parseCount(R.Id, Id) != ParseStatus::Ok || Id >= Responses.size())
        Extras.push_back(std::move(R));
      else
        Responses[static_cast<std::size_t>(Id)] = std::move(R);
    }
    return true;
  };

  std::vector<std::size_t> Batch(Payloads.size());
  for (std::size_t I = 0; I < Batch.size(); ++I)
    Batch[I] = I;
  if (!Round(Batch)) {
    posix::closeQuiet(Fd);
    return ExitError;
  }

  // Shed requests are safe to re-send: the daemon never started them.
  // Bounded, jittered exponential backoff so a burst of retrying clients
  // does not re-form the exact thundering herd that got shed.
  std::uint64_t JitterState =
      static_cast<std::uint64_t>(::getpid()) * 2654435761u + 1;
  for (std::uint64_t Attempt = 1; Attempt <= Retries; ++Attempt) {
    Batch.clear();
    for (std::size_t I = 0; I < Responses.size(); ++I)
      if (Responses[I].Status == serve::StatusOverloaded)
        Batch.push_back(I);
    if (Batch.empty())
      break;
    JitterState = JitterState * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t BackoffMs = RetryBaseMs << (Attempt - 1);
    BackoffMs = std::min<std::uint64_t>(BackoffMs, 2000) +
                (RetryBaseMs ? (JitterState >> 33) % RetryBaseMs : 0);
    std::fprintf(stderr,
                 "ctp-serve[client]: %zu overloaded, retry %llu/%llu in "
                 "%llums\n",
                 Batch.size(), (unsigned long long)Attempt,
                 (unsigned long long)Retries,
                 (unsigned long long)BackoffMs);
    ::usleep(static_cast<useconds_t>(BackoffMs * 1000));
    if (!Round(Batch)) {
      posix::closeQuiet(Fd);
      return ExitError;
    }
  }
  posix::closeQuiet(Fd);
  // Responses is already in id (= input line) order; unattributable
  // replies print after it, stably.
  bool AnyError = false;
  for (const serve::Response &R : Responses) {
    if (R.Status.empty())
      continue; // Slot answered only by an unattributable error reply.
    std::printf("%s\n", serve::renderResponse(R).c_str());
    AnyError |= R.Status == serve::StatusError;
  }
  for (const serve::Response &R : Extras) {
    std::printf("%s\n", serve::renderResponse(R).c_str());
    AnyError |= R.Status == serve::StatusError;
  }
  return AnyError ? ExitError : ExitOk;
}

void logLine(const std::string &Line, void *) {
  std::fprintf(stderr, "ctp-serve[supervise]: %s\n", Line.c_str());
  std::fflush(stderr);
}

} // namespace

int main(int argc, char **argv) {
  bool Supervise = false;
  std::string ClientSocket, SocketPath, WorkDir;
  std::uint64_t ConnectTimeoutMs = 30000;
  std::uint64_t Retries = 3, RetryBaseMs = 25;
  serve::ServiceOptions SOpts;
  service::ServeSupervisorOptions Sup;
  std::uint64_t Workers = 2, QueueCap = 8;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg.c_str());
        return nullptr;
      }
      return argv[++I];
    };
    auto NextCount = [&](std::uint64_t &Out) {
      const char *V = Next();
      if (!V)
        return false;
      if (parseCount(V, Out) != ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s'\n",
                     Arg.c_str(), V);
        return false;
      }
      return true;
    };
    if (Arg == "--supervise") {
      Supervise = true;
    } else if (Arg == "--client") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      ClientSocket = V;
    } else if (Arg == "--connect-timeout-ms") {
      if (!NextCount(ConnectTimeoutMs))
        return usage(argv[0]);
    } else if (Arg == "--retries") {
      if (!NextCount(Retries))
        return usage(argv[0]);
    } else if (Arg == "--retry-base-ms") {
      if (!NextCount(RetryBaseMs))
        return usage(argv[0]);
    } else if (Arg == "--socket") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      SocketPath = V;
    } else if (Arg == "--workdir") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      WorkDir = V;
    } else if (Arg == "--preset") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      SOpts.Preset = V;
    } else if (Arg == "--facts") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      SOpts.FactsDir = V;
    } else if (Arg == "--config") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      SOpts.ConfigName = V;
    } else if (Arg == "--collapse") {
      SOpts.Collapse = true;
    } else if (Arg == "--checkpoint-dir") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      SOpts.CheckpointDir = V;
    } else if (Arg == "--checkpoint-every") {
      if (!NextCount(SOpts.CheckpointEvery))
        return usage(argv[0]);
    } else if (Arg == "--startup-deadline-ms") {
      if (!NextCount(SOpts.StartupBudget.DeadlineMs))
        return usage(argv[0]);
    } else if (Arg == "--max-derivations") {
      if (!NextCount(SOpts.StartupBudget.MaxDerivations))
        return usage(argv[0]);
    } else if (Arg == "--max-tuples") {
      if (!NextCount(SOpts.StartupBudget.MaxTuples))
        return usage(argv[0]);
    } else if (Arg == "--mem-budget-mb") {
      if (!NextCount(SOpts.StartupBudget.MemBudgetMb))
        return usage(argv[0]);
    } else if (Arg == "--workers") {
      if (!NextCount(Workers))
        return usage(argv[0]);
    } else if (Arg == "--queue-cap") {
      if (!NextCount(QueueCap))
        return usage(argv[0]);
    } else if (Arg == "--stall-timeout-ms") {
      if (!NextCount(Sup.StallTimeoutMs))
        return usage(argv[0]);
    } else if (Arg == "--backoff-ms") {
      if (!NextCount(Sup.BackoffMs))
        return usage(argv[0]);
    } else if (Arg == "--backoff-cap-ms") {
      if (!NextCount(Sup.BackoffCapMs))
        return usage(argv[0]);
    } else if (Arg == "--stable-reset-ms") {
      if (!NextCount(Sup.StableResetMs))
        return usage(argv[0]);
    } else if (Arg == "--max-restarts") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Sup.MaxRestarts = std::atoi(V);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(argv[0]);
    }
  }

  if (!ClientSocket.empty())
    return runClient(ClientSocket, ConnectTimeoutMs, Retries, RetryBaseMs);

  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket is required\n");
    return usage(argv[0]);
  }
  if (SOpts.FactsDir.empty() == SOpts.Preset.empty()) {
    std::fprintf(stderr,
                 "error: exactly one of --facts / --preset is required\n");
    return usage(argv[0]);
  }

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  // A peer that disconnects mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  if (Supervise) {
    if (WorkDir.empty()) {
      std::fprintf(stderr, "error: --supervise requires --workdir\n");
      return usage(argv[0]);
    }
    // The child runs this same binary minus the supervision flags; its
    // checkpoint directory is what turns a restart into a warm start.
    Sup.WorkDir = WorkDir;
    Sup.StopFlag = &GStop;
    Sup.Argv = {argv[0], "--socket", SocketPath};
    if (!SOpts.Preset.empty()) {
      Sup.Argv.push_back("--preset");
      Sup.Argv.push_back(SOpts.Preset);
    } else {
      Sup.Argv.push_back("--facts");
      Sup.Argv.push_back(SOpts.FactsDir);
    }
    Sup.Argv.push_back("--config");
    Sup.Argv.push_back(SOpts.ConfigName);
    if (SOpts.Collapse)
      Sup.Argv.push_back("--collapse");
    std::string CkptDir = SOpts.CheckpointDir.empty() ? WorkDir + "/ckpt"
                                                      : SOpts.CheckpointDir;
    Sup.Argv.push_back("--checkpoint-dir");
    Sup.Argv.push_back(CkptDir);
    auto AddCount = [&Sup](const char *Flag, std::uint64_t V) {
      if (V != 0) {
        Sup.Argv.push_back(Flag);
        Sup.Argv.push_back(std::to_string(V));
      }
    };
    AddCount("--checkpoint-every", SOpts.CheckpointEvery);
    AddCount("--startup-deadline-ms", SOpts.StartupBudget.DeadlineMs);
    AddCount("--max-derivations", SOpts.StartupBudget.MaxDerivations);
    AddCount("--max-tuples", SOpts.StartupBudget.MaxTuples);
    AddCount("--mem-budget-mb", SOpts.StartupBudget.MemBudgetMb);
    AddCount("--workers", Workers);
    AddCount("--queue-cap", QueueCap);
    return service::superviseService(Sup, logLine, nullptr);
  }

  // Daemon mode.
  heartbeat::installFromEnv();
  // Simulated memory-pressure drill (serve_test's burst, check.sh --oom):
  // the accept loop's governor polls consume the armed fault windows.
  if (const char *Fault = std::getenv("CTP_MEM_FAULT"))
    if (*Fault && !fault::armMemFaultByName(Fault))
      std::fprintf(stderr, "warning: unknown CTP_MEM_FAULT '%s' ignored\n",
                   Fault);
  SOpts.Workers = static_cast<std::size_t>(Workers);
  SOpts.QueueCap = static_cast<std::size_t>(QueueCap);
  SOpts.StopFlag = &GStop;
  serve::Service Svc(std::move(SOpts));
  std::string Err = Svc.init();
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitError;
  }
  return Svc.serve(SocketPath);
}
