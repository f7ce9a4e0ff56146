//===- tools/ctp-batch.cpp - Supervised evaluation-matrix driver ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Runs the paper's Figure 6 evaluation matrix — presets × context
// configurations × back-ends — as fault-isolated ctp-analyze child
// processes under a watchdog supervisor (support/Supervisor.h): kernel
// rlimits, heartbeat stall detection, crash triage, bounded retry with
// checkpoint resume then ladder descent, and a durable JSONL journal that
// makes the whole batch resumable if the supervisor itself is killed.
//
// Usage:
//   ctp-batch --work DIR [matrix options] [policy options]
//     --work DIR           work tree (journal.jsonl, report.json, per-job
//                          checkpoints and logs); created if missing
//     --presets a,b,...    preset axis (default: antlr,luindex,pmd)
//     --configs a,b,...    config axis (default: 2-object+H,insensitive)
//     --backends a,b,...   backend axis: native,datalog (default: native)
//     --plan FILE          job list from a TSV plan file instead of the
//                          cross product: "preset<TAB>config[<TAB>backend]"
//     --analyze PATH       ctp-analyze binary (default: ./ctp-analyze
//                          next to this binary, else $CTP_ANALYZE)
//     --deadline-ms N, --max-derivations N, --max-tuples N
//                          per-child analysis budget (forwarded)
//     --checkpoint-every N periodic snapshot cadence (default 2000)
//     --mem-limit-mb N     RLIMIT_AS per child, megabytes (0 = unlimited).
//                          Also derives a cooperative --mem-budget-mb at
//                          ~85% of the rlimit for the child's in-process
//                          memory governor, so children checkpoint and
//                          degrade at a watermark instead of dying on
//                          bad_alloc at the hard ceiling (the rlimit
//                          stays as the backstop)
//     --cpu-limit-s N      RLIMIT_CPU per child, seconds (0 = unlimited)
//     --stall-timeout-ms N SIGKILL after a silent heartbeat this long
//                          (default 10000; 0 disables the watchdog)
//     --job-timeout-ms N   per-attempt wall cap (default 0 = none)
//     --retries N          retries after the initial attempt (default 3)
//     --backoff-ms N       base retry backoff, doubling per retry
//     --chaos              SIGKILL children at seeded random intervals
//     --seed N             chaos schedule seed (default 1)
//     --chaos-kills N      total chaos kills across the batch (default 4)
//     --fresh              ignore an existing journal (truncate) instead
//                          of resuming from it
//     -v                   narrate every attempt to stderr
//
// The consolidated matrix report is printed as a table on stdout and
// written as JSON to <work>/report.json. Re-invoking over the same work
// dir resumes: jobs with a terminal journal record are not re-run and
// their report rows are byte-identical.
//
// Exit codes (support/ExitCodes.h): 0 every job completed, 3 all jobs
// answered but some degraded, 1 any job failed (or the batch could not
// start), 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "ctx/Config.h"
#include "support/ExitCodes.h"
#include "support/Parse.h"
#include "support/Suggest.h"
#include "support/Supervisor.h"
#include "workload/Presets.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ctp;
using namespace ctp::batch;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s --work DIR [--presets a,b] [--configs a,b] "
      "[--backends a,b]\n"
      "          [--plan FILE] [--analyze PATH] [--deadline-ms N] "
      "[--max-derivations N]\n"
      "          [--max-tuples N] [--checkpoint-every N] "
      "[--mem-limit-mb N] [--cpu-limit-s N]\n"
      "          [--stall-timeout-ms N] [--job-timeout-ms N] "
      "[--retries N] [--backoff-ms N]\n"
      "          [--chaos] [--seed N] [--chaos-kills N] [--fresh] [-v]\n"
      "  exit codes: 0 all completed, 3 some degraded, 1 any failed, "
      "2 usage\n",
      Prog);
  return ExitUsage;
}

std::vector<std::string> splitCsv(const std::string &S) {
  std::vector<std::string> Out;
  std::size_t At = 0;
  while (At <= S.size()) {
    std::size_t Comma = S.find(',', At);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > At)
      Out.push_back(S.substr(At, Comma - At));
    At = Comma + 1;
  }
  return Out;
}

/// Default ctp-analyze discovery: sibling of this binary, then $PATH-less
/// $CTP_ANALYZE, then bare "ctp-analyze" in the working directory.
std::string findAnalyze(const char *Argv0) {
  if (const char *Env = std::getenv("CTP_ANALYZE"))
    if (*Env)
      return Env;
  std::string Self = Argv0;
  std::size_t Slash = Self.rfind('/');
  std::string Sibling = (Slash == std::string::npos
                             ? std::string("")
                             : Self.substr(0, Slash + 1)) +
                        "ctp-analyze";
  if (::access(Sibling.c_str(), X_OK) == 0)
    return Sibling;
  return "./ctp-analyze";
}

void logLine(const std::string &Line, void *) {
  std::fprintf(stderr, "ctp-batch: %s\n", Line.c_str());
}

} // namespace

int main(int argc, char **argv) {
  SupervisorOptions Opts;
  Opts.CheckpointEvery = 2000;
  std::vector<std::string> Presets = {"antlr", "luindex", "pmd"};
  std::vector<std::string> Configs = {"2-object+H", "insensitive"};
  std::vector<std::string> Backends = {"native"};
  std::string PlanFile;
  std::uint64_t MemLimitMb = 0;
  bool Fresh = false, Verbose = false;

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
                     "error: %s expects a non-negative integer, got '%s'\n",
                     Arg.c_str(), V);
        return false;
      }
      return true;
    };
    const char *V = nullptr;
    if (Arg == "--work") {
      if (!(V = Next()))
        return usage(argv[0]);
      Opts.WorkDir = V;
    } else if (Arg == "--presets") {
      if (!(V = Next()))
        return usage(argv[0]);
      Presets = splitCsv(V);
    } else if (Arg == "--configs") {
      if (!(V = Next()))
        return usage(argv[0]);
      Configs = splitCsv(V);
    } else if (Arg == "--backends") {
      if (!(V = Next()))
        return usage(argv[0]);
      Backends = splitCsv(V);
    } else if (Arg == "--plan") {
      if (!(V = Next()))
        return usage(argv[0]);
      PlanFile = V;
    } else if (Arg == "--analyze") {
      if (!(V = Next()))
        return usage(argv[0]);
      Opts.AnalyzePath = V;
    } else if (Arg == "--deadline-ms") {
      if (!NextCount(Opts.DeadlineMs))
        return usage(argv[0]);
    } else if (Arg == "--max-derivations") {
      if (!NextCount(Opts.MaxDerivations))
        return usage(argv[0]);
    } else if (Arg == "--max-tuples") {
      if (!NextCount(Opts.MaxTuples))
        return usage(argv[0]);
    } else if (Arg == "--checkpoint-every") {
      if (!NextCount(Opts.CheckpointEvery))
        return usage(argv[0]);
    } else if (Arg == "--mem-limit-mb") {
      if (!NextCount(MemLimitMb))
        return usage(argv[0]);
    } else if (Arg == "--cpu-limit-s") {
      if (!NextCount(Opts.CpuLimitSeconds))
        return usage(argv[0]);
    } else if (Arg == "--stall-timeout-ms") {
      if (!NextCount(Opts.StallTimeoutMs))
        return usage(argv[0]);
    } else if (Arg == "--job-timeout-ms") {
      if (!NextCount(Opts.JobTimeoutMs))
        return usage(argv[0]);
    } else if (Arg == "--retries") {
      std::uint64_t N = 0;
      if (!NextCount(N))
        return usage(argv[0]);
      Opts.MaxRetries = static_cast<int>(N);
    } else if (Arg == "--backoff-ms") {
      if (!NextCount(Opts.BackoffMs))
        return usage(argv[0]);
    } else if (Arg == "--chaos") {
      Opts.Chaos = true;
    } else if (Arg == "--seed") {
      if (!NextCount(Opts.Seed))
        return usage(argv[0]);
    } else if (Arg == "--chaos-kills") {
      std::uint64_t N = 0;
      if (!NextCount(N))
        return usage(argv[0]);
      Opts.ChaosKills = static_cast<int>(N);
    } else if (Arg == "--fresh") {
      Fresh = true;
    } else if (Arg == "-v") {
      Verbose = true;
    } else {
      static const std::vector<std::string> Flags = {
          "--work",           "--presets",          "--configs",
          "--backends",       "--plan",             "--analyze",
          "--deadline-ms",    "--max-derivations",  "--max-tuples",
          "--checkpoint-every", "--mem-limit-mb",   "--cpu-limit-s",
          "--stall-timeout-ms", "--job-timeout-ms", "--retries",
          "--backoff-ms",     "--chaos",            "--seed",
          "--chaos-kills",    "--fresh",            "-v"};
      std::fprintf(stderr, "error: unknown option '%s'%s\n", Arg.c_str(),
                   support::didYouMean(Arg, Flags).c_str());
      return usage(argv[0]);
    }
  }
  if (Opts.WorkDir.empty()) {
    std::fprintf(stderr, "error: --work DIR is required\n");
    return usage(argv[0]);
  }
  Opts.MemLimitBytes = MemLimitMb * 1024 * 1024;
  if (Opts.AnalyzePath.empty())
    Opts.AnalyzePath = findAnalyze(argv[0]);

  std::vector<JobSpec> Jobs;
  if (!PlanFile.empty()) {
    std::string Err = loadPlan(PlanFile, Jobs);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitUsage;
    }
  } else {
    // Validate every axis up front with suggestions: a typo'd cell would
    // otherwise burn a full child-retry cycle before surfacing, and the
    // child's diagnostic names neither the axis nor the alternatives.
    for (const std::string &P : Presets) {
      bool Known = false;
      for (const std::string &N : workload::presetNames())
        Known |= N == P;
      if (!Known) {
        std::fprintf(stderr, "error: unknown preset '%s'%s\n", P.c_str(),
                     support::didYouMean(P, workload::presetNames()).c_str());
        return usage(argv[0]);
      }
    }
    for (const std::string &C : Configs) {
      ctx::Config Cfg;
      if (!ctx::configByName(C, ctx::Abstraction::TransformerString, Cfg)) {
        std::fprintf(stderr, "error: unknown config '%s'%s\n", C.c_str(),
                     support::didYouMean(C, ctx::configNames()).c_str());
        return usage(argv[0]);
      }
    }
    static const std::vector<std::string> KnownBackends = {"native",
                                                           "datalog"};
    for (const std::string &B : Backends)
      if (B != "native" && B != "datalog") {
        std::fprintf(stderr, "error: unknown backend '%s'%s\n", B.c_str(),
                     support::didYouMean(B, KnownBackends).c_str());
        return usage(argv[0]);
      }
    Jobs = expandMatrix(Presets, Configs, Backends);
  }
  if (Jobs.empty()) {
    std::fprintf(stderr, "error: empty job matrix\n");
    return ExitUsage;
  }

  if (Fresh)
    std::remove(journalPath(Opts.WorkDir).c_str());

  std::printf("ctp-batch: %zu job(s), analyze=%s, work=%s%s\n",
              Jobs.size(), Opts.AnalyzePath.c_str(), Opts.WorkDir.c_str(),
              Opts.Chaos ? ", chaos armed" : "");

  Supervisor Sup(Opts);
  if (Verbose)
    Sup.setLogger(logLine, nullptr);
  std::string Err;
  BatchReport Report = Sup.run(Jobs, Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitError;
  }

  std::printf("\n%s", Report.renderTable().c_str());
  {
    std::ofstream Out(Opts.WorkDir + "/report.json",
                      std::ios::binary | std::ios::trunc);
    Out << Report.renderJson();
    if (!Out.good())
      std::fprintf(stderr, "warning: cannot write %s/report.json\n",
                   Opts.WorkDir.c_str());
  }

  if (Report.NumFailed != 0)
    return ExitError;
  if (Report.NumDegraded != 0)
    return ExitDegraded;
  return ExitOk;
}
