//===- perfbench/src/main.cpp - ctp-perfbench entry point -------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ctp-perfbench --workload W --seed N --seconds S --trace 0|1
///               --work-dir DIR --digests FILE [--counts-out FILE]
///               [--trace-out FILE] [--print-digests]
///
/// Runs one workload in this process and prints, as its last stdout line,
/// one JSON object: correct, attempted, failed, and every metric the run
/// measured. perfbench/run.py builds this binary and narrows the metrics
/// to the ones BENCHMARK.json names.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "ctp-perfbench: %s\nusage: ctp-perfbench --workload "
               "analyze-matrix|serve-demand|certify --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --digests FILE "
               "[--counts-out FILE] [--trace-out FILE] [--print-digests]\n",
               Why);
  return 2;
}

/// Names the filesystem the facts dirs and checkpoints are written to.
const char *fsName(const std::string &Dir) {
  struct statfs S;
  if (statfs(Dir.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0x01021994UL:
    return "tmpfs";
  case 0xEF53UL:
    return "ext4";
  case 0x794C7630UL:
    return "overlayfs";
  case 0x58465342UL:
    return "xfs";
  case 0x9123683EUL:
    return "btrfs";
  default:
    return "other";
  }
}

void printJson(const Report &Rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Rep.Correct ? "true" : "false",
              static_cast<unsigned long long>(Rep.Attempted),
              static_cast<unsigned long long>(Rep.Failed));
  bool First = true;
  for (const auto &[Name, VU] : Rep.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), VU.first, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--print-digests") {
      A.PrintDigests = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--work-dir")
      A.WorkDir = V;
    else if (Flag == "--digests")
      A.DigestFile = V;
    else if (Flag == "--counts-out")
      A.CountsOut = V;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (A.WorkDir.empty() || A.DigestFile.empty() || A.Seconds <= 0)
    return usage("--work-dir, --digests and a positive --seconds are "
                 "required");

  std::fprintf(stderr, "perfbench: %s seed=%llu trace=%d work dir %s (%s)\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               A.Trace ? 1 : 0, A.WorkDir.c_str(), fsName(A.WorkDir));
  Report Rep;
  if (A.Workload == "analyze-matrix")
    analyzeMatrix(A, Rep);
  else if (A.Workload == "serve-demand")
    serveDemand(A, Rep);
  else if (A.Workload == "certify")
    certify(A, Rep);
  else
    return usage(("unknown workload " + A.Workload).c_str());

  if (!A.CountsOut.empty()) {
    if (std::FILE *F = std::fopen(A.CountsOut.c_str(), "w")) {
      for (const auto &[K, V] : Rep.Counts)
        std::fprintf(F, "%s %llu\n", K.c_str(),
                     static_cast<unsigned long long>(V));
      std::fclose(F);
    }
  }
  if (A.Trace && !A.TraceOut.empty() &&
      !Tracer::get().write(A.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
  for (const std::string &L : Rep.DigestLines)
    std::printf("digest %s %s\n", A.Workload.c_str(), L.c_str());
  printJson(Rep);
  return 0;
}
