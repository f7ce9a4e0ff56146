//===- bench/bench_client_precision.cpp - Client-level precision ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Supporting table (not in the paper, which measures precision by CI fact
// counts): what the context-sensitivity configurations buy *clients* —
// average points-to set size, may-alias density over a variable sample,
// and monomorphic virtual call sites. Run for both abstractions to
// re-confirm the precision-equality claim at the client level.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "clients/Alias.h"
#include "clients/Devirtualize.h"
#include "clients/Taint.h"
#include "facts/Extract.h"
#include "support/Rng.h"
#include "workload/Presets.h"

#include <cstdio>

using namespace ctp;
using ctx::Abstraction;
using ctx::Config;

int main() {
  const char *Preset = "pmd";
  facts::FactDB DB = facts::extract(workload::generatePreset(Preset));
  std::printf("Client-level precision on preset '%s' (%zu vars, %zu "
              "virtual sites).\n\n",
              Preset, DB.numVars(), DB.VirtualInvokes.size());

  // A fixed random sample of variables for the alias-density metric.
  std::vector<std::uint32_t> Sample;
  Rng R(0xA11A5);
  for (int I = 0; I < 60; ++I)
    Sample.push_back(
        static_cast<std::uint32_t>(R.nextBelow(DB.numVars())));

  std::printf("%-18s %12s %12s %12s %12s %12s\n", "config", "ci-pts",
              "avg-pts-set", "alias-pairs", "monomorph", "taint-warn");

  struct Spec {
    const char *Label;
    Config (*Make)(Abstraction);
  };
  const Spec Specs[] = {
      {"unify", ctx::unification},       {"insensitive", ctx::insensitive},
      {"cutshortcut", ctx::cutShortcut}, {"1-call", ctx::oneCall},
      {"1-call+H", ctx::oneCallH},       {"1-object", ctx::oneObject},
      {"2-object+H", ctx::twoObjectH},   {"2-type+H", ctx::twoTypeH},
      {"2-hybrid+H", ctx::twoHybridH},
  };

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    std::printf("--- %s\n", A == Abstraction::ContextString
                                ? "context strings"
                                : "transformer strings");
    for (const Spec &S : Specs) {
      analysis::Results Res = analysis::solve(DB, S.Make(A));
      const auto &Ci = Res.ciPts();
      // Average points-to set size over variables with any pointee.
      std::size_t Vars = 0;
      for (std::uint32_t V = 0; V < DB.numVars(); ++V)
        Vars += !Res.ptsOf(V).empty();
      double Avg = Vars ? static_cast<double>(Ci.size()) /
                              static_cast<double>(Vars)
                        : 0.0;
      clients::DevirtSummary Devirt = clients::devirtualize(DB, Res);
      clients::SourceMap SM(DB);
      clients::Report Rep;
      clients::checkTaint(DB, Res, SM, Rep);
      Rep.finalize();
      std::size_t TaintWarns = 0;
      for (const clients::Finding &Fd : Rep.findings())
        if (Fd.RuleId == "taint.flow")
          ++TaintWarns;
      std::printf("%-18s %12zu %12.2f %12zu %12zu %12zu\n", S.Label,
                  Ci.size(), Avg, clients::countAliasPairs(Res, Sample),
                  Devirt.MonomorphicSites, TaintWarns);
    }
  }
  std::printf("\nPrecision metrics must match line-for-line between the "
              "two abstractions except possibly\nunder 2-type+H "
              "(Theorem 6.2); context sensitivity monotonically shrinks "
              "alias density.\n");
  return 0;
}
