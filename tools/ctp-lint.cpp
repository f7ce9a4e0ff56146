//===- tools/ctp-lint.cpp - Points-to-powered checker driver --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Runs the checker suite (escape analysis, race-candidate detection,
// cast safety, taint flow) over one analysis configuration and emits the
// findings as human-readable text or SARIF 2.1.0 JSON. Output is
// byte-deterministic: two runs over the same input produce identical
// bytes.
//
// Usage:
//   ctp-lint [options]
//     --facts DIR          read Doop-style .facts files from DIR
//     --preset NAME        use a built-in workload (antlr, bloat, chart,
//                          eclipse, luindex, pmd, xalan)
//     --config NAME        1-call | 1-call+H | 1-object | 2-object+H |
//                          2-type+H | 2-hybrid+H | cutshortcut |
//                          insensitive | unify (default 2-object+H)
//     --abstraction A      cs (context strings) | ts (transformer strings;
//                          default)
//     --collapse           enable subsumption collapsing (ts only)
//     --datalog            evaluate through the generic Datalog engine
//     --deadline-ms N      wall-clock budget for the solve (0 = unlimited)
//     --max-derivations N  rule-firing cap (0 = unlimited)
//     --max-tuples N       derived-tuple (approx. memory) cap
//     --fallback           on budget exhaustion degrade down the
//                          configuration ladder instead of stopping
//     --lenient            skip (and count) malformed fact lines instead
//                          of aborting the read
//     --checks LIST        comma-separated subset of escape,race,cast,
//                          taint (default: all)
//     --provenance         record first-derivation provenance during the
//                          solve (native back-end only); --explain then
//                          appends the sink fact's derivation chain
//     --explain ID         instead of the report, print the witness path
//                          of the finding with stable id ID
//     --format FMT         human (default) | sarif
//     --out FILE           write the report to FILE instead of stdout
//
// Exit codes: 0 converged and no warnings, 1 runtime error, 2 usage
// error, 3 completed degraded (budget-truncated or a fallback rung below
// the requested configuration answered — findings may be incomplete),
// 4 converged with at least one warning-severity finding. A run that is
// both degraded and warned exits 3 — degraded wins; see
// support/ExitCodes.h (lintExitCode).
//
//===----------------------------------------------------------------------===//

#include "analysis/Configurations.h"
#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "clients/CastSafety.h"
#include "clients/Diagnostics.h"
#include "clients/Escape.h"
#include "clients/RaceCandidates.h"
#include "clients/Taint.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "support/Budget.h"
#include "support/ExitCodes.h"
#include "support/Parse.h"
#include "support/Suggest.h"
#include "workload/Presets.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

using namespace ctp;

namespace {

int usage(const char *Prog) {
  std::string Presets;
  for (const std::string &N : workload::presetNames()) {
    if (!Presets.empty())
      Presets += ", ";
    Presets += N;
  }
  std::fprintf(
      stderr,
      "usage: %s [--facts DIR | --preset NAME] [--config NAME] "
      "[--abstraction cs|ts]\n"
      "          [--collapse] [--datalog] [--deadline-ms N] "
      "[--max-derivations N]\n"
      "          [--max-tuples N] [--fallback] [--lenient]\n"
      "          [--checks escape,race,cast,taint] [--provenance] "
      "[--explain ID]\n"
      "          [--format human|sarif] [--out FILE]\n"
      "  presets: %s\n"
      "  configs: 1-call, 1-call+H, 1-object, 2-object+H, 2-type+H,\n"
      "           2-hybrid+H, cutshortcut, insensitive, unify\n"
      "  exit codes: 0 clean, 1 error, 2 usage, 3 completed degraded,\n"
      "              4 converged with warnings (3 wins over 4)\n",
      Prog, Presets.c_str());
  return ExitUsage;
}

struct CheckSet {
  bool Escape = true;
  bool Race = true;
  bool Cast = true;
  bool Taint = true;
};

/// Parses "escape,race,cast,taint" subsets; \returns false on an unknown
/// name or an empty selection, leaving the offender in \p BadName (empty
/// when the list merely selected nothing).
bool parseChecks(const std::string &List, CheckSet &Out,
                 std::string &BadName) {
  Out = {false, false, false, false};
  BadName.clear();
  std::size_t Pos = 0;
  while (Pos <= List.size()) {
    std::size_t Comma = List.find(',', Pos);
    std::string Name = List.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Name == "escape")
      Out.Escape = true;
    else if (Name == "race")
      Out.Race = true;
    else if (Name == "cast")
      Out.Cast = true;
    else if (Name == "taint")
      Out.Taint = true;
    else if (Name == "all")
      Out = {true, true, true, true};
    else if (!Name.empty()) {
      BadName = Name;
      return false;
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return Out.Escape || Out.Race || Out.Cast || Out.Taint;
}

} // namespace

int main(int argc, char **argv) {
  std::string FactsDir, Preset, OutFile, ExplainId, ConfigName = "2-object+H",
                                         Format = "human";
  ctx::Abstraction Abs = ctx::Abstraction::TransformerString;
  bool Collapse = false, UseDatalog = false, Fallback = false,
       Lenient = false, Provenance = false;
  BudgetSpec Budget;
  CheckSet Checks;

  // Liveness for a supervising ctp-batch: beat a heartbeat file from the
  // solver's budget poll points when CTP_HEARTBEAT_FILE is set.
  heartbeat::installFromEnv();

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
        std::fprintf(stderr, "error: %s expects a non-negative integer, "
                             "got '%s'\n",
                     Arg.c_str(), V);
        return false;
      }
      return true;
    };
    if (Arg == "--facts") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      FactsDir = V;
    } else if (Arg == "--preset") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Preset = V;
    } else if (Arg == "--config") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      ConfigName = V;
    } else if (Arg == "--abstraction") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      if (std::strcmp(V, "cs") == 0)
        Abs = ctx::Abstraction::ContextString;
      else if (std::strcmp(V, "ts") == 0)
        Abs = ctx::Abstraction::TransformerString;
      else {
        std::fprintf(stderr, "error: unknown abstraction '%s'%s\n", V,
                     support::didYouMean(V, {"cs", "ts"}).c_str());
        return usage(argv[0]);
      }
    } else if (Arg == "--collapse") {
      Collapse = true;
    } else if (Arg == "--datalog") {
      UseDatalog = true;
    } else if (Arg == "--deadline-ms") {
      if (!NextCount(Budget.DeadlineMs))
        return usage(argv[0]);
    } else if (Arg == "--max-derivations") {
      if (!NextCount(Budget.MaxDerivations))
        return usage(argv[0]);
    } else if (Arg == "--max-tuples") {
      if (!NextCount(Budget.MaxTuples))
        return usage(argv[0]);
    } else if (Arg == "--fallback") {
      Fallback = true;
    } else if (Arg == "--provenance") {
      Provenance = true;
    } else if (Arg == "--explain") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      ExplainId = V;
    } else if (Arg == "--lenient") {
      Lenient = true;
    } else if (Arg == "--checks") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      std::string BadName;
      if (!parseChecks(V, Checks, BadName)) {
        if (BadName.empty())
          std::fprintf(stderr, "error: --checks list '%s' selects "
                               "nothing\n",
                       V);
        else
          std::fprintf(stderr, "error: unknown check '%s'%s\n",
                       BadName.c_str(),
                       support::didYouMean(
                           BadName,
                           {"escape", "race", "cast", "taint", "all"})
                           .c_str());
        return usage(argv[0]);
      }
    } else if (Arg == "--format") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Format = V;
      if (Format != "human" && Format != "sarif") {
        std::fprintf(stderr, "error: unknown format '%s'%s\n", V,
                     support::didYouMean(V, {"human", "sarif"}).c_str());
        return usage(argv[0]);
      }
    } else if (Arg == "--out") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      OutFile = V;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(argv[0]);
    }
  }
  if (FactsDir.empty() == Preset.empty()) {
    std::fprintf(stderr, "error: exactly one of --facts / --preset is "
                         "required\n");
    return usage(argv[0]);
  }

  facts::FactDB DB;
  if (!FactsDir.empty()) {
    facts::FactsReadOptions ReadOpts;
    ReadOpts.Lenient = Lenient;
    facts::FactsReadReport ReadReport;
    std::string Err = facts::readFactsDir(FactsDir, DB, ReadOpts, &ReadReport);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitError;
    }
    if (ReadReport.SkippedLines != 0)
      std::fprintf(stderr, "warning: skipped %zu malformed fact line(s)\n",
                   ReadReport.SkippedLines);
  } else {
    bool Known = false;
    for (const std::string &N : workload::presetNames())
      Known |= N == Preset;
    if (!Known) {
      std::fprintf(
          stderr, "error: unknown preset '%s'%s\n", Preset.c_str(),
          support::didYouMean(Preset, workload::presetNames()).c_str());
      return ExitError;
    }
    DB = facts::extract(workload::generatePreset(Preset));
  }

  ctx::Config Cfg;
  if (!ctx::configByName(ConfigName, Abs, Cfg)) {
    std::fprintf(
        stderr, "error: unknown config '%s'%s\n", ConfigName.c_str(),
        support::didYouMean(ConfigName, ctx::configNames()).c_str());
    return ExitError;
  }
  std::string CfgErr = Cfg.validate();
  if (!CfgErr.empty()) {
    std::fprintf(stderr, "error: %s\n", CfgErr.c_str());
    return ExitError;
  }

  if (Provenance && (UseDatalog || Fallback)) {
    // The recorder hooks the native solver's insertion sites; the Datalog
    // engine (and the fallback ladder, which may route through it) does
    // not expose per-tuple firing order.
    std::fprintf(stderr, "warning: --provenance is native-solver-only; "
                         "recording disabled for this run\n");
    Provenance = false;
  }

  analysis::Results R;
  bool Degraded = false;
  if (Fallback) {
    analysis::FallbackOptions FOpts;
    FOpts.Budget = Budget;
    FOpts.UseDatalog = UseDatalog;
    FOpts.Solver.CollapseSubsumedPts = Collapse;
    analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FOpts);
    Degraded = O.Degraded;
    R = std::move(O.R);
  } else {
    if (UseDatalog) {
      R = analysis::solveViaDatalog(DB, Cfg, nullptr, Budget);
    } else {
      analysis::SolverOptions Opts;
      Opts.CollapseSubsumedPts = Collapse;
      Opts.Budget = Budget;
      Opts.Provenance.Enabled = Provenance;
      R = analysis::solve(DB, Cfg, Opts);
    }
    Degraded = R.Stat.Term != TerminationReason::Converged;
  }
  if (!R.Stat.ProvenanceDropped.empty())
    std::fprintf(stderr, "warning: %s\n", R.Stat.ProvenanceDropped.c_str());
  if (Degraded)
    std::fprintf(stderr,
                 "warning: analysis did not converge at the requested "
                 "configuration; findings may be incomplete\n");

  clients::SourceMap SM(DB);
  clients::Report Report;
  std::map<std::string, clients::TaintEndpoint> Endpoints;
  if (Checks.Escape)
    clients::checkEscape(DB, R, SM, Report);
  if (Checks.Race)
    clients::checkRaces(DB, R, SM, Report);
  if (Checks.Cast)
    clients::checkCastSafety(DB, R, SM, Report);
  if (Checks.Taint)
    clients::checkTaint(DB, R, SM, Report, &Endpoints);
  Report.finalize();

  std::string Rendered;
  if (!ExplainId.empty()) {
    Rendered = Report.renderExplain(ExplainId);
    if (Rendered.empty()) {
      std::fprintf(stderr, "error: no finding with id '%s'\n",
                   ExplainId.c_str());
      return ExitError;
    }
    // With provenance recorded, a taint finding's explanation also gets
    // the derivation chain of the sink-side points-to fact.
    auto EP = Endpoints.find(ExplainId);
    if (R.Prov && R.Dom && R.ReachCtxts && EP != Endpoints.end()) {
      // Pick the fact whose rendering is smallest — content-ordered, the
      // same tie-break the witness endpoint annotations use.
      std::uint32_t Node = analysis::ProvenanceGraph::InvalidNode;
      std::string Best;
      for (const auto &F : R.Pts)
        if (F.Var == EP->second.SinkVar && F.Heap == EP->second.Heap) {
          std::uint32_t N =
              R.Prov->lookup(analysis::ProvRel::Pts, analysis::keyOf(F));
          if (N == analysis::ProvenanceGraph::InvalidNode)
            continue;
          std::string S = R.Dom->toString(F.T);
          if (Node == analysis::ProvenanceGraph::InvalidNode || S < Best) {
            Node = N;
            Best = std::move(S);
          }
        }
      if (Node != analysis::ProvenanceGraph::InvalidNode)
        Rendered += "  derivation of the sink points-to fact:\n" +
                    analysis::renderProvenanceChain(*R.Prov, Node, DB,
                                                    *R.Dom, *R.ReachCtxts);
    }
  } else {
    Rendered = Format == "sarif" ? Report.renderSarif("ctp-lint", "1.0.0")
                                 : Report.renderHuman();
  }
  if (OutFile.empty()) {
    std::fwrite(Rendered.data(), 1, Rendered.size(), stdout);
  } else {
    std::ofstream OS(OutFile, std::ios::binary);
    if (!OS) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   OutFile.c_str());
      return ExitError;
    }
    OS << Rendered;
    if (!OS.good()) {
      std::fprintf(stderr, "error: failed writing '%s'\n", OutFile.c_str());
      return ExitError;
    }
  }

  return lintExitCode(Degraded,
                      Report.countAtLeast(clients::Severity::Warning) > 0);
}
