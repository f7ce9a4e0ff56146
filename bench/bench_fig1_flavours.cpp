//===- bench/bench_fig1_flavours.cpp - Figure 1 / Section 2 table ---------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Regenerates the Section-2 narrative around Figure 1: the points-to sets
// of x1/y1/x2/y2/z under context-insensitive, 1-call, 2-call, 1-object,
// and 2-object+H analyses, for both abstractions, plus the PAG edge
// summary of Figure 2 for the same program.
//
//===----------------------------------------------------------------------===//

#include "analysis/Configurations.h"
#include "analysis/Solver.h"
#include "cfl/Oracle.h"
#include "cfl/Pag.h"
#include "facts/Extract.h"
#include "workload/PaperPrograms.h"
#include "workload/Presets.h"

#include <cstdio>
#include <string>

using namespace ctp;
using ctx::Abstraction;
using ctx::Config;

namespace {

std::string fmtPts(const analysis::Results &R, const facts::FactDB &DB,
                   ir::VarId V) {
  std::string S = "{";
  bool First = true;
  for (std::uint32_t H : R.ptsOf(V)) {
    S += (First ? "" : ",") + DB.HeapNames[H];
    First = false;
  }
  return S + "}";
}

} // namespace

int main() {
  workload::Figure1Program F = workload::figure1();
  facts::FactDB DB = facts::extract(F.P);

  std::printf("Figure 1 / Section 2: precision per flavour and level.\n\n");
  std::printf("%-22s %-12s %-12s %-12s %-12s %-10s\n", "config", "x1",
              "y1", "x2", "y2", "z");

  struct Row {
    const char *Label;
    Config Cfg;
  };
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    Row Rows[] = {
        {"unify", ctx::unification(A)},
        {"insensitive", ctx::insensitive(A)},
        {"cutshortcut", ctx::cutShortcut(A)},
        {"1-call", ctx::oneCall(A)},
        {"2-call", Config{A, ctx::Flavour::CallSite, 2, 0}},
        {"1-call+H", ctx::oneCallH(A)},
        {"1-object", ctx::oneObject(A)},
        {"2-object+H", ctx::twoObjectH(A)},
        {"2-type+H", ctx::twoTypeH(A)},
        {"2-hybrid+H", ctx::twoHybridH(A)},
    };
    for (const Row &Rw : Rows) {
      analysis::Results R = analysis::solve(DB, Rw.Cfg);
      std::printf("%-22s %-12s %-12s %-12s %-12s %-10s\n",
                  R.Config.name().c_str(), fmtPts(R, DB, F.X1).c_str(),
                  fmtPts(R, DB, F.Y1).c_str(), fmtPts(R, DB, F.X2).c_str(),
                  fmtPts(R, DB, F.Y2).c_str(), fmtPts(R, DB, F.Z).c_str());
    }
    std::printf("\n");
  }

  std::printf("Expected per the paper: 1-call separates x1/y1 but merges "
              "x2/y2; 1-object the reverse;\n2-call and 2-object+H "
              "separate all; z empties once heap contexts split the two "
              "m() objects.\n\n");

  // Speed/precision frontier: the degradation ladder on a generated
  // preset — wall time and ci tuple counts per rung. This is the source
  // of the EXPERIMENTS.md flavour table; unify must come in under
  // insensitive, cutshortcut within the same order of magnitude.
  {
    facts::FactDB Big = facts::extract(workload::generatePreset("pmd"));
    std::printf("Ladder frontier on preset 'pmd' (%zu vars):\n",
                Big.numVars());
    std::printf("%-14s %10s %10s %10s %10s\n", "rung", "seconds",
                "ci-pts", "ci-calls", "work");
    for (const Config &Cfg : analysis::defaultLadder(
             ctx::twoObjectH(Abstraction::TransformerString))) {
      analysis::Results R = analysis::solve(Big, Cfg);
      std::printf("%-14s %10.3f %10zu %10zu %10zu\n",
                  R.Config.name().c_str(), R.Stat.Seconds,
                  R.ciPts().size(), R.ciCall().size(), R.Stat.WorkItems);
    }
    std::printf("\n");
  }

  // Figure 2 view: the PAG of the program with on-the-fly call edges.
  cfl::OracleResult O = cfl::solveInsensitive(DB);
  std::vector<cfl::CallEdge> Calls;
  for (const auto &C : O.Calls)
    Calls.push_back({C[0], C[1]});
  cfl::Pag G(DB, Calls);
  std::size_t Kind[6] = {};
  for (const auto &E : G.edges())
    ++Kind[static_cast<unsigned>(E.Kind)];
  std::printf("Figure 2 (PAG of this program): %zu nodes; edges: new=%zu "
              "assign=%zu store=%zu load=%zu entry=%zu exit=%zu\n",
              G.numNodes(), Kind[0], Kind[1], Kind[2], Kind[3], Kind[4],
              Kind[5]);
  return 0;
}
