//===- perfbench/src/Certify.cpp - ctp-verify path ---------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation certifies one cell with the verify layer's public checks:
/// a native solve with provenance, checkClosure, checkSupport, the datalog
/// back-end plus canonicalLines/diffLines, and checkSnapshotRoundTrip.
/// Each pass also certifies an incremental re-solve after a one-op add and
/// after its revert, the way a serve commit does. verifyFactDB's full
/// ladder is deliberately not used: it runs for tens of seconds per preset.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "support/Posix.h"
#include "verify/Verify.h"

namespace perfbench {

namespace {

using ctx::Abstraction;
constexpr Abstraction CS = Abstraction::ContextString;
constexpr Abstraction TS = Abstraction::TransformerString;

const std::vector<CellSpec> &cells() {
  static const std::vector<CellSpec> Cells = {
      {{"bloat", 1}, "2-object+H", TS, 1},
      {{"luindex", 1}, "2-object+H", CS, 3},
      {{"pmd", 1}, "1-call+H", CS, 3},
      {{"antlr", 1}, "1-object", TS, 3},
      {{"xalan", 1}, "2-type+H", TS, 3},
  };
  return Cells;
}

/// The cell whose edits are certified, and the cell (an index into
/// cells()) whose snapshot round trip is restart_s.
const CellSpec IncrementalCell = {{"pmd", 1}, "2-object+H", TS, 1};
constexpr std::size_t RestartCell = 0;
/// Each pass certifies every edit and its revert this many times.
constexpr unsigned EditRounds = 4;

/// Per-pass totals over the first certification of each cell.
struct PassCounts {
  SolveCounts Solve;
  std::uint64_t DlRounds = 0, DlDerivs = 0, ChecksFailed = 0;
};

/// Runs every check of one cell; failures are counted, not fatal.
/// \returns the time of the snapshot round trip in ms.
double certifyCell(const CellSpec &C, const facts::FactDB &DB,
                   const std::string &SnapDir, bool First, PassCounts &Counts,
                   const Digests &Pinned, const Args &A, Report &Rep) {
  const ctx::Config Cfg = C.config();
  const std::string K = C.key();
  auto Check = [&](bool Ok, const std::string &What) {
    if (!Ok) {
      ++Counts.ChecksFailed;
      Rep.fail(K + ": " + What);
    }
  };
  analysis::SolverOptions SO;
  SO.Provenance.Enabled = true;
  analysis::Results R;
  {
    Span Sp(C.Abs == CS ? "analysis.solve.cs" : "analysis.solve.ts");
    R = analysis::solve(DB, Cfg, SO);
  }
  Check(R.Stat.Term == TerminationReason::Converged, "did not converge");
  std::string Cex;
  {
    Span Sp("verify.closure");
    Check(verify::checkClosure(DB, R, verify::ClosureOptions(), Cex),
          "closure: " + Cex);
  }
  {
    Span Sp("verify.support");
    Check(verify::checkSupport(DB, R, Cex), "support: " + Cex);
  }
  analysis::Results D;
  {
    Span Sp("datalog.solve");
    D = analysis::solveViaDatalog(DB, Cfg);
  }
  Check(D.Stat.Term == TerminationReason::Converged,
        "datalog did not converge");
  std::uint64_t Digest = 0;
  {
    Span Sp("verify.differential");
    std::vector<std::string> Native = verify::canonicalLines(DB, R);
    Check(verify::diffLines(Native, "native", verify::canonicalLines(DB, D),
                            "datalog", Cex),
          "differential: " + Cex);
    Digest = fnvLines(Native);
  }
  double SnapshotMs = 0;
  {
    std::int64_t T0 = nowNs();
    Span Sp("verify.snapshot");
    Check(verify::checkSnapshotRoundTrip(DB, Cfg, false, SnapDir, Cex),
          "snapshot round trip: " + Cex);
    SnapshotMs = msBetween(T0, nowNs());
  }
  if (!First)
    return SnapshotMs;
  Rep.checkDigest(Pinned, K, Digest, A.PrintDigests);
  Rep.count(K + ".derivations", R.Stat.Progress.Derivations);
  Rep.count(K + ".tuples", tupleCount(R));
  Rep.count(K + ".domain_size", R.Stat.DomainSize);
  Rep.count(K + ".datalog_rounds", D.Stat.Progress.Iterations);
  Rep.count(K + ".datalog_derivations", D.Stat.Progress.Derivations);
  Counts.Solve.add(R);
  Counts.DlRounds += D.Stat.Progress.Iterations;
  Counts.DlDerivs += D.Stat.Progress.Derivations;
  return SnapshotMs;
}

/// Certifies the re-solve of one edited fact base: what a commit runs
/// before anything becomes visible.
analysis::IncrementalOutcome
certifyEdit(const facts::FactDB &Edited, const ctx::Config &Cfg,
            const analysis::Results &Prev, const analysis::InputDelta &D,
            const std::string &What, Report &Rep) {
  analysis::IncrementalOutcome Out;
  {
    Span Sp("analysis.incremental");
    Out = analysis::resolveIncremental(Edited, Cfg, Prev, D);
  }
  std::string Cex;
  {
    Span Sp("verify.closure");
    if (!verify::checkClosure(Edited, Out.R, verify::ClosureOptions(), Cex))
      Rep.fail(What + " closure: " + Cex);
  }
  {
    Span Sp("verify.support");
    if (!Out.R.Prov || !verify::checkSupport(Edited, Out.R, Cex))
      Rep.fail(What + " support: " + Cex);
  }
  return Out;
}

} // namespace

void certify(const Args &A, Report &Rep) {
  Digests Pinned;
  Pinned.load(A.DigestFile, "certify");
  Tracer &T = Tracer::get();
  EndToEnd E2E;

  std::vector<CellSpec> All = cells();
  All.push_back(IncrementalCell);
  std::vector<Input> Inputs;
  SetUps Setups(A, [&](unsigned I) {
    double Ms = 0;
    std::vector<Input> Built =
        buildInputs(inputSpecs(All), A.Seed, A.WorkDir, Ms);
    if (I == 0)
      Inputs = std::move(Built);
    return Ms;
  });
  Setups.upTo(0.0);

  // Untimed preparation: the edited cell's base with provenance and its
  // edited fact bases.
  const facts::FactDB &IncDB = inputFor(Inputs, IncrementalCell.In).DB;
  const ctx::Config IncCfg = IncrementalCell.config();
  analysis::SolverOptions ProvOpts;
  ProvOpts.Provenance.Enabled = true;
  const analysis::Results IncBase = analysis::solve(IncDB, IncCfg, ProvOpts);
  const std::uint64_t BaseDigest = fixpointDigest(IncDB, IncBase);
  std::vector<Edit> Pool = editPool(IncDB, 2);
  shuffle(Pool, A.Seed, "edit-order");
  const std::vector<EditedFacts> Edits = applyEdits(IncDB, Pool, Rep);

  std::vector<std::size_t> Order(cells().size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  shuffle(Order, A.Seed, "cell-order");

  OpLatency Cells;
  PassLoop Loop;
  Loop.run(A, Setups, [&](int P) {
    std::int64_t PassStart = nowNs();
    std::int64_t CheckNs = 0;
    PassCounts Counts;
    for (std::size_t CI : Order) {
      const CellSpec &C = cells()[CI];
      const std::string SnapDir = A.WorkDir + "/snap-" + std::to_string(CI);
      posix::mkdirs(SnapDir);
      std::vector<double> Reps;
      for (unsigned R = 0; R < C.Repeat; ++R) {
        ++Rep.Attempted;
        std::int64_t T0 = nowNs();
        double SnapshotMs = certifyCell(C, inputFor(Inputs, C.In).DB, SnapDir,
                                        R == 0, Counts, Pinned, A, Rep);
        Reps.push_back(msBetween(T0, nowNs()));
        if (CI == RestartCell)
          E2E.RestartMs.push_back(SnapshotMs);
      }
      Cells.add(CI, median(Reps));
    }
    if (P == 0 || T.On) {
      Counts.Solve.report(Rep);
      Rep.metric("datalog.rounds", static_cast<double>(Counts.DlRounds),
                 "count");
      Rep.metric("datalog.derivations", static_cast<double>(Counts.DlDerivs),
                 "count");
      Rep.metric("verify.checks_failed",
                 static_cast<double>(Counts.ChecksFailed), "count");
    }

    for (unsigned Round = 0; Round < EditRounds; ++Round) {
      for (std::size_t EI = 0; EI < Edits.size(); ++EI) {
        const EditedFacts &E = Edits[EI];
        ++Rep.Attempted;
        std::int64_t T0 = nowNs();
        analysis::IncrementalOutcome Add = certifyEdit(
            E.Added, IncCfg, IncBase, E.AddDelta, Pool[EI].Add, Rep);
        E2E.AddMs.push_back(msBetween(T0, nowNs()));
        ++Rep.Attempted;
        T0 = nowNs();
        analysis::IncrementalOutcome Rm = certifyEdit(
            E.Reverted, IncCfg, Add.R, E.RmDelta, Pool[EI].Rm, Rep);
        E2E.RmMs.push_back(msBetween(T0, nowNs()));
        std::int64_t C0 = nowNs();
        const std::string K = "edit" + std::to_string(EI);
        Rep.count(K + ".add.invalidated", Add.Invalidated);
        Rep.count(K + ".rm.invalidated", Rm.Invalidated);
        if (P == 0 && Round == 0 &&
            fixpointDigest(E.Reverted, Rm.R) != BaseDigest)
          Rep.fail(K + ": fixpoint after add+revert differs from the base");
        CheckNs += nowNs() - C0;
      }
    }
    return msBetween(PassStart, nowNs()) - static_cast<double>(CheckNs) / 1e6;
  });

  E2E.SetupMs = Setups.ms();
  E2E.OpMs = E2E.QueryMs = Cells.perOp();
  E2E.report(Rep, Loop);
  if (!A.Trace)
    return;
  setupMetrics(Rep, Inputs, E2E.SetupMs.size());
  const double Cs = perPassMs(Loop, "analysis.solve.cs");
  const double Ts = perPassMs(Loop, "analysis.solve.ts");
  Rep.metric("analysis.solve_ms", Cs + Ts, "ms");
  Rep.metric("analysis.solve_ms.cs", Cs, "ms");
  Rep.metric("analysis.solve_ms.ts", Ts, "ms");
  for (const char *N : {"analysis.incremental", "datalog.solve",
                        "verify.closure", "verify.support",
                        "verify.differential", "verify.snapshot"})
    Rep.metric(std::string(N) + "_ms", perPassMs(Loop, N), "ms");
  traceMetrics(Rep, Loop, E2E.SetupMs.size());
}

} // namespace perfbench
