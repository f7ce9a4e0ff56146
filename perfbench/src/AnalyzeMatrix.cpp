//===- perfbench/src/AnalyzeMatrix.cpp - ctp-analyze / ctp-lint path --===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation is a cold analysis::solve of one cell followed by the
/// default ctp-lint checkers on its result. Each pass also re-solves one
/// small cell incrementally after a one-op add and its revert, and resumes
/// one bloat cell from its converged checkpoint (ctp-analyze --resume).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Configurations.h"
#include "analysis/Solver.h"
#include "clients/CastSafety.h"
#include "clients/Diagnostics.h"
#include "clients/Escape.h"
#include "clients/RaceCandidates.h"
#include "clients/Taint.h"
#include "support/Posix.h"

namespace perfbench {

namespace {

using ctx::Abstraction;
constexpr Abstraction CS = Abstraction::ContextString;
constexpr Abstraction TS = Abstraction::TransformerString;

/// Cache-exceeding bloat and scaled-chart cells, then cache-resident
/// small cells. Pairs that differ only in abstraction on call-site/object
/// configurations are checked against each other (Theorem 6.2).
const std::vector<CellSpec> &cells() {
  static const std::vector<CellSpec> Cells = {
      {{"bloat", 1}, "2-object+H", CS, 1},
      {{"bloat", 1}, "2-object+H", TS, 1},
      {{"bloat", 1}, "1-call+H", CS, 1},
      {{"chart", 2}, "2-type+H", TS, 1},
      {{"chart", 1}, "2-type+H", TS, 3},
      {{"antlr", 1}, "1-object", CS, 3},
      {{"antlr", 1}, "1-object", TS, 3},
      {{"xalan", 1}, "2-type+H", CS, 3},
      {{"eclipse", 1}, "1-call+H", TS, 3},
      {{"pmd", 1}, "2-object+H", CS, 3},
      {{"pmd", 1}, "2-object+H", TS, 3},
  };
  return Cells;
}

/// The cell re-solved incrementally, and the cell resumed from a
/// checkpoint.
const CellSpec IncrementalCell = {{"pmd", 1}, "2-object+H", TS, 1};
const CellSpec ResumeCell = {{"bloat", 1}, "2-object+H", TS, 1};
constexpr unsigned ResumesPerPass = 5;
/// Each pass applies every edit and its revert this many times: one
/// incremental re-solve of the small cell takes a few milliseconds.
constexpr unsigned EditRounds = 8;

/// One ctp-lint run over a solved cell; \returns the finding count.
std::size_t runCheckers(const facts::FactDB &DB, const analysis::Results &R) {
  Span Sp("clients.check");
  clients::SourceMap SM(DB);
  clients::Report Report;
  clients::checkEscape(DB, R, SM, Report);
  clients::checkRaces(DB, R, SM, Report);
  clients::checkCastSafety(DB, R, SM, Report);
  clients::checkTaint(DB, R, SM, Report);
  Report.finalize();
  return Report.findings().size();
}

/// Renders every interned transformation of the cell's domain: the ctx
/// layer's own cost, visible only as a replay beside the solve.
void replayCtxRender(const analysis::Results &R) {
  Span Sp("ctx.render", 0, /*Replay=*/true);
  for (std::size_t T = 0; T < R.Dom->size(); ++T)
    (void)R.Dom->toString(static_cast<ctx::TransformId>(T));
}

} // namespace

void analyzeMatrix(const Args &A, Report &Rep) {
  Digests Pinned;
  Pinned.load(A.DigestFile, "analyze-matrix");
  Tracer &T = Tracer::get();
  EndToEnd E2E;

  std::vector<Input> Inputs;
  SetUps Setups(A, [&](unsigned I) {
    double Ms = 0;
    std::vector<Input> Built =
        buildInputs(inputSpecs(cells()), A.Seed, A.WorkDir, Ms);
    if (I == 0)
      Inputs = std::move(Built);
    return Ms;
  });
  Setups.upTo(0.0);

  // Untimed preparation: the incremental cell's base with provenance and
  // its edited fact bases, and the resume cell's converged checkpoint.
  const Input &IncIn = inputFor(Inputs, IncrementalCell.In);
  const ctx::Config IncCfg = IncrementalCell.config();
  analysis::SolverOptions ProvOpts;
  ProvOpts.Provenance.Enabled = true;
  const analysis::Results IncBase =
      analysis::solve(IncIn.DB, IncCfg, ProvOpts);
  const std::uint64_t BaseDigest = fixpointDigest(IncIn.DB, IncBase);
  std::vector<Edit> Pool = editPool(IncIn.DB, 2);
  shuffle(Pool, A.Seed, "edit-order");
  const std::vector<EditedFacts> Edits = applyEdits(IncIn.DB, Pool, Rep);

  const Input &ResIn = inputFor(Inputs, ResumeCell.In);
  const ctx::Config ResCfg = ResumeCell.config();
  const std::string CkptDir = A.WorkDir + "/resume-ckpt";
  posix::mkdirs(CkptDir);
  {
    analysis::SolverOptions SO;
    SO.Checkpoint.Dir = CkptDir;
    SO.Checkpoint.KeepOnConverge = true;
    analysis::Results R = analysis::solve(ResIn.DB, ResCfg, SO);
    if (R.Stat.Term != TerminationReason::Converged ||
        !R.Stat.CheckpointError.empty())
      Rep.fail("resume cell checkpoint: " + R.Stat.CheckpointError);
  }

  std::vector<std::size_t> Order(cells().size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  shuffle(Order, A.Seed, "cell-order");

  OpLatency Cells;
  std::map<std::string, std::uint64_t> CiByPair;
  std::map<std::string, std::uint64_t> FixpointByCell;

  PassLoop Loop;
  Loop.run(A, Setups, [&](int P) {
    std::int64_t PassStart = nowNs();
    std::int64_t CheckNs = 0;
    SolveCounts Counts;
    std::uint64_t Findings = 0;
    for (std::size_t CI : Order) {
      const CellSpec &C = cells()[CI];
      const Input &In = inputFor(Inputs, C.In);
      const ctx::Config Cfg = C.config();
      const std::string K = C.key();
      std::vector<double> Reps;
      for (unsigned R = 0; R < C.Repeat; ++R) {
        ++Rep.Attempted;
        std::int64_t T0 = nowNs();
        analysis::Results Res;
        {
          Span Sp(C.Abs == CS ? "analysis.solve.cs" : "analysis.solve.ts");
          Res = analysis::solve(In.DB, Cfg);
        }
        std::size_t NFind = runCheckers(In.DB, Res);
        Reps.push_back(msBetween(T0, nowNs()));

        std::int64_t C0 = nowNs();
        if (Res.Stat.Term != TerminationReason::Converged)
          Rep.fail(K + " did not converge");
        if (R == 0) {
          Rep.count(K + ".derivations", Res.Stat.Progress.Derivations);
          Rep.count(K + ".work_items", Res.Stat.WorkItems);
          Rep.count(K + ".tuples", tupleCount(Res));
          Rep.count(K + ".domain_size", Res.Stat.DomainSize);
          Rep.count(K + ".findings", NFind);
          Counts.add(Res);
          Findings += NFind;
        }
        if (R == 0 && P == 0) {
          std::uint64_t D = fixpointDigest(In.DB, Res);
          FixpointByCell[K] = D;
          Rep.checkDigest(Pinned, K, D, A.PrintDigests);
          if (Cfg.Flav == ctx::Flavour::CallSite ||
              Cfg.Flav == ctx::Flavour::Object) {
            std::string Pair = C.In.key() + "/" + C.Config;
            auto [It, New] = CiByPair.emplace(Pair, ciDigest(Res));
            if (!New && It->second != ciDigest(Res))
              Rep.fail("Theorem 6.2: cs and ts insensitive projections "
                       "differ on " + Pair);
          }
        }
        CheckNs += nowNs() - C0;
        // Outside the check window: PassLoop takes replays out of the
        // traced pass time itself.
        if (R == 0 && T.On)
          replayCtxRender(Res);
      }
      Cells.add(CI, median(Reps));
    }
    if (P == 0 || T.On) {
      Counts.report(Rep);
      Rep.metric("clients.findings", static_cast<double>(Findings), "count");
    }

    // Incremental re-solve of a one-op add, then of its revert.
    for (unsigned Round = 0; Round < EditRounds; ++Round) {
      for (std::size_t EI = 0; EI < Edits.size(); ++EI) {
        const EditedFacts &E = Edits[EI];
        ++Rep.Attempted;
        std::int64_t T0 = nowNs();
        analysis::IncrementalOutcome Add;
        {
          Span Sp("analysis.incremental");
          Add = analysis::resolveIncremental(E.Added, IncCfg, IncBase,
                                             E.AddDelta);
        }
        E2E.AddMs.push_back(msBetween(T0, nowNs()));
        ++Rep.Attempted;
        T0 = nowNs();
        analysis::IncrementalOutcome Rm;
        {
          Span Sp("analysis.incremental");
          Rm = analysis::resolveIncremental(E.Reverted, IncCfg, Add.R,
                                            E.RmDelta);
        }
        E2E.RmMs.push_back(msBetween(T0, nowNs()));

        std::int64_t C0 = nowNs();
        const std::string K = "edit" + std::to_string(EI);
        if (Add.R.Stat.Term != TerminationReason::Converged ||
            Rm.R.Stat.Term != TerminationReason::Converged)
          Rep.fail(K + ": incremental re-solve did not converge");
        Rep.count(K + ".add.invalidated", Add.Invalidated);
        Rep.count(K + ".rm.invalidated", Rm.Invalidated);
        Rep.count(K + ".rm.survivors", Rm.Survivors);
        if (P == 0 && Round == 0 &&
            fixpointDigest(E.Reverted, Rm.R) != BaseDigest)
          Rep.fail(K + ": fixpoint after add+revert differs from the base");
        CheckNs += nowNs() - C0;
      }
    }

    // ctp-analyze --resume on a converged checkpoint.
    for (unsigned I = 0; I < ResumesPerPass; ++I) {
      ++Rep.Attempted;
      std::int64_t T0 = nowNs();
      analysis::Results R;
      analysis::SnapshotProbe Probe;
      {
        Span Sp("analysis.resume");
        Probe = analysis::probeSnapshot(CkptDir, ResIn.DB, ResCfg, false,
                                        false);
        analysis::SolverOptions SO;
        if (Probe.Status == analysis::ResumeStatus::Resumed)
          SO.Resume = &Probe.Snap;
        R = analysis::solve(ResIn.DB, ResCfg, SO);
      }
      E2E.RestartMs.push_back(msBetween(T0, nowNs()));
      std::int64_t C0 = nowNs();
      if (Probe.Status != analysis::ResumeStatus::Resumed ||
          R.Stat.Progress.Derivations != Probe.Snap.Derivations ||
          R.Stat.Term != TerminationReason::Converged)
        Rep.fail("resume of " + ResumeCell.key() + " did not restore (" +
                 analysis::resumeStatusName(Probe.Status) + ")");
      else if (P == 0 && I == 0 &&
               fixpointDigest(ResIn.DB, R) != FixpointByCell[ResumeCell.key()])
        Rep.fail("resumed fixpoint of " + ResumeCell.key() +
                 " differs from the cold one");
      CheckNs += nowNs() - C0;
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
  Rep.metric("clients.check_ms", perPassMs(Loop, "clients.check"), "ms");
  Rep.metric("analysis.incremental_ms",
             perPassMs(Loop, "analysis.incremental"), "ms");
  traceMetrics(Rep, Loop, E2E.SetupMs.size());
}

} // namespace perfbench
