//===- serve/Service.cpp - Resident analysis service ----------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "analysis/Checkpoint.h"
#include "analysis/Configurations.h"
#include "analysis/Incremental.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "serve/Delta.h"
#include "serve/Txn.h"
#include "support/FaultInjection.h"
#include "support/Memory.h"
#include "support/Posix.h"
#include "support/Suggest.h"
#include "verify/Verify.h"
#include "workload/Presets.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ctp;
using namespace ctp::serve;

namespace {

void note(const std::string &Line) {
  std::fprintf(stderr, "ctp-serve: %s\n", Line.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// Connection and queue machinery.
//===----------------------------------------------------------------------===//

namespace {

/// One accepted connection. Workers and the reader share the fd; the
/// write mutex keeps response frames contiguous on it.
struct Conn {
  int Fd = -1;
  std::mutex WriteMutex;

  void reply(const Response &R) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    serve::writeFrame(Fd, renderResponse(R));
  }
};

struct Work {
  std::shared_ptr<Conn> C;
  Request Q;
};

} // namespace

struct Service::Impl {
  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<Work> Queue;

  // Open connections, for shutdown(): a reader blocked in readFrame
  // only wakes when its fd is shut down.
  std::mutex ConnsMutex;
  std::vector<std::shared_ptr<Conn>> Conns;

  std::vector<std::thread> Readers;
  std::vector<std::thread> Workers;
};

//===----------------------------------------------------------------------===//
// Startup.
//===----------------------------------------------------------------------===//

Service::Service(ServiceOptions O)
    : Opts(std::move(O)), M(new Impl()) {}

Service::~Service() = default;

std::string Service::init() {
  if (Opts.FactsDir.empty() == Opts.Preset.empty())
    return "exactly one of FactsDir / Preset is required";

  ctx::Config Cfg;
  if (!ctx::configByName(Opts.ConfigName,
                         ctx::Abstraction::TransformerString, Cfg))
    return "unknown config '" + Opts.ConfigName + "'" +
           support::didYouMean(Opts.ConfigName, ctx::configNames());
  std::string CfgErr = Cfg.validate();
  if (!CfgErr.empty())
    return CfgErr;

  // Reloadable: the journal replay folds committed deltas onto the base
  // facts, and a discarded journal (corrupt, or failing its startup
  // certification below) must fall back to the pristine base.
  auto LoadBase = [this]() -> std::string {
    DB = facts::FactDB();
    if (!Opts.FactsDir.empty()) {
      facts::FactsReadOptions ReadOpts;
      facts::FactsReadReport Report;
      return facts::readFactsDir(Opts.FactsDir, DB, ReadOpts, &Report);
    }
    bool Known = false;
    for (const std::string &N : workload::presetNames())
      Known |= N == Opts.Preset;
    if (!Known)
      return "unknown preset '" + Opts.Preset + "'" +
             support::didYouMean(Opts.Preset, workload::presetNames());
    DB = facts::extract(workload::generatePreset(Opts.Preset));
    return "";
  };

  if (!Opts.CheckpointDir.empty()) {
    // Whoever is handed the checkpoint path creates it — the snapshot
    // writer only writes files, so a missing directory would silently
    // turn every checkpoint into a warning and every restart cold.
    std::string DirErr = posix::mkdirs(Opts.CheckpointDir);
    if (!DirErr.empty())
      return DirErr;
    JournalFile = journalPath(Opts.CheckpointDir);
  }

  Ladder = analysis::defaultLadder(Cfg);

  // Two attempts: a replayed journal state that fails its startup
  // certification is discarded (journal renamed aside) and the daemon
  // retries from the pristine base facts — it never serves a fixpoint it
  // could not certify.
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    if (std::string E = LoadBase(); !E.empty())
      return E;

    std::uint64_t ReplayedEpoch = 0;
    if (!JournalFile.empty() && Attempt == 0) {
      ReplayOutcome Replay;
      if (std::string E = replayJournal(JournalFile, DB, Replay);
          !E.empty())
        return E;
      for (const std::string &W : Replay.Warnings)
        note("warning: " + W);
      if (Replay.DiscardedJournal) {
        // The replay may have folded some ops before failing; reload.
        if (std::string E = LoadBase(); !E.empty())
          return E;
      } else {
        ReplayedEpoch = Replay.Epoch;
        TxnSeq = std::max<std::uint64_t>(TxnSeq, Replay.NextTxnSeq);
        if (!Replay.RecoveryAbortTx.empty())
          LastTxnNote = Replay.RecoveryAbortTx + " aborted (recovery)";
        if (Replay.CommittedTxns != 0)
          note("replayed " + std::to_string(Replay.CommittedTxns) +
               " committed transaction(s); epoch " +
               std::to_string(ReplayedEpoch));
      }
    }
    Epoch.store(ReplayedEpoch, std::memory_order_relaxed);

    // The demand engine indexes once here and is read-only until the
    // next committed transaction rebuilds it; it is both the CflOnly
    // answer path and the degradation target of every deadline-tripped
    // hot query.
    Demand.reset(new cfl::DemandSolver(DB));

    // Rung 0: resume a prior life's snapshot when one validates; keep a
    // converged snapshot behind for the *next* life (KeepOnConverge),
    // and checkpoint periodically so a crash mid-solve still resumes.
    // The probe is fingerprint-gated against the *replayed* facts, so a
    // snapshot a committed transaction promoted warm-starts the exact
    // post-commit fixpoint, and a snapshot from before a commit (or from
    // a discarded journal's facts) is rejected into a cold solve.
    analysis::SnapshotProbe Probe;
    analysis::CheckpointPolicy Ckpt;
    if (!Opts.CheckpointDir.empty()) {
      Ckpt.Dir = Opts.CheckpointDir;
      Ckpt.EveryDerivations = Opts.CheckpointEvery;
      Ckpt.KeepOnConverge = true;
      Probe = analysis::probeSnapshot(Ckpt.Dir, DB, Ladder[0],
                                      /*UseDatalog=*/false, Opts.Collapse);
      if (!Probe.Warning.empty())
        note("warning: " + Probe.Warning);
      note(std::string("resume: ") +
           analysis::resumeStatusName(Probe.Status));
    }

    bool Converged = false;
    for (std::size_t Rung = 0; Rung < Ladder.size(); ++Rung) {
      analysis::SolverOptions SO;
      SO.CollapseSubsumedPts = Opts.Collapse;
      SO.Budget = Opts.StartupBudget.scaledForRung(Rung);
      // A transaction-capable daemon records provenance so commits can
      // invalidate incrementally. A warm start restores tuples without
      // derivations (ProvenanceDropped) — the first commit then falls
      // back to one cold-with-provenance solve and repairs this.
      SO.Provenance.Enabled = !Opts.CheckpointDir.empty() && !Opts.Collapse;
      if (Rung == 0) {
        SO.Checkpoint = Ckpt;
        if (Probe.Status == analysis::ResumeStatus::Resumed)
          SO.Resume = &Probe.Snap;
      }
      analysis::Results R = analysis::solve(DB, Ladder[Rung], SO);
      if (!R.Stat.CheckpointError.empty())
        note("warning: " + R.Stat.CheckpointError);
      if (R.Stat.Term == TerminationReason::Converged) {
        Mode = Rung == 0 ? ServeMode::Hot : ServeMode::HotRung;
        ModeTag = Rung == 0 ? "hot" : "hot-rung" + std::to_string(Rung);
        // Progress.Derivations is cumulative across lives (resume folds
        // the snapshot's count in), so "no new work" is measured against
        // the restored image's own counter.
        WarmStart = Rung == 0 &&
                    Probe.Status == analysis::ResumeStatus::Resumed &&
                    R.Stat.Progress.Derivations == Probe.Snap.Derivations;
        Hot.reset(new analysis::Results(std::move(R)));
        Taint.reset(new clients::TaintInfo(clients::computeTaint(DB, *Hot)));
        ServingCfg = Ladder[Rung];
        ServingRung = Rung;
        Converged = true;
        note("serving " + Ladder[Rung].name() + " (" + ModeTag +
             (WarmStart ? ", warm start from snapshot)" : ", cold solve)"));
        break;
      }
      // A partial exhaustive fixpoint is a subset of the truth — unsound
      // for may-queries, so it is never served; descend instead.
      note("startup solve of " + Ladder[Rung].name() + " exhausted (" +
           terminationReasonName(R.Stat.Term) + "); " +
           (Rung + 1 < Ladder.size() ? "descending the ladder"
                                     : "serving demand-driven only"));
    }
    if (!Converged) {
      Mode = ServeMode::CflOnly;
      ModeTag = "cfl";
      ServingCfg = Cfg;
      ServingRung = 0;
      return ""; // No fixpoint to certify; transactions are refused.
    }

    // A state with committed transactions folded in is served only once
    // its fixpoint re-certifies — the journal's checksums and
    // fingerprints catch storage corruption, the closure check catches
    // everything else (a bug in replay, a hand-edited journal that still
    // checksums, a solver regression).
    if (ReplayedEpoch != 0) {
      verify::ClosureOptions CO;
      CO.ModuloSubsumption = Opts.Collapse;
      std::string Counterexample;
      if (!verify::checkClosure(DB, *Hot, CO, Counterexample)) {
        note("startup certification FAILED on the replayed state: " +
             Counterexample);
        note("discarding journal '" + JournalFile + "' and restarting "
             "from base facts");
        std::rename(JournalFile.c_str(), (JournalFile + ".stale").c_str());
        Hot.reset();
        Taint.reset();
        WarmStart = false;
        continue;
      }
      note("startup certification passed (epoch " +
           std::to_string(ReplayedEpoch) + ")");
    }
    return "";
  }
  return "replayed journal state failed certification and the base facts "
         "could not be served";
}

//===----------------------------------------------------------------------===//
// Query answering.
//===----------------------------------------------------------------------===//

bool Service::lookupVar(const std::string &Name, std::uint32_t &Id) const {
  // Linear scan: fact bases here are small enough that a resident map
  // would only pay off under sustained load, and the scan keeps the
  // resident state trivially read-only. Revisit with an interned map if
  // a profile ever blames it.
  for (std::size_t V = 0; V < DB.numVars(); ++V)
    if (DB.VarNames[V] == Name) {
      Id = static_cast<std::uint32_t>(V);
      return true;
    }
  return false;
}

bool Service::lookupHeap(const std::string &Name, std::uint32_t &Id) const {
  for (std::size_t H = 0; H < DB.numHeaps(); ++H)
    if (DB.HeapNames[H] == Name) {
      Id = static_cast<std::uint32_t>(H);
      return true;
    }
  return false;
}

namespace {

/// Renders a sorted heap-id set as the response body: space-joined
/// names, "-" when empty. Deterministic given the fact base, which is
/// what makes responses byte-identical across daemon lives.
template <typename HeapsT>
std::string heapSetBody(const facts::FactDB &DB, const HeapsT &Heaps) {
  if (Heaps.empty())
    return "-";
  std::string Body;
  for (std::uint32_t H : Heaps) {
    if (!Body.empty())
      Body += ' ';
    Body += DB.HeapNames[H];
  }
  return Body;
}

/// The per-request meter, or none when the request set no budget.
struct RequestMeter {
  bool Active = false;
  BudgetMeter Meter;

  explicit RequestMeter(const Request &Q) {
    if (Q.DeadlineMs == 0 && Q.MaxSteps == 0)
      return;
    BudgetSpec S;
    S.DeadlineMs = Q.DeadlineMs;
    S.MaxDerivations = Q.MaxSteps;
    Meter = BudgetMeter(S);
    Active = true;
  }

  /// Charges one unit and polls. True = budget tripped.
  bool step() {
    if (!Active)
      return false;
    Meter.chargeDerivations();
    return Meter.poll().has_value();
  }
};

} // namespace

Response Service::answerPts(const Request &Q) {
  Response R;
  R.Id = Q.Id;
  if (Q.Args.size() != 1) {
    R.Status = StatusError;
    R.Body = "pts wants exactly one variable name";
    return R;
  }
  std::uint32_t V = 0;
  if (!lookupVar(Q.Args[0], V)) {
    R.Status = StatusError;
    R.Body = "unknown variable '" + Q.Args[0] + "'";
    return R;
  }
  RequestMeter RM(Q);
  if (Hot) {
    auto Heaps = Hot->ptsOf(V);
    // Charge per element so max_steps=1 deterministically exercises the
    // degradation path even on a hot answer.
    bool TrippedMidAnswer = false;
    for (std::size_t I = 0; I < Heaps.size(); ++I)
      if (RM.step()) {
        TrippedMidAnswer = true;
        break;
      }
    if (!TrippedMidAnswer) {
      R.Status = Mode == ServeMode::Hot ? StatusOk : StatusDegraded;
      R.Mode = ModeTag;
      R.Body = heapSetBody(DB, Heaps);
      return R;
    }
    // Fall through to the demand engine below with the same meter: it
    // is already tripped, so the query exhausts immediately into the
    // sound all-heaps fallback — answered, late-free, degraded.
  }
  cfl::DemandAnswer A =
      Demand->query(V, Opts.CflBudget, RM.Active ? &RM.Meter : nullptr);
  // A demand answer is this service's first-class product only in
  // CflOnly mode; anywhere else reaching it means a budget pushed the
  // query off the hot path, i.e. a degraded answer.
  R.Status = Mode == ServeMode::CflOnly && !A.BudgetExceeded ? StatusOk
                                                             : StatusDegraded;
  R.Mode = A.BudgetExceeded ? "cfl-exhausted" : "cfl";
  R.Body = heapSetBody(DB, A.Heaps);
  return R;
}

Response Service::answerAlias(const Request &Q) {
  Response R;
  R.Id = Q.Id;
  if (Q.Args.size() != 2) {
    R.Status = StatusError;
    R.Body = "alias wants exactly two variable names";
    return R;
  }
  std::uint32_t V1 = 0, V2 = 0;
  if (!lookupVar(Q.Args[0], V1) || !lookupVar(Q.Args[1], V2)) {
    R.Status = StatusError;
    R.Body = "unknown variable '" +
             (lookupVar(Q.Args[0], V1) ? Q.Args[1] : Q.Args[0]) + "'";
    return R;
  }
  RequestMeter RM(Q);
  if (Hot) {
    // Charge the smaller side's cardinality: mayAlias is an intersection
    // walk over two sorted sets.
    const std::size_t Cost =
        std::min(Hot->ptsOf(V1).size(), Hot->ptsOf(V2).size());
    bool Tripped = false;
    for (std::size_t I = 0; I < Cost && !Tripped; ++I)
      Tripped = RM.step();
    if (!Tripped) {
      R.Status = Mode == ServeMode::Hot ? StatusOk : StatusDegraded;
      R.Mode = ModeTag;
      R.Body = clients::mayAlias(*Hot, V1, V2) ? "true" : "false";
      return R;
    }
  }
  bool Alias =
      Demand->mayAlias(V1, V2, Opts.CflBudget, RM.Active ? &RM.Meter : nullptr);
  bool Exhausted = RM.Active && RM.Meter.tripped();
  R.Status =
      Mode == ServeMode::CflOnly && !Exhausted ? StatusOk : StatusDegraded;
  R.Mode = Exhausted ? "cfl-exhausted" : "cfl";
  R.Body = Alias ? "true" : "false";
  return R;
}

Response Service::answerTaint(const Request &Q) {
  Response R;
  R.Id = Q.Id;
  if (Q.Args.size() != 1) {
    R.Status = StatusError;
    R.Body = "taint wants exactly one heap-site name";
    return R;
  }
  if (!Taint) {
    // Heap taint is computed from a converged exhaustive result; the
    // demand engine has no equivalent, so CflOnly mode cannot answer.
    R.Status = StatusError;
    R.Body = "taint requires a converged solve (serving demand-driven "
             "only)";
    return R;
  }
  std::uint32_t H = 0;
  if (!lookupHeap(Q.Args[0], H)) {
    R.Status = StatusError;
    R.Body = "unknown heap site '" + Q.Args[0] + "'";
    return R;
  }
  R.Status = Mode == ServeMode::Hot ? StatusOk : StatusDegraded;
  R.Mode = ModeTag;
  R.Body = Taint->isHot(H) ? "hot" : "clean";
  return R;
}

Response Service::answerStats(const Request &Q) {
  Response R;
  R.Id = Q.Id;
  R.Status = StatusOk;
  R.Mode = ModeTag;
  R.Body = "mode=" + ModeTag +
           " warm=" + (WarmStart ? "true" : "false") +
           " epoch=" + std::to_string(Epoch.load(std::memory_order_relaxed)) +
           " vars=" + std::to_string(DB.numVars()) +
           " heaps=" + std::to_string(DB.numHeaps()) +
           " pts=" + std::to_string(Hot ? Hot->Pts.size() : 0) +
           " served=" + std::to_string(Served.load()) +
           " shed=" + std::to_string(Shed.load()) +
           " inflight=" + std::to_string(InFlight.load()) +
           " queue_cap=" + std::to_string(Opts.QueueCap) +
           " mem_peak_mb=" + std::to_string(memgov::peakRssBytes() >> 20) +
           " mem_state=" + memgov::pressureName(memgov::state()) +
           " mem_soft_trips=" + std::to_string(memgov::softTrips()) +
           " mem_hard_trips=" + std::to_string(memgov::hardTrips()) +
           " mem_shed=" + std::to_string(MemShed.load()) +
           " mem_degrades=" + std::to_string(MemDegrades.load());
  return R;
}

//===----------------------------------------------------------------------===//
// Transactions.
//===----------------------------------------------------------------------===//

namespace {

/// Response bodies and journal reasons are single wire fields; flatten
/// whatever a verifier or solver put in a diagnostic.
std::string oneLine(const std::string &S) {
  std::string Out = S;
  for (char &C : Out)
    if (C == '\t' || C == '\n' || C == '\r')
      C = ' ';
  return Out;
}

} // namespace

Response Service::abortTxn(const Request &Q, const std::string &Reason,
                           const char *Status) {
  Response R;
  R.Id = Q.Id;
  R.Status = Status;
  if (Txn) {
    JournalRecord Rec;
    Rec.K = JournalRecord::Kind::Aborted;
    Rec.Tx = Txn->Id;
    Rec.Text = oneLine(Reason);
    // Best-effort: an unwritable journal cannot make the abort fail —
    // with no commit record the transaction never happened, and the
    // next restart's replay recovery-aborts it again.
    if (std::string E = appendRecord(JournalFile, Rec); !E.empty())
      note("warning: cannot journal abort: " + E);
    LastTxnNote = Txn->Id + " aborted (" + oneLine(Reason) + ")";
    Txn.reset();
  }
  R.Body = oneLine(Reason);
  R.Epoch = Epoch.load(std::memory_order_relaxed);
  return R;
}

Response Service::commitTxn(const Request &Q) {
  // The staged facts must still be a structurally valid database; the
  // delta ops validate row by row, so a failure here is a logic bug, but
  // an abort is cheaper than serving from a corrupt base.
  if (std::string E = Txn->Staged->validate(); !E.empty())
    return abortTxn(Q, "staged facts failed validation: " + E,
                    StatusTxnAborted);

  // Re-solve the serving cell over the staged facts. Incremental when
  // the live result's provenance covers it; a cold solve (with
  // provenance, so the *next* commit can be incremental) otherwise.
  analysis::IncrementalOptions IOpts;
  IOpts.Solver.CollapseSubsumedPts = false;
  analysis::IncrementalOutcome Out =
      analysis::resolveIncremental(*Txn->Staged, ServingCfg, *Hot,
                                   Txn->Delta, IOpts);
  if (!Out.Incremental && !Out.FallbackReason.empty())
    note(Txn->Id + ": full re-solve (" + Out.FallbackReason + ")");
  fault::txnCrashPoint("solve");
  if (Out.R.Stat.Term != TerminationReason::Converged)
    return abortTxn(Q, std::string("re-solve did not converge (") +
                           terminationReasonName(Out.R.Stat.Term) + ")",
                    StatusTxnAborted);

  // Deliberate corruption hook: drop a derived tuple so the certifier
  // must catch it — the crash-loop driver proves rejection this way.
  if (fault::txnSabotage("certify") && !Out.R.Pts.empty()) {
    note(Txn->Id + ": CTP_TXN_SABOTAGE dropping one pts tuple before "
                   "certification");
    Out.R.Pts.pop_back();
  }

  // Certify before anything becomes visible or durable: closure (no
  // rule can still fire) and support (every tuple has a valid recorded
  // derivation). A result that fails either never reaches clients.
  verify::ClosureOptions CO;
  std::string Counterexample;
  if (!verify::checkClosure(*Txn->Staged, Out.R, CO, Counterexample))
    return abortTxn(Q, "certification failed (closure): " + Counterexample,
                    StatusTxnAborted);
  if (Out.R.Prov &&
      !verify::checkSupport(*Txn->Staged, Out.R, Counterexample))
    return abortTxn(Q, "certification failed (support): " + Counterexample,
                    StatusTxnAborted);
  fault::txnCrashPoint("certify");

  // Promote the new warm-start snapshot before the commit record: if we
  // die between the two, the snapshot's fingerprint no longer matches
  // the replayed (pre-commit) facts and the probe rejects it — stale
  // snapshots are harmless, uncertified epochs are not. Rung-0 only:
  // the snapshot format pins the rung-0 cell.
  if (ServingRung == 0) {
    std::string SnapErr;
    if (Out.R.Dom && Out.R.ReachCtxts) {
      analysis::SolverSnapshot S =
          analysis::snapshotFromResults(Out.R, *Txn->Staged);
      SnapErr = analysis::writeSnapshot(
          S, analysis::checkpointPath(Opts.CheckpointDir));
    }
    if (!SnapErr.empty())
      note("warning: snapshot promotion failed (" + SnapErr +
           "); next restart will cold-solve");
  }
  fault::txnCrashPoint("promote");

  // THE commit point. Once this record is durable the transaction is
  // committed: a crash one instruction later replays to the identical
  // state. A crash one instruction earlier aborts it on recovery.
  const std::uint64_t NewEpoch =
      Epoch.load(std::memory_order_relaxed) + 1;
  JournalRecord Rec;
  Rec.K = JournalRecord::Kind::Commit;
  Rec.Tx = Txn->Id;
  Rec.Epoch = NewEpoch;
  Rec.Fp = Txn->Staged->fingerprint();
  if (std::string E = appendRecord(JournalFile, Rec); !E.empty())
    return abortTxn(Q, "cannot journal commit record: " + E,
                    StatusTxnAborted);
  fault::txnCrashPoint("commit");

  // Publish. Move-assigning DB in place keeps the references the demand
  // engine and taint summary hold valid while they are themselves replaced.
  {
    std::unique_lock<std::shared_mutex> Lock(StateLock);
    DB = std::move(*Txn->Staged);
    Hot.reset(new analysis::Results(std::move(Out.R)));
    Taint.reset(new clients::TaintInfo(clients::computeTaint(DB, *Hot)));
    Demand.reset(new cfl::DemandSolver(DB));
    Epoch.store(NewEpoch, std::memory_order_relaxed);
  }

  std::string How =
      Out.Incremental
          ? "incremental invalidated=" + std::to_string(Out.Invalidated) +
                " survivors=" + std::to_string(Out.Survivors)
          : "full";
  LastTxnNote = Txn->Id + " committed epoch=" + std::to_string(NewEpoch) +
                " " + How;
  note(LastTxnNote);
  Response R;
  R.Id = Q.Id;
  R.Status = StatusOk;
  R.Mode = ModeTag;
  R.Body = "committed " + How;
  R.Epoch = NewEpoch;
  Txn.reset();
  return R;
}

Response Service::answerTxn(const Request &Q) {
  std::lock_guard<std::mutex> TLock(TxnMutex);
  Response R;
  R.Id = Q.Id;
  R.Epoch = Epoch.load(std::memory_order_relaxed);

  if (Q.Verb == "txstat") {
    R.Status = StatusOk;
    R.Body = "epoch=" + std::to_string(R.Epoch) +
             " open=" + (Txn ? Txn->Id : "-") +
             " staged_ops=" + std::to_string(Txn ? Txn->OpLines.size() : 0) +
             " last=" + oneLine(LastTxnNote);
    return R;
  }

  // The remaining verbs mutate; refuse them where durability or
  // soundness has nowhere to stand.
  if (JournalFile.empty()) {
    R.Status = StatusError;
    R.Body = "transactions require --checkpoint-dir (the journal lives "
             "there)";
    return R;
  }
  if (Mode == ServeMode::CflOnly) {
    R.Status = StatusError;
    R.Body = "transactions require a converged solve (serving "
             "demand-driven only)";
    return R;
  }
  if (Opts.Collapse) {
    R.Status = StatusError;
    R.Body = "subsumption collapsing is incompatible with transactions "
             "(collapsed results cannot be re-certified incrementally)";
    return R;
  }

  if (Q.Verb == "begin") {
    if (Txn) {
      R.Status = StatusError;
      R.Body = "transaction " + Txn->Id + " is already open";
      return R;
    }
    std::string TxId = "t" + std::to_string(TxnSeq++);
    JournalRecord Rec;
    Rec.K = JournalRecord::Kind::Begin;
    Rec.Tx = TxId;
    {
      // Fingerprint the live facts under the reader lock: a concurrent
      // commit cannot exist (TxnMutex), but the base must be what every
      // queued query is being answered from.
      std::shared_lock<std::shared_mutex> SLock(StateLock);
      Rec.Epoch = Epoch.load(std::memory_order_relaxed);
      Rec.Fp = DB.fingerprint();
      Txn.reset(new OpenTxn());
      Txn->Id = TxId;
      Txn->Staged.reset(new facts::FactDB(DB));
    }
    if (std::string E = appendRecord(JournalFile, Rec); !E.empty()) {
      Txn.reset();
      R.Status = StatusError;
      R.Body = "cannot journal begin record: " + oneLine(E);
      return R;
    }
    fault::txnCrashPoint("begin");
    R.Status = StatusOk;
    R.Body = TxId;
    return R;
  }

  if (Q.Verb == "delta") {
    if (!Txn) {
      R.Status = StatusError;
      R.Body = "no open transaction (begin first)";
      return R;
    }
    std::string OpLine;
    for (const std::string &A : Q.Args) {
      if (!OpLine.empty())
        OpLine += ' ';
      OpLine += A;
    }
    // Validate-and-apply against the staged copy FIRST: only an op that
    // applied cleanly may reach the journal, or replaying a committed
    // transaction would trip over the rejected line.
    if (std::string E = applyDeltaOp(OpLine, *Txn->Staged, Txn->Delta);
        !E.empty()) {
      R.Status = StatusError;
      R.Body = oneLine(E);
      return R; // Op rejected; the transaction stays open.
    }
    JournalRecord Rec;
    Rec.K = JournalRecord::Kind::Op;
    Rec.Tx = Txn->Id;
    Rec.Text = OpLine;
    if (std::string E = appendRecord(JournalFile, Rec); !E.empty())
      return abortTxn(Q, "cannot journal delta op: " + E, StatusTxnAborted);
    Txn->OpLines.push_back(OpLine);
    fault::txnCrashPoint("op");
    R.Status = StatusOk;
    R.Body = "staged";
    return R;
  }

  if (Q.Verb == "abort") {
    if (!Txn) {
      R.Status = StatusError;
      R.Body = "no open transaction";
      return R;
    }
    Response A = abortTxn(Q, "client abort", StatusOk);
    A.Body = "aborted";
    return A;
  }

  if (Q.Verb == "commit") {
    if (!Txn) {
      R.Status = StatusError;
      R.Body = "no open transaction";
      return R;
    }
    return commitTxn(Q);
  }

  R.Status = StatusError;
  R.Body = "unknown transaction verb '" + Q.Verb + "'";
  return R;
}

Response Service::answer(const Request &Q) {
  Served.fetch_add(1, std::memory_order_relaxed);
  if (Q.Verb == "begin" || Q.Verb == "delta" || Q.Verb == "commit" ||
      Q.Verb == "abort" || Q.Verb == "txstat")
    return answerTxn(Q); // Takes its own locks; never holds the shared
                         // side while commit wants the exclusive one.
  std::shared_lock<std::shared_mutex> Lock(StateLock);
  Response Answered = [&]() -> Response {
  if (Q.Verb == "pts")
    return answerPts(Q);
  if (Q.Verb == "alias")
    return answerAlias(Q);
  if (Q.Verb == "taint")
    return answerTaint(Q);
  if (Q.Verb == "stats")
    return answerStats(Q);
  Response R;
  R.Id = Q.Id;
  if (Q.Verb == "ping") {
    R.Status = StatusOk;
    R.Body = "pong";
    return R;
  }
  if (Q.Verb == "stall") {
    // A bounded drill for the overload test: occupy this worker so a
    // pipelined burst overflows the admission queue. Capped so a rogue
    // client cannot park a worker for long.
    std::uint64_t Ms = 0;
    if (Q.Args.size() == 1)
      Ms = std::min<std::uint64_t>(std::strtoull(Q.Args[0].c_str(),
                                                 nullptr, 10),
                                   2000);
    ::usleep(static_cast<useconds_t>(Ms * 1000));
    R.Status = StatusOk;
    R.Body = "stalled " + std::to_string(Ms) + "ms";
    return R;
  }
  if (Q.Verb == "vars") {
    // Deterministic name discovery: the first N variable names in
    // fact-base order, so scripted clients (crashloop.sh --serve) can
    // build query batches without knowing the generator's naming
    // scheme. Names never contain whitespace (ir::Builder uses
    // Class.method/var), so the space-joined body splits back cleanly.
    std::uint64_t N = 0;
    if (Q.Args.size() != 1 ||
        (N = std::strtoull(Q.Args[0].c_str(), nullptr, 10)) == 0) {
      R.Status = StatusError;
      R.Body = "vars wants a positive count";
      return R;
    }
    N = std::min<std::uint64_t>(N, DB.numVars());
    std::string Body;
    for (std::uint64_t V = 0; V < N; ++V) {
      if (!Body.empty())
        Body += ' ';
      Body += DB.VarNames[V];
    }
    R.Status = StatusOk;
    R.Mode = ModeTag;
    R.Body = Body.empty() ? "-" : Body;
    return R;
  }
  if (Q.Verb == "shutdown") {
    R.Status = StatusOk;
    R.Body = "bye";
    return R; // Caller stops the loop after replying.
  }
  R.Status = StatusError;
  R.Body = "unknown verb '" + Q.Verb + "'";
  return R;
  }();
  // Stamped under the shared lock, so the epoch always names the exact
  // state this answer was computed against.
  Answered.Epoch = Epoch.load(std::memory_order_relaxed);
  return Answered;
}

//===----------------------------------------------------------------------===//
// Memory pressure.
//===----------------------------------------------------------------------===//

void Service::relieveMemoryPressure() {
  const memgov::Pressure P = memgov::poll();
  if (P == memgov::Pressure::Ok) {
    MemSoftStreak = 0;
    return;
  }
  // One soft blip is noise (an RSS read racing a transient allocation);
  // act only on a sustained streak. Hard pressure acts immediately.
  if (P == memgov::Pressure::Soft && ++MemSoftStreak < 3)
    return;
  MemSoftStreak = 0;
  if (Mode == ServeMode::CflOnly)
    return; // Nothing resident left to shed.

  // No commit may run mid-relief: commitTxn reads DB outside StateLock
  // (under TxnMutex), and so does the re-solve below.
  std::lock_guard<std::mutex> TLock(TxnMutex);
  MemDegrades.fetch_add(1, std::memory_order_relaxed);

  // Drop the big owners first — the resident result with its
  // projections, the taint summary — and serve demand-driven while
  // anything below runs: CFL answers stay sound, so degradation never
  // trades correctness for footprint.
  const std::size_t From = ServingRung + 1;
  {
    std::unique_lock<std::shared_mutex> Lock(StateLock);
    Hot.reset();
    Taint.reset();
    Mode = ServeMode::CflOnly;
    ModeTag = "cfl";
    WarmStart = false;
  }

  if (P == memgov::Pressure::Hard || From >= Ladder.size()) {
    // Hard pressure (or a ladder already at the bottom): stay CflOnly.
    // Re-arming floors the watermarks at the now-smaller footprint and
    // clears a sticky new-handler trip, so pressure can read Ok again
    // once the freed pool absorbs the demand engine's working set.
    memgov::governMb(Opts.StartupBudget.MemBudgetMb);
    note(std::string("memory pressure (") + memgov::pressureName(P) +
         "): dropped resident caches; serving demand-driven only");
    return;
  }

  // Sustained soft pressure with rungs left: re-solve a cheaper cell.
  // Each rung's meter re-arms the governor with its halved budget, so
  // the descent gets guaranteed headroom (see support/Memory.h).
  for (std::size_t Rung = From; Rung < Ladder.size(); ++Rung) {
    analysis::SolverOptions SO;
    SO.CollapseSubsumedPts = Opts.Collapse;
    SO.Budget = Opts.StartupBudget.scaledForRung(Rung);
    SO.Provenance.Enabled = !Opts.CheckpointDir.empty() && !Opts.Collapse;
    analysis::Results R = analysis::solve(DB, Ladder[Rung], SO);
    if (R.Stat.Term != TerminationReason::Converged) {
      note("memory pressure: " + Ladder[Rung].name() + " exhausted (" +
           terminationReasonName(R.Stat.Term) + "); " +
           (Rung + 1 < Ladder.size() ? "descending further"
                                     : "serving demand-driven only"));
      continue;
    }
    {
      std::unique_lock<std::shared_mutex> Lock(StateLock);
      Mode = ServeMode::HotRung;
      ModeTag = "hot-rung" + std::to_string(Rung);
      Hot.reset(new analysis::Results(std::move(R)));
      Taint.reset(new clients::TaintInfo(clients::computeTaint(DB, *Hot)));
      ServingCfg = Ladder[Rung];
      ServingRung = Rung;
    }
    note("memory pressure: descended to " + Ladder[Rung].name() + " (" +
         ModeTag + ")");
    return;
  }
  memgov::governMb(Opts.StartupBudget.MemBudgetMb);
}

//===----------------------------------------------------------------------===//
// The serving loop.
//===----------------------------------------------------------------------===//

int Service::serve(const std::string &SocketPath) {
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    note("socket() failed");
    return 1;
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    note("socket path too long: " + SocketPath);
    posix::closeQuiet(ListenFd);
    return 1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  // A previous life's socket node would make bind fail with EADDRINUSE;
  // the supervisor guarantees one daemon per socket, so unlink is safe.
  ::unlink(SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 64) != 0) {
    note("cannot listen on " + SocketPath);
    posix::closeQuiet(ListenFd);
    return 1;
  }
  note("listening on " + SocketPath);

  // Workers: pop, answer, reply under the connection's write mutex.
  for (std::size_t W = 0; W < std::max<std::size_t>(1, Opts.Workers); ++W)
    M->Workers.emplace_back([this] {
      while (true) {
        Work Item;
        {
          std::unique_lock<std::mutex> Lock(M->QueueMutex);
          M->QueueCv.wait(Lock, [this] {
            return Stop.load(std::memory_order_relaxed) ||
                   !M->Queue.empty();
          });
          if (M->Queue.empty())
            return; // Stop and drained.
          Item = std::move(M->Queue.front());
          M->Queue.pop_front();
        }
        Response R = answer(Item.Q);
        Item.C->reply(R);
        InFlight.fetch_sub(1, std::memory_order_relaxed);
        if (Item.Q.Verb == "shutdown")
          requestStop();
      }
    });

  // Accept loop: poll with a timeout so the heartbeat advances and the
  // stop flags are honoured even while idle or while every worker is
  // busy — liveness must not depend on query progress.
  while (!Stop.load(std::memory_order_relaxed)) {
    if (Opts.StopFlag && *Opts.StopFlag) {
      requestStop();
      break;
    }
    heartbeat::tick();
    relieveMemoryPressure();
    struct pollfd Pfd;
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int N = ::poll(&Pfd, 1, 50);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      note("poll() failed");
      break;
    }
    if (N == 0 || !(Pfd.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(M->ConnsMutex);
      M->Conns.push_back(C);
    }
    // Reader: frame, parse, admit. Shedding happens here — a full queue
    // answers OVERLOADED directly so the reader never blocks on the
    // worker pool.
    M->Readers.emplace_back([this, C] {
      std::string Payload;
      while (true) {
        FrameResult FR = serve::readFrame(C->Fd, Payload);
        if (FR != FrameResult::Ok) {
          if (FR == FrameResult::TooBig)
            C->reply({"-", StatusError, "-", "frame exceeds 16MiB",
                      Epoch.load(std::memory_order_relaxed)});
          return;
        }
        Request Q;
        std::string Err = parseRequest(Payload, Q);
        if (!Err.empty()) {
          C->reply({"-", StatusError, "-", Err,
                    Epoch.load(std::memory_order_relaxed)});
          continue;
        }
        // Hard memory pressure sheds at admission like a full queue:
        // queueing work the process has no room to answer only deepens
        // the hole, and an explicit OVERLOADED keeps the client's
        // retry/backoff logic in charge.
        const bool MemShedding =
            memgov::state() == memgov::Pressure::Hard;
        bool Admitted = false;
        if (!MemShedding) {
          std::lock_guard<std::mutex> Lock(M->QueueMutex);
          if (M->Queue.size() < Opts.QueueCap &&
              !Stop.load(std::memory_order_relaxed)) {
            M->Queue.push_back(Work{C, std::move(Q)});
            Admitted = true;
          }
        }
        if (Admitted) {
          InFlight.fetch_add(1, std::memory_order_relaxed);
          M->QueueCv.notify_one();
        } else {
          (MemShedding ? MemShed : Shed)
              .fetch_add(1, std::memory_order_relaxed);
          C->reply({Q.Id, StatusOverloaded, "-",
                    MemShedding ? "memory pressure" : "admission queue full",
                    Epoch.load(std::memory_order_relaxed)});
        }
      }
    });
  }

  // Teardown: wake blocked readers by shutting their sockets down, then
  // join everything. Shed whatever is still queued — in-flight loss on
  // shutdown is the documented contract (crash recovery restores the
  // *state*, not unanswered requests).
  requestStop();
  {
    std::lock_guard<std::mutex> Lock(M->ConnsMutex);
    for (const auto &C : M->Conns)
      ::shutdown(C->Fd, SHUT_RDWR);
  }
  M->QueueCv.notify_all();
  for (std::thread &T : M->Readers)
    T.join();
  M->QueueCv.notify_all();
  for (std::thread &T : M->Workers)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(M->ConnsMutex);
    for (const auto &C : M->Conns)
      posix::closeQuiet(C->Fd);
    M->Conns.clear();
  }
  posix::closeQuiet(ListenFd);
  ::unlink(SocketPath.c_str());
  note("stopped cleanly");
  return 0;
}
