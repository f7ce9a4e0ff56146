//===- serve/Service.h - Resident analysis service --------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident analysis service behind tools/ctp-serve: solve once,
/// answer many points-to / alias / taint queries over the wire protocol
/// of serve/Wire.h.
///
/// Startup ("warm start"): with a checkpoint directory configured, the
/// service probes it for a snapshot (analysis/Configurations.h) and
/// resumes the rung-0 solve from it — a snapshot a *previous daemon
/// life* wrote on convergence (CheckpointPolicy::KeepOnConverge)
/// restores with every relation fully processed, so the solver converges
/// immediately and the restarted daemon answers from the identical
/// fixpoint: byte-identical responses across lives, which
/// crashloop.sh --serve asserts. A cold start solves under the startup
/// budget with periodic checkpoints, so even a daemon SIGKILLed
/// *mid-solve* resumes its own partial progress.
///
/// Degradation: when the rung-0 solve exhausts its startup budget the
/// service descends the configuration ladder (halved budgets, no
/// checkpoints) and serves from the first rung that converges, tagging
/// every answer "hot-rung<k>"; when no rung converges it serves
/// demand-driven CFL answers only ("cfl"). Partial exhaustive results
/// are never served: a truncated fixpoint is a *subset* of the true one,
/// unsound for may-point-to / may-alias answers, while the CFL engine's
/// over-approximation and its all-heaps exhaustion fallback stay sound.
///
/// Per-request deadlines: deadline_ms / max_steps become a BudgetSpec;
/// the hot path charges the meter per points-to element it touches, and
/// a trip mid-answer falls back to the CFL engine under the *same*
/// (already tripped) meter, which exhausts immediately into the sound
/// all-heaps answer — a deadline-tripped query always answers, never
/// hangs ("degraded" status, never a dropped request).
///
/// Admission control: a bounded queue between per-connection reader
/// threads and a small worker pool. A reader that finds the queue full
/// replies OVERLOADED itself without ever blocking, so overload sheds
/// load explicitly while the accept loop keeps beating the heartbeat
/// file (the PR-5 liveness protocol) for the supervising process.
///
/// Memory pressure: with a budget armed (--mem-budget-mb, or a
/// CTP_MEM_FAULT drill), the accept loop polls the process memory
/// governor (support/Memory.h) every tick and stages its response to
/// pressure. A sustained soft-watermark streak drops the resident
/// result (with its projections) and the taint cache — the big owners —
/// and re-solves a cheaper ladder rung, answering demand-driven (sound)
/// in the interim; hard pressure or a ladder that is already at the
/// bottom falls straight to CflOnly and re-floors the watermarks over the
/// shrunken footprint. While pressure reads Hard, readers shed new admissions
/// with OVERLOADED rather than queueing work the process has no room
/// to answer. The daemon thus degrades in place instead of being
/// SIGKILLed by the kernel or SIGABRTed by a failed allocation — zero
/// watchdog kills under a sustained pressure burst is the contract
/// serve_test's burst drill asserts.
///
/// Transactions: with a checkpoint directory configured the service
/// accepts the begin/delta/commit/abort/txstat verbs, journalling every
/// step through serve/Txn.h before acting on it. A commit re-solves the
/// staged facts — incrementally from the live fixpoint when the
/// provenance graph permits, cold otherwise — certifies the result with
/// the verify closure and support checks, promotes a new warm-start
/// snapshot, appends the durable commit record, and only then swaps the
/// served state (facts, results, taint summary, demand engine) under a writer
/// lock, bumping the epoch every response carries. Any failure along the
/// way aborts: the journal records it, the staged state is dropped, and
/// answers remain byte-identical to the previous epoch. On startup the
/// journal is replayed over the base facts, so a daemon SIGKILLed at any
/// byte of a transaction restarts into the last *committed* epoch (an
/// unfinished transaction is recovery-aborted); when the replayed state
/// is nonempty its solve is re-certified before serving.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SERVE_SERVICE_H
#define CTP_SERVE_SERVICE_H

#include "analysis/Incremental.h"
#include "analysis/Results.h"
#include "cfl/Demand.h"
#include "clients/Alias.h"
#include "clients/Taint.h"
#include "ctx/Config.h"
#include "facts/FactDB.h"
#include "serve/Wire.h"
#include "support/Budget.h"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace ctp {
namespace serve {

/// Startup and serving knobs of one daemon.
struct ServiceOptions {
  /// Exactly one of FactsDir / Preset, as in ctp-analyze.
  std::string FactsDir;
  std::string Preset;
  std::string ConfigName = "2-object+H";
  bool Collapse = false;
  /// Warm-start state: empty disables checkpointing (every start is
  /// cold, every crash loses the solve).
  std::string CheckpointDir;
  /// Periodic checkpoint cadence during the startup solve, so a crash
  /// mid-solve resumes partial progress rather than starting over.
  std::uint64_t CheckpointEvery = 20000;
  /// Budget of the rung-0 startup solve; rung k below runs on the
  /// budget halved k times. All-zero = unlimited (cold starts block
  /// until converged).
  BudgetSpec StartupBudget;
  std::size_t Workers = 2;
  /// Admission bound: requests queued (not yet picked up by a worker)
  /// beyond this are shed with an OVERLOADED response.
  std::size_t QueueCap = 8;
  /// Per-query CFL worklist step cap (the engine's own, used when a
  /// request does not set max_steps).
  std::size_t CflBudget = 100000;
  /// Polled by the accept loop: a SIGTERM handler sets it to stop the
  /// daemon cleanly (exit 0) without async-signal-unsafe calls.
  const volatile std::sig_atomic_t *StopFlag = nullptr;
};

/// How the resident state answers queries.
enum class ServeMode : std::uint8_t {
  Hot,     ///< Rung-0 configuration converged.
  HotRung, ///< A lower ladder rung converged (answers are degraded).
  CflOnly, ///< Nothing converged; demand-driven answers only.
};

class Service {
public:
  explicit Service(ServiceOptions O);
  ~Service();

  /// Loads facts and solves (resuming a checkpoint when one validates).
  /// \returns an empty string on success, else a fatal diagnostic.
  /// Progress and warnings are narrated to stderr.
  std::string init();

  /// Answers one parsed request. Thread-safe: query verbs read the
  /// resident state under a shared lock; a committing transaction takes
  /// the exclusive side only for its final pointer swap. The `stall`
  /// verb sleeps here, in the calling worker.
  Response answer(const Request &Q);

  /// Binds \p SocketPath (unlinking any stale socket), serves until a
  /// `shutdown` request or StopFlag, and \returns the process exit code
  /// (0 clean stop, 1 error).
  int serve(const std::string &SocketPath);

  /// Stops the serve loop from another thread (the shutdown verb).
  void requestStop() { Stop.store(true, std::memory_order_relaxed); }

  ServeMode mode() const { return Mode; }
  /// The wire-protocol mode tag: "hot", "hot-rung<k>", or "cfl".
  const std::string &modeTag() const { return ModeTag; }
  /// True when init restored a converged snapshot instead of solving.
  bool warmStarted() const { return WarmStart; }
  std::size_t queueCap() const { return Opts.QueueCap; }
  /// Count of committed transactions in the served state.
  std::uint64_t epoch() const {
    return Epoch.load(std::memory_order_relaxed);
  }

private:
  struct Impl; // Connection/queue machinery, hidden from clients.

  /// One staged (begun, not yet committed) transaction. At most one is
  /// open at a time; TxnMutex serializes every transaction verb.
  struct OpenTxn {
    std::string Id;
    std::unique_ptr<facts::FactDB> Staged;
    analysis::InputDelta Delta;
    std::vector<std::string> OpLines;
  };

  Response answerPts(const Request &Q);
  Response answerAlias(const Request &Q);
  Response answerTaint(const Request &Q);
  Response answerStats(const Request &Q);
  Response answerTxn(const Request &Q);
  Response commitTxn(const Request &Q);
  /// Journals the abort, drops the staged state, and shapes the
  /// txn-aborted response. Caller holds TxnMutex.
  Response abortTxn(const Request &Q, const std::string &Reason,
                    const char *Status);
  bool lookupVar(const std::string &Name, std::uint32_t &Id) const;
  bool lookupHeap(const std::string &Name, std::uint32_t &Id) const;
  /// The accept loop's per-tick memory-pressure check: counts soft
  /// streaks, and on sustained soft (or any hard) pressure drops the
  /// resident caches and descends the ladder / falls to CflOnly. Runs
  /// on the accept thread; swaps state under the exclusive StateLock.
  void relieveMemoryPressure();

  ServiceOptions Opts;
  /// The served fact base. Swapped in place (move-assigned) by a commit
  /// under the exclusive StateLock, so references held by the rebuilt
  /// engines stay valid across epochs.
  facts::FactDB DB;
  ServeMode Mode = ServeMode::CflOnly;
  std::string ModeTag = "cfl";
  bool WarmStart = false;

  /// Converged exhaustive results and clients; null in CflOnly mode.
  /// Readers share Hot's context-insensitive projections, built on first
  /// use.
  std::unique_ptr<analysis::Results> Hot;
  std::unique_ptr<clients::TaintInfo> Taint;
  /// Demand-driven engine; always built (per-query degradation target).
  std::unique_ptr<cfl::DemandSolver> Demand;

  /// Readers (query verbs) vs. the commit swap. Queries hold shared;
  /// commit holds exclusive only while swapping pointers, never while
  /// solving.
  std::shared_mutex StateLock;
  std::atomic<std::uint64_t> Epoch{0};
  /// Serializes begin/delta/commit/abort/txstat end to end (a commit
  /// solves under it, so a second transaction waits its turn).
  std::mutex TxnMutex;
  std::unique_ptr<OpenTxn> Txn;
  std::uint64_t TxnSeq = 1;
  std::string LastTxnNote = "-";
  /// The journal path; empty when CheckpointDir is unset, which refuses
  /// the transaction verbs (no place to make them durable).
  std::string JournalFile;
  /// What the serving fixpoint was solved with — the commit path
  /// re-solves the same cell.
  ctx::Config ServingCfg;
  std::size_t ServingRung = 0;
  /// The degradation ladder of the configured rung-0 cell, kept so the
  /// pressure response can descend it after startup.
  std::vector<ctx::Config> Ladder;
  /// Consecutive accept-loop ticks that observed soft pressure; one
  /// blip is noise, a streak triggers the descent. Accept-thread only.
  unsigned MemSoftStreak = 0;

  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Served{0};
  std::atomic<std::uint64_t> Shed{0};
  /// Admissions shed because pressure read Hard (distinct from queue
  /// overflow), and cache-dropping descents the pressure loop ran.
  std::atomic<std::uint64_t> MemShed{0};
  std::atomic<std::uint64_t> MemDegrades{0};
  std::atomic<std::int64_t> InFlight{0};
  std::unique_ptr<Impl> M;
};

} // namespace serve
} // namespace ctp

#endif // CTP_SERVE_SERVICE_H
