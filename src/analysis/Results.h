//===- analysis/Results.h - Analysis results and projections ----*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of one analysis run: the context-sensitive derived relations
/// (whose sizes are the primary measurements of Figure 6), the interned
/// domain needed to interpret transformation ids, timing statistics, and
/// the context-insensitive projections used for the precision comparisons
/// of Section 6 ("pts_ci(Y,H) <=> ∃A: pts(Y,H,A)").
///
/// Each projection is built once, on first use, and lives as long as its
/// Results. Every client reads it through the accessors and the per-id
/// slice lookups below; none keeps a copy.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_RESULTS_H
#define CTP_ANALYSIS_RESULTS_H

#include "analysis/Facts.h"
#include "analysis/Provenance.h"
#include "ctx/Domain.h"
#include "support/Budget.h"
#include "support/Interner.h"
#include "support/Stats.h"

#include <array>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <vector>

namespace ctp {
namespace analysis {

/// Counters and timing for one run.
struct Stats {
  std::size_t NumPts = 0;
  std::size_t NumHpts = 0;
  std::size_t NumHload = 0;
  std::size_t NumCall = 0;
  std::size_t NumReach = 0;
  std::size_t NumGpts = 0;
  /// Figure 6's "Total": pts + hpts + call (hload/reach are bookkeeping
  /// relations the paper does not report).
  std::size_t total() const { return NumPts + NumHpts + NumCall; }
  /// Number of distinct interned context transformations.
  std::size_t DomainSize = 0;
  /// The domain's comp/inv traffic during this invocation (a resumed run
  /// counts only its own part).
  ctx::DomainCounters DomainTraffic;
  /// Facts dropped or retired by subsumption collapsing (0 unless the
  /// CollapseSubsumedPts option is on).
  std::size_t CollapsedPts = 0;
  /// Worklist pops performed until fixpoint.
  std::size_t WorkItems = 0;
  /// Wall-clock solve time, excluding fact preprocessing (as in Figure 6).
  double Seconds = 0.0;
  /// Why the run stopped. Anything other than Converged marks a partial
  /// (but sound: subset-of-fixpoint) result produced under a budget.
  TerminationReason Term = TerminationReason::Converged;
  /// How far the run got; PendingWork is nonzero only on truncated runs.
  /// On a resumed run these are cumulative across the interrupted run(s).
  EngineProgress Progress;
  /// Non-fatal checkpoint diagnostics: a snapshot restore that failed its
  /// structural checks (the run then cold-started) or a snapshot write
  /// that failed. Empty when checkpointing is off or everything worked.
  std::string CheckpointError;
  /// Why requested provenance was not recorded (resumed run, unsupported
  /// back-end). Empty when provenance was off or was recorded.
  std::string ProvenanceDropped;
};

/// Full result of one analysis run. Movable, not copyable (owns the
/// interned domain).
class Results {
public:
  Results();
  ~Results();
  Results(Results &&) noexcept;
  Results &operator=(Results &&) noexcept;

  ctx::Config Config;
  std::vector<PtsFact> Pts;
  std::vector<HptsFact> Hpts;
  std::vector<HloadFact> Hload;
  std::vector<CallFact> Call;
  std::vector<ReachFact> Reach;
  std::vector<GptsFact> Gpts;
  Stats Stat;

  /// Domain interpreting the TransformIds stored in the relations.
  std::unique_ptr<ctx::Domain> Dom;
  /// Interner for reach-context vectors.
  std::shared_ptr<Interner<ctx::CtxtVec, ctx::CtxtVecHash>> ReachCtxts;
  /// First-derivation provenance (null unless recording was requested and
  /// actually ran — see SolverOptions::Provenance).
  std::unique_ptr<ProvenanceGraph> Prov;

  /// Sets Stat's six relation counts from the relation vectors.
  void countRelations();

  // --- Context-insensitive projections ---
  //
  // Sorted, deduplicated, and built once, on first use; concurrent first
  // uses are safe. The relations must not change once a projection has
  // been read (debug builds assert it).

  using CiPair = std::array<std::uint32_t, 2>;
  using CiTriple = std::array<std::uint32_t, 3>;
  /// The second column of a run of ciPts()/ciCall() rows, ascending.
  using CiColumn = std::ranges::elements_view<std::span<const CiPair>, 1>;

  /// {(Var, Heap)} with the transformation projected out.
  const std::vector<CiPair> &ciPts() const;
  /// {(Base, Field, Heap)}.
  const std::vector<CiTriple> &ciHpts() const;
  /// {(Invoke, Method)}.
  const std::vector<CiPair> &ciCall() const;
  /// {Method}: reachable methods.
  const std::vector<std::uint32_t> &ciReach() const;

  // Per-leading-id slices of those rows; empty for an id past the last.

  /// pts_ci(\p Var): the heaps \p Var may point to, in any context.
  CiColumn ptsOf(std::uint32_t Var) const;
  /// The ciHpts() rows (Base, Field, Heap) of \p Base, by (Field, Heap).
  std::span<const CiTriple> hptsOf(std::uint32_t Base) const;
  /// The methods \p Invoke may call, in any context.
  CiColumn calleesOf(std::uint32_t Invoke) const;

private:
  struct CiCache;
  std::unique_ptr<CiCache> Ci;
};

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_RESULTS_H
