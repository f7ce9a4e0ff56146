//===- analysis/Incremental.h - Incremental re-solve on fact deltas -------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-solving a converged fixpoint after a small edit of the input facts,
/// instead of from scratch. The native path:
///
///   - *Additions* keep every previously derived tuple (the rules are
///     monotone in the input predicates) and merely continue semi-naive
///     propagation: the surviving relations are replayed checkpoint-style
///     and the worklists seeded with just the tuples the new rows can
///     join against.
///   - *Removals* use the first-derivation provenance graph
///     (analysis/Provenance.h) DRed-style: one forward scan in node-id
///     order (premises always precede conclusions) marks every tuple
///     whose recorded first derivation is grounded — directly or through
///     a premise — in a removed input row. Survivors' chains ground only
///     in surviving rows, so survivors are a subset of the new fixpoint;
///     re-enqueueing the survivors and draining re-derives exactly the
///     over-deleted remainder.
///
/// A bounded-damage heuristic falls back to a cold re-solve when the
/// invalidated frontier exceeds a configurable fraction of the previous
/// fixpoint — past that point replay costs more than it saves. The
/// fallback (also taken when the previous run carries no usable
/// provenance, e.g. after a warm start from a snapshot) is always a cold
/// solve of the *edited* facts, so the outcome is identical either way;
/// IncrementalOutcome records which path ran and why.
///
/// The Datalog back-end exposes no per-tuple derivation order, so its
/// entry point documents itself as a full re-solve.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_INCREMENTAL_H
#define CTP_ANALYSIS_INCREMENTAL_H

#include "analysis/Checkpoint.h"
#include "analysis/Results.h"
#include "analysis/Solver.h"
#include "ctx/Config.h"
#include "facts/FactDB.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace ctp {
namespace analysis {

/// The solver-visible summary of one fact edit. The edited FactDB is the
/// authority; this struct only tells the incremental solver *what
/// changed* so it can seed (additions) and invalidate (removals)
/// precisely. Entities are append-only — a delta may introduce new
/// variables/heaps/methods/... but never retract one, so every id of the
/// previous run stays valid in the edited database.
struct InputDelta {
  // Narrow additions: rows already present in the edited FactDB whose
  // consequences can be seeded from one driving join side.
  std::vector<facts::AssignFact> AddAssigns;
  std::vector<facts::CastFact> AddCasts;
  std::vector<facts::LoadFact> AddLoads;
  std::vector<facts::StoreFact> AddStores;
  std::vector<facts::ActualFact> AddActuals;
  std::vector<facts::FormalFact> AddFormals;
  std::vector<facts::ReturnFact> AddReturns;
  std::vector<facts::AssignReturnFact> AddAssignReturns;
  std::vector<facts::ThrowFact> AddThrows;
  std::vector<facts::CatchFact> AddCatches;
  std::vector<facts::VirtualInvokeFact> AddVirtualInvokes;
  std::vector<facts::StaticInvokeFact> AddStaticInvokes;
  std::vector<facts::AssignNewFact> AddAssignNews;
  std::vector<facts::GlobalStoreFact> AddGlobalStores;
  std::vector<facts::GlobalLoadFact> AddGlobalLoads;
  std::vector<std::uint32_t> AddEntries; ///< new entry-point methods
  /// heap_type / implements / subtype / this_var additions can enable
  /// rule instances anywhere (they are side conditions, not join-driven
  /// premises); they force a full re-enqueue of the survivors.
  bool WideAdd = false;

  // Removals: rows already erased from the edited FactDB, matched
  // against the provenance graph to invalidate their consequences.
  std::vector<facts::AssignFact> RmAssigns;
  std::vector<facts::CastFact> RmCasts;
  std::vector<facts::LoadFact> RmLoads;
  std::vector<facts::StoreFact> RmStores;
  std::vector<facts::ActualFact> RmActuals;
  std::vector<facts::FormalFact> RmFormals;
  std::vector<facts::ReturnFact> RmReturns;
  std::vector<facts::AssignReturnFact> RmAssignReturns;
  std::vector<facts::ThrowFact> RmThrows;
  std::vector<facts::CatchFact> RmCatches;
  std::vector<facts::VirtualInvokeFact> RmVirtualInvokes;
  std::vector<facts::StaticInvokeFact> RmStaticInvokes;
  std::vector<facts::AssignNewFact> RmAssignNews;
  std::vector<facts::GlobalStoreFact> RmGlobalStores;
  std::vector<facts::GlobalLoadFact> RmGlobalLoads;
  std::vector<std::uint32_t> RmEntries; ///< retracted entry-point methods
  /// heap_type / implements / subtype / this_var removals cannot be
  /// attributed through the provenance aux words (they are summarized
  /// side conditions); they force a cold re-solve.
  bool WideRemove = false;

  /// Taint/spawn/sanitizer annotations changed. Invisible to the solver;
  /// the caller must recompute its client layers from the edited FactDB.
  bool ClientFactsChanged = false;

  /// Calls \p Fn(Add, Rm) with the two lists of each narrow predicate
  /// (facts::DeltaRole::Narrow in facts/Schema.h).
  template <class Self, class FnT>
  static void forEachNarrow(Self &D, FnT &&Fn) {
    Fn(D.AddActuals, D.RmActuals);
    Fn(D.AddAssigns, D.RmAssigns);
    Fn(D.AddAssignNews, D.RmAssignNews);
    Fn(D.AddAssignReturns, D.RmAssignReturns);
    Fn(D.AddFormals, D.RmFormals);
    Fn(D.AddLoads, D.RmLoads);
    Fn(D.AddReturns, D.RmReturns);
    Fn(D.AddStaticInvokes, D.RmStaticInvokes);
    Fn(D.AddStores, D.RmStores);
    Fn(D.AddVirtualInvokes, D.RmVirtualInvokes);
    Fn(D.AddGlobalStores, D.RmGlobalStores);
    Fn(D.AddGlobalLoads, D.RmGlobalLoads);
    Fn(D.AddThrows, D.RmThrows);
    Fn(D.AddCatches, D.RmCatches);
    Fn(D.AddCasts, D.RmCasts);
  }

  /// The Add (\p Add) or Rm list of narrow predicate \p Fact.
  template <class Fact> std::vector<Fact> &edits(bool Add) {
    std::vector<Fact> *L = nullptr;
    forEachNarrow(*this, [&](auto &A, auto &R) {
      if constexpr (std::is_same_v<std::decay_t<decltype(A)>,
                                   std::vector<Fact>>)
        L = Add ? &A : &R;
    });
    assert(L && "not a narrow predicate");
    return *L;
  }

  bool hasRemovals() const {
    bool Any = WideRemove || !RmEntries.empty();
    forEachNarrow(*this, [&Any](const auto &, const auto &Rm) {
      Any = Any || !Rm.empty();
    });
    return Any;
  }

  bool hasAdditions() const {
    bool Any = WideAdd || !AddEntries.empty();
    forEachNarrow(*this, [&Any](const auto &Add, const auto &) {
      Any = Any || !Add.empty();
    });
    return Any;
  }

  /// Anything the fixpoint itself depends on (as opposed to pure
  /// taint/spawn annotation churn).
  bool solverVisible() const { return hasAdditions() || hasRemovals(); }
};

struct IncrementalOptions {
  /// Budget/collapse/provenance options of the re-solve. Provenance is
  /// forced on (the next delta needs the new graph); Resume and
  /// Checkpoint are ignored — promotion of a post-delta snapshot is the
  /// caller's (transactional) responsibility, never the solver's.
  SolverOptions Solver;
  /// Fall back to a cold re-solve when more than this fraction of the
  /// previous fixpoint is invalidated. Negative disables the heuristic.
  double MaxDamageRatio = 0.5;
};

struct IncrementalOutcome {
  Results R;
  /// True when the incremental path ran; false when the outcome is a
  /// cold re-solve (FallbackReason says why). Both yield the fixpoint of
  /// the edited facts.
  bool Incremental = false;
  std::string FallbackReason;
  std::size_t Invalidated = 0; ///< previous tuples torn down (incremental)
  std::size_t Survivors = 0;   ///< previous tuples replayed (incremental)
};

/// Re-solves after an edit: \p NewDB is the edited database, \p Prev the
/// converged previous result over the pre-edit database (same \p Cfg),
/// \p D the edit summary. Never fails: every precondition miss (previous
/// run not converged, provenance missing/truncated, configuration
/// mismatch, wide removal, damage budget exceeded) degrades to a cold
/// re-solve of \p NewDB with the reason recorded.
IncrementalOutcome resolveIncremental(const facts::FactDB &NewDB,
                                      const ctx::Config &Cfg,
                                      const Results &Prev,
                                      const InputDelta &D,
                                      const IncrementalOptions &Opts =
                                          IncrementalOptions());

/// The Datalog back-end counterpart. The generic engine records no
/// per-tuple derivation order, so this is by construction a full
/// re-solve of \p NewDB (Incremental == false, FallbackReason explains);
/// it exists so both back-ends offer the same transactional entry point.
IncrementalOutcome resolveIncrementalViaDatalog(
    const facts::FactDB &NewDB, const ctx::Config &Cfg, const Results &Prev,
    const InputDelta &D, const IncrementalOptions &Opts =
                             IncrementalOptions());

/// Re-encodes a *converged, non-collapsed* native \p R as a warm-start
/// snapshot over \p DB (all relation heads at size, fingerprints of
/// \p DB): the transactional commit path promotes this atomically after
/// certification instead of letting the re-solve clobber the previous
/// epoch's snapshot mid-transaction.
SolverSnapshot snapshotFromResults(const Results &R, const facts::FactDB &DB);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_INCREMENTAL_H
