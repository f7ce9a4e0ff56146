//===- analysis/Solver.cpp - Semi-naive pointer-analysis solver -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"

#include "analysis/Incremental.h"
#include "analysis/Provenance.h"
#include "analysis/Unify.h"
#include "ctx/CutShortcut.h"
#include "support/FlatTable.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace ctp;
using namespace ctp::analysis;
using ctx::CtxtVec;
using ctx::TransformId;
using facts::FactDB;

namespace {

std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
  return (static_cast<std::uint64_t>(A) << 32) | B;
}

std::uint64_t tripleKey(std::uint32_t A, std::uint32_t B, std::uint32_t C) {
  return hashCombine(hashCombine(mix64(A), B), C);
}

/// Slot traits of the derived relations' dedup sets. No real fact key is
/// all ones: every keyOf carries a TransformId (< 2^28) or a 0/1 tag.
struct FactKeyTraits {
  static FactKey empty() {
    return {UINT32_MAX, UINT32_MAX, UINT32_MAX, UINT32_MAX};
  }
  static std::uint64_t hash(const FactKey &K) {
    return mix64(pairKey(K[0], K[1]) ^ mix64(pairKey(K[2], K[3])));
  }
};

using FactSet = FlatSet<FactKey, FactKeyTraits>;

/// One derived relation: its dedup set, its rows in insertion order, and
/// its FIFO worklist. Inserting a row queues it, so pending work is
/// Rows[Head..], preceded only by Seeds[SeedPos..] — copies of processed
/// rows that narrow incremental seeding queues again (duplicates kept).
/// Without seeds the worklist is exactly the relation's suffix, which is
/// the (rows, head) state a checkpoint records.
template <class F> struct Relation {
  using Fact = F;
  FactSet Set;
  std::vector<Fact> Rows;
  std::size_t Head = 0;
  std::vector<Fact> Seeds;
  std::size_t SeedPos = 0;

  std::size_t pending() const {
    return Seeds.size() - SeedPos + Rows.size() - Head;
  }
  /// Copies the next pending fact out (firing it may grow Rows).
  bool pop(Fact &Out) {
    if (SeedPos < Seeds.size())
      Out = Seeds[SeedPos++];
    else if (Head < Rows.size())
      Out = Rows[Head++];
    else
      return false;
    return true;
  }
};

/// The six derived relations, named as FactTraits<Fact>::in expects.
struct DerivedRelations {
  Relation<PtsFact> Pts;
  Relation<HptsFact> Hpts;
  Relation<HloadFact> Hload;
  Relation<CallFact> Call;
  Relation<ReachFact> Reach;
  Relation<GptsFact> Gpts;
};

/// Hashed membership sets of the removed input rows, one per predicate a
/// provenance edge can ground in. Triples are stored hashed; a collision
/// can only *over*-invalidate (the true removed row always matches its
/// own hash), which re-derivation repairs — never under-invalidate.
struct RemovalSets {
  std::unordered_set<std::uint32_t> Entries;
  std::unordered_set<std::uint64_t> Assigns, Casts, Loads, Stores, Actuals,
      Formals, Returns, AssignReturns, Throws, Catches, VirtualInvokes,
      StaticInvokes, AssignNews, GlobalStores, GlobalLoads;

  explicit RemovalSets(const analysis::InputDelta &D) {
    for (std::uint32_t E : D.RmEntries)
      Entries.insert(E);
    for (const auto &F : D.RmAssigns)
      Assigns.insert(pairKey(F.From, F.To));
    // The cast's filter type is not recoverable from the edge (the aux
    // word carries the source variable); matching (From, To) alone can
    // only over-invalidate when two casts share both endpoints.
    for (const auto &F : D.RmCasts)
      Casts.insert(pairKey(F.From, F.To));
    for (const auto &F : D.RmLoads)
      Loads.insert(tripleKey(F.Base, F.Field, F.To));
    for (const auto &F : D.RmStores)
      Stores.insert(tripleKey(F.From, F.Field, F.Base));
    // Ordinals are likewise summarized away; (Var, Invoke) respectively
    // (Var, Method) over-approximate multi-ordinal passing of one var.
    for (const auto &F : D.RmActuals)
      Actuals.insert(pairKey(F.Var, F.Invoke));
    for (const auto &F : D.RmFormals)
      Formals.insert(pairKey(F.Var, F.Method));
    for (const auto &F : D.RmReturns)
      Returns.insert(pairKey(F.Var, F.Method));
    for (const auto &F : D.RmAssignReturns)
      AssignReturns.insert(pairKey(F.Invoke, F.To));
    for (const auto &F : D.RmThrows)
      Throws.insert(pairKey(F.Var, F.Method));
    for (const auto &F : D.RmCatches)
      Catches.insert(pairKey(F.Invoke, F.To));
    for (const auto &F : D.RmVirtualInvokes)
      VirtualInvokes.insert(pairKey(F.Invoke, F.Receiver));
    for (const auto &F : D.RmStaticInvokes)
      StaticInvokes.insert(tripleKey(F.Invoke, F.Target, F.InMethod));
    for (const auto &F : D.RmAssignNews)
      AssignNews.insert(tripleKey(F.Heap, F.To, F.InMethod));
    for (const auto &F : D.RmGlobalStores)
      GlobalStores.insert(pairKey(F.From, F.Global));
    for (const auto &F : D.RmGlobalLoads)
      GlobalLoads.insert(tripleKey(F.Global, F.To, F.InMethod));
  }
};

/// The solver state: input indices built once, derived relations with
/// their join indices, and FIFO worklists per derived relation.
class Solver {
public:
  Solver(const FactDB &DB, const ctx::Config &Cfg,
         const analysis::SolverOptions &Opts)
      : DB(DB), Cfg(Cfg), M(Cfg.MethodDepth), H(Cfg.HeapDepth),
        Collapse(Opts.CollapseSubsumedPts &&
                 Cfg.Abs == ctx::Abstraction::TransformerString),
        Meter(Opts.Budget), Ckpt(Opts.Checkpoint) {
    std::vector<std::uint32_t> ClassOf(DB.numHeaps());
    for (std::size_t Hp = 0; Hp < DB.numHeaps(); ++Hp)
      ClassOf[Hp] = DB.classOfHeap(static_cast<std::uint32_t>(Hp));
    Dom = ctx::makeDomain(Cfg, std::move(ClassOf));
    ReachCtxts =
        std::make_shared<Interner<CtxtVec, ctx::CtxtVecHash>>();
    if (Cfg.SolveMode == ctx::Mode::CutShortcut) {
      CutMode = true;
      CutPlan = ctx::buildCutShortcutPlan(DB);
    }
    buildInputIndices();
    PtsByVar.resize(DB.numVars());
    CallByInvoke.resize(DB.numInvokes());
    CallByCallee.resize(DB.numMethods());
    ReachByMethod.resize(DB.numMethods());
    GptsByGlobal.resize(DB.numGlobals());
    if (Ckpt.enabled() || Opts.Resume) {
      Fingerprint = DB.fingerprint();
      LayoutHash = DB.layoutHash();
    }
    if (Opts.Provenance.Enabled)
      Prov = std::make_unique<ProvenanceGraph>(Opts.Provenance.MaxEdges);
  }

  /// Rebuilds the full solver state from \p S by replaying its relations
  /// in insertion order (no rule firing, no meter charges): dedup sets,
  /// join indices, worklists, and the collapse-mode live table fall out
  /// of the replay deterministically. \returns an empty string on
  /// success; on failure the solver must be discarded (partially
  /// restored) and the caller cold-starts a fresh one.
  std::string tryRestore(const analysis::SolverSnapshot &S) {
    if (S.BackendTag != analysis::SolverSnapshot::Backend::Native)
      return "snapshot was written by a different back-end";
    if (S.Collapse != Collapse)
      return "snapshot collapse mode differs from this run";
    if (S.Config.Abs != Cfg.Abs || S.Config.Flav != Cfg.Flav ||
        S.Config.MethodDepth != Cfg.MethodDepth ||
        S.Config.HeapDepth != Cfg.HeapDepth ||
        S.Config.SolveMode != Cfg.SolveMode)
      return "snapshot configuration differs from this run";
    if (S.Fingerprint != Fingerprint)
      return "snapshot fingerprint does not match the fact database";
    if (S.LayoutHash != LayoutHash)
      return "snapshot fact layout does not match the fact database";
    if (!Dom->importInterned(S.DomainWords))
      return "snapshot transformation domain is inconsistent";
    if (!analysis::decodeCtxtInterner(S.ReachCtxtWords, *ReachCtxts))
      return "snapshot reach-context table is inconsistent";

    const IdLimits L = idLimits(DB, Dom->size(), ReachCtxts->size());
    std::string Err;
    forEachRelation([&](auto Tr) {
      if (Err.empty())
        Err = restore(Tr.in(Rel), Tr.in(S), L);
    });
    if (!Err.empty())
      return Err;
    const std::vector<std::uint32_t> &SW = S.SubsumedWords;
    for (std::size_t I = 0; I < SW.size(); I += 3) {
      if (!inRange<PtsFact>(&SW[I], L))
        return "snapshot subsumed-pts section has out-of-range ids";
      PtsFact F = FactTraits<PtsFact>::decode(&SW[I]);
      if (!Rel.Pts.Set.insert(keyOf(F)))
        return "snapshot subsumed-pts section has duplicate tuples";
      if (Ckpt.enabled())
        SubsumedAtInsert.push_back(F);
    }

    BaseWorkItems = static_cast<std::size_t>(S.WorkItems);
    BaseDerivations = S.Derivations;
    BaseTuples = S.Tuples;
    CollapsedPts = static_cast<std::size_t>(S.CollapsedPts);
    CkptLastDerivations = S.Derivations;
    Resumed = true;
    // Snapshots do not carry the derivation graph, so the replayed tuples
    // above have no nodes. A graph recording only post-resume derivations
    // would dangle on every premise that predates the snapshot; drop
    // provenance cleanly instead of keeping half of it.
    if (Prov) {
      Prov.reset();
      ProvDropped = "provenance dropped: run resumed from a checkpoint "
                    "snapshot (snapshots do not carry the derivation graph)";
    }
    return {};
  }

  /// Seeds this (fresh) solver with the still-valid part of \p Prev after
  /// the input edit \p D, so run() only derives what the edit can change.
  /// \returns an empty string when the incremental path is viable; else
  /// the fallback reason — the solver is then partially mutated and must
  /// be discarded in favour of a cold one.
  std::string tryIncremental(const analysis::Results &Prev,
                             const analysis::InputDelta &D,
                             double MaxDamageRatio, std::size_t &Invalidated,
                             std::size_t &Survivors) {
    if (Prev.Stat.Term != TerminationReason::Converged)
      return "previous result is not a converged fixpoint";
    if (Collapse || Prev.Stat.CollapsedPts != 0)
      return "subsumption collapsing retires tuples outside the "
             "derivation graph";
    if (!Prev.Prov)
      return Prev.Stat.ProvenanceDropped.empty()
                 ? "previous result has no derivation provenance"
                 : Prev.Stat.ProvenanceDropped;
    if (Prev.Prov->truncated())
      return "previous derivation graph is truncated";
    if (!Prev.Dom || !Prev.ReachCtxts)
      return "previous result lacks its interned domain";
    if (Prev.Config.Abs != Cfg.Abs || Prev.Config.Flav != Cfg.Flav ||
        Prev.Config.MethodDepth != Cfg.MethodDepth ||
        Prev.Config.HeapDepth != Cfg.HeapDepth ||
        Prev.Config.SolveMode != Cfg.SolveMode)
      return "previous result was solved under a different configuration";
    if (Cfg.SolveMode != ctx::Mode::Contexts)
      return "contextless modes (cutshortcut, unify) re-solve from cold";
    if (!Prov)
      return "incremental solve requires provenance recording";
    if (D.WideRemove)
      return "removal touches a type/dispatch predicate (heap_type, "
             "implements, subtype, this_var)";

    const ProvenanceGraph &G = *Prev.Prov;
    const std::size_t N = G.size();
    const std::size_t PrevTotal = Prev.Pts.size() + Prev.Hpts.size() +
                                  Prev.Hload.size() + Prev.Call.size() +
                                  Prev.Reach.size() + Prev.Gpts.size();
    if (N != PrevTotal)
      return "derivation graph does not cover the previous relations";

    // Entities are append-only, so every previous id is valid in the new
    // database; importing the interners reproduces the previous
    // transformation/context ids exactly and survivors keep theirs.
    {
      std::vector<std::uint32_t> W;
      Prev.Dom->exportInterned(W);
      if (!Dom->importInterned(W))
        return "transformation domain import failed";
      std::vector<std::uint32_t> CW;
      analysis::encodeCtxtInterner(*Prev.ReachCtxts, CW);
      if (!analysis::decodeCtxtInterner(CW, *ReachCtxts))
        return "reach-context table import failed";
    }

    // DRed-style invalidation, exact for first derivations: one forward
    // scan in node-id order (premises always precede their conclusion)
    // marks every node whose recorded derivation grounds in a removed
    // input row or in an invalidated premise. Survivors' chains ground
    // only in surviving rows, so survivors are a subset of the new
    // fixpoint; over-deletions are re-derived by the drain below.
    std::vector<char> Invalid(N, 0);
    std::size_t NumInvalid = 0;
    if (D.hasRemovals()) {
      RemovalSets Rm(D);
      for (std::uint32_t Id = 0; Id < N; ++Id) {
        const ProvenanceGraph::Edge &E = G.edgeOf(Id);
        if (E.Prem0 != NoNode &&
            (E.Prem0 >= Id || Invalid[E.Prem0])) {
          Invalid[Id] = 1; // >= Id would break well-foundedness; treat
          ++NumInvalid;    // defensively as invalid (sound: re-derived).
          continue;
        }
        if (E.Prem1 != NoNode && (E.Prem1 >= Id || Invalid[E.Prem1])) {
          Invalid[Id] = 1;
          ++NumInvalid;
          continue;
        }
        if (removedInputMatches(G, Id, Rm)) {
          Invalid[Id] = 1;
          ++NumInvalid;
        }
      }
    }
    Invalidated = NumInvalid;
    Survivors = N - NumInvalid;
    if (MaxDamageRatio >= 0 && PrevTotal > 0 &&
        static_cast<double>(NumInvalid) >
            MaxDamageRatio * static_cast<double>(PrevTotal))
      return "invalidated frontier (" + std::to_string(NumInvalid) + " of " +
             std::to_string(PrevTotal) + " tuples) exceeds the damage budget";

    // Replay the survivors checkpoint-style (no rule firing, no meter
    // charges): dedup sets, relation vectors, and join indices rebuild as
    // side effects, in the previous insertion order.
    std::string Err;
    forEachRelation([&](auto Tr) {
      if (Err.empty())
        Err = replaySurvivors(Tr.in(Rel), Tr.in(Prev), G, Invalid);
    });
    if (!Err.empty())
      return Err;

    // Import the surviving derivation edges in node-id order so premise
    // remaps are always resolved before they are referenced. New
    // derivations below then extend this graph seamlessly.
    {
      std::vector<std::uint32_t> Remap(N, NoNode);
      for (std::uint32_t Id = 0; Id < N; ++Id) {
        if (Invalid[Id])
          continue;
        ProvenanceGraph::Edge E = G.edgeOf(Id);
        if (E.Prem0 != NoNode)
          E.Prem0 = Remap[E.Prem0];
        if (E.Prem1 != NoNode)
          E.Prem1 = Remap[E.Prem1];
        std::uint32_t NewId = Prov->importNode(G.relOf(Id), G.factOf(Id), E);
        if (NewId == NoNode)
          return "derivation graph import exceeded the provenance capacity";
        Remap[Id] = NewId;
      }
    }

    if (D.hasRemovals() || D.WideAdd) {
      // Conservative re-enqueue: every survivor is re-processed so any
      // over-deleted tuple whose alternative derivation joins two
      // already-drained survivors is found again. Dedup makes re-firing
      // cheap (no re-insertion); this still skips the cold solve's
      // domain/interning work and its from-nothing derivation cascade.
      forEachRelation([&](auto Tr) { Tr.in(Rel).Head = 0; });
    } else {
      // Pure narrow additions: seed only the tuples the new rows can join
      // against — one driving side per rule suffices because the fire-time
      // index lookups already see every new input row. (Entry additions
      // need nothing here: run()'s ENTRY loop seeds them and dedups the
      // surviving ones.)
      auto SeedPtsOf = [this](std::uint32_t Var) {
        for (const auto &[Heap, T] : PtsByVar[Var])
          Rel.Pts.Seeds.push_back({Var, Heap, T});
      };
      for (const auto &F : D.AddAssigns)
        SeedPtsOf(F.From);
      for (const auto &F : D.AddCasts)
        SeedPtsOf(F.From);
      for (const auto &F : D.AddLoads)
        SeedPtsOf(F.Base);
      for (const auto &F : D.AddStores)
        SeedPtsOf(F.From);
      for (const auto &F : D.AddActuals)
        SeedPtsOf(F.Var);
      for (const auto &F : D.AddReturns)
        SeedPtsOf(F.Var);
      for (const auto &F : D.AddThrows)
        SeedPtsOf(F.Var);
      for (const auto &F : D.AddVirtualInvokes)
        SeedPtsOf(F.Receiver);
      for (const auto &F : D.AddGlobalStores)
        SeedPtsOf(F.From);
      for (const auto &F : D.AddFormals)
        for (const auto &[Invoke, T] : CallByCallee[F.Method])
          Rel.Call.Seeds.push_back({Invoke, F.Method, T});
      for (const auto &F : D.AddAssignReturns)
        for (const auto &[Method, T] : CallByInvoke[F.Invoke])
          Rel.Call.Seeds.push_back({F.Invoke, Method, T});
      for (const auto &F : D.AddCatches)
        for (const auto &[Method, T] : CallByInvoke[F.Invoke])
          Rel.Call.Seeds.push_back({F.Invoke, Method, T});
      for (const auto &F : D.AddStaticInvokes)
        for (std::uint32_t CtxId : ReachByMethod[F.InMethod])
          Rel.Reach.Seeds.push_back({F.InMethod, CtxId});
      for (const auto &F : D.AddAssignNews)
        for (std::uint32_t CtxId : ReachByMethod[F.InMethod])
          Rel.Reach.Seeds.push_back({F.InMethod, CtxId});
      for (const auto &F : D.AddGlobalLoads)
        for (const auto &[Heap, T] : GptsByGlobal[F.Global])
          Rel.Gpts.Seeds.push_back({F.Global, Heap, T});
    }
    return {};
  }

  Results run() {
    Stopwatch Timer;
    if (!Resumed) {
      // ENTRY: reach(main, [entry]) (truncated to the method depth so the
      // degenerate insensitive configuration gets the empty context).
      for (std::uint32_t E : DB.EntryMethods) {
        CtxtVec Entry;
        Entry.push_back(ctx::EntryElem);
        CtxtVec Ctx = Entry.takePrefix(M);
        if (addReach(E, Ctx) && Prov)
          Prov->note(ProvRel::Reach,
                     keyOf(ReachFact{E, ReachCtxts->intern(Ctx)}),
                     ProvRule::Entry, NoNode, NoNode, E);
      }
    }
    drain();
    // A converged run's checkpoint is spent: remove it so a later
    // --resume cannot pick up stale state. A resident service opts out
    // via KeepOnConverge — it writes a final converged snapshot instead,
    // which a restarted daemon restores as a warm start (all relation
    // heads at size, so the restored solver converges immediately).
    if (Ckpt.enabled() && !Meter.tripped()) {
      if (Ckpt.KeepOnConverge)
        writeCheckpoint(TerminationReason::Converged);
      else
        analysis::removeSnapshot(Ckpt.Dir);
    }

    Results R;
    R.Config = Cfg;
    // Copies, not moves: an exact-size copy keeps the growth slack of the
    // relation vectors out of the Results that outlive the solver.
    forEachRelation([&](auto Tr) {
      const auto &Rows = Tr.in(Rel).Rows;
      Tr.in(R).assign(Rows.begin(), Rows.end());
    });
    if (Collapse) {
      // Report only the live (non-retired) facts.
      R.Pts.clear();
      for (const auto &[Key, Ts] : LivePts) {
        std::uint32_t Var = static_cast<std::uint32_t>(Key >> 32);
        std::uint32_t Heap = static_cast<std::uint32_t>(Key);
        for (TransformId T : Ts)
          R.Pts.push_back({Var, Heap, T});
      }
    }
    R.countRelations();
    R.Stat.CollapsedPts = CollapsedPts;
    R.Stat.DomainSize = Dom->size();
    R.Stat.DomainTraffic = Dom->counters();
    R.Stat.WorkItems = BaseWorkItems + WorkItems;
    R.Stat.Seconds = Timer.seconds();
    R.Stat.Term = Meter.reason();
    R.Stat.Progress.Iterations = BaseWorkItems + WorkItems;
    R.Stat.Progress.Derivations =
        static_cast<std::size_t>(totalDerivations());
    R.Stat.Progress.PendingWork = pendingWork();
    R.Stat.CheckpointError = CkptError;
    R.Stat.ProvenanceDropped = ProvDropped;
    R.Dom = std::move(Dom);
    R.ReachCtxts = ReachCtxts;
    R.Prov = std::move(Prov);
    return R;
  }

private:
  //===--- Input indices --------------------------------------------------===//

  void buildInputIndices() {
    AssignFrom.resize(DB.numVars());
    for (const auto &F : DB.Assigns)
      AssignFrom[F.From].push_back(F.To);

    LoadByBase.resize(DB.numVars());
    for (const auto &F : DB.Loads)
      LoadByBase[F.Base].push_back({F.Field, F.To});

    StoreByValue.resize(DB.numVars());
    StoreByBase.resize(DB.numVars());
    for (const auto &F : DB.Stores) {
      StoreByValue[F.From].push_back({F.Field, F.Base});
      StoreByBase[F.Base].push_back({F.Field, F.From});
    }

    ActualByVar.resize(DB.numVars());
    ActualByInvoke.resize(DB.numInvokes());
    for (const auto &F : DB.Actuals) {
      ActualByVar[F.Var].push_back({F.Invoke, F.Ordinal});
      ActualByInvoke[F.Invoke].push_back({F.Ordinal, F.Var});
    }

    for (const auto &F : DB.Formals)
      FormalOf.emplace(pairKey(F.Method, F.Ordinal), F.Var);

    ReturnByVar.resize(DB.numVars());
    ReturnByMethod.resize(DB.numMethods());
    for (const auto &F : DB.Returns) {
      ReturnByVar[F.Var].push_back(F.Method);
      ReturnByMethod[F.Method].push_back(F.Var);
    }

    AssignRetByInvoke.resize(DB.numInvokes());
    for (const auto &F : DB.AssignReturns)
      AssignRetByInvoke[F.Invoke].push_back(F.To);

    VirtByReceiver.resize(DB.numVars());
    for (const auto &F : DB.VirtualInvokes)
      VirtByReceiver[F.Receiver].push_back({F.Invoke, F.Sig});

    HeapTypeOf.assign(DB.numHeaps(), facts::InvalidId);
    for (const auto &F : DB.HeapTypes)
      HeapTypeOf[F.Heap] = F.Type;

    for (const auto &F : DB.Implements)
      Dispatch.emplace(pairKey(F.Type, F.Sig), F.Method);

    ThisOf.assign(DB.numMethods(), facts::InvalidId);
    for (const auto &F : DB.ThisVars)
      ThisOf[F.Method] = F.Var;

    StaticByMethod.resize(DB.numMethods());
    for (const auto &F : DB.StaticInvokes)
      StaticByMethod[F.InMethod].push_back({F.Invoke, F.Target});

    AssignNewByMethod.resize(DB.numMethods());
    for (const auto &F : DB.AssignNews)
      AssignNewByMethod[F.InMethod].push_back({F.Heap, F.To});

    GlobalStoreByValue.resize(DB.numVars());
    for (const auto &F : DB.GlobalStores)
      GlobalStoreByValue[F.From].push_back(F.Global);
    GlobalLoadByGlobal.resize(DB.numGlobals());
    GlobalLoadByMethod.resize(DB.numMethods());
    for (const auto &F : DB.GlobalLoads) {
      GlobalLoadByGlobal[F.Global].push_back({F.To, F.InMethod});
      GlobalLoadByMethod[F.InMethod].push_back({F.Global, F.To});
    }

    ThrowByVar.resize(DB.numVars());
    ThrowByMethod.resize(DB.numMethods());
    for (const auto &F : DB.Throws) {
      ThrowByVar[F.Var].push_back(F.Method);
      ThrowByMethod[F.Method].push_back(F.Var);
    }
    CatchByInvoke.resize(DB.numInvokes());
    for (const auto &F : DB.Catches)
      CatchByInvoke[F.Invoke].push_back(F.To);

    CastByFrom.resize(DB.numVars());
    for (const auto &F : DB.Casts)
      CastByFrom[F.From].push_back({F.To, F.Type});
    for (const auto &F : DB.Subtypes)
      SubtypePairs.insert(pairKey(F.Sub, F.Super));
  }

  bool isSubtype(std::uint32_t Sub, std::uint32_t Super) const {
    return SubtypePairs.count(pairKey(Sub, Super)) != 0;
  }

  //===--- Derived-fact insertion (dedup + admit + append) ----------------===//

  /// Dedups \p F and appends it to its relation, which queues it. \returns
  /// true exactly when the tuple is new — the moment a provenance edge,
  /// if enabled, must be noted by the rule site (which alone knows the
  /// premises).
  template <class Fact> bool add(const Fact &F) {
    Meter.chargeDerivations();
    Relation<Fact> &R = FactTraits<Fact>::in(Rel);
    if (!R.Set.insert(keyOf(F)) || !admit(F))
      return false;
    Meter.chargeTuple();
    append(R, F);
    return true;
  }

  bool addReach(std::uint32_t Method, const CtxtVec &Ctx) {
    return add(ReachFact{Method, ReachCtxts->intern(Ctx)});
  }

  template <class Fact> void append(Relation<Fact> &R, const Fact &F) {
    R.Rows.push_back(F);
    index(F);
  }

  /// Join-index updates, one per relation.
  void index(const PtsFact &F) { PtsByVar[F.Var].push_back({F.Heap, F.T}); }
  void index(const HptsFact &F) {
    HptsByBaseField[pairKey(F.Base, F.Field)].push_back({F.Heap, F.T});
  }
  void index(const HloadFact &F) {
    HloadByBaseField[pairKey(F.Base, F.Field)].push_back({F.Var, F.T});
  }
  void index(const CallFact &F) {
    CallByInvoke[F.Invoke].push_back({F.Method, F.T});
    CallByCallee[F.Method].push_back({F.Invoke, F.T});
  }
  void index(const ReachFact &F) {
    ReachByMethod[F.Method].push_back(F.CtxtId);
  }
  void index(const GptsFact &F) {
    GptsByGlobal[F.Global].push_back({F.Heap, F.T});
  }

  /// Only pts can be refused after dedup: in collapse mode a fact a live
  /// one subsumes occupies the dedup set but never reaches the relation,
  /// so a checkpoint must carry it separately or a resumed run would
  /// re-attempt (and re-count) the same subsumed derivations.
  template <class Fact> bool admit(const Fact &) { return true; }
  bool admit(const PtsFact &F) {
    if (!Collapse || collapseInsert(F.Var, F.Heap, F.T))
      return true;
    if (Ckpt.enabled())
      SubsumedAtInsert.push_back(F);
    return false;
  }

  /// Subsumption collapsing (Section 8 extension): \returns false when the
  /// new fact is subsumed by a live fact; otherwise retires live facts the
  /// new one subsumes and returns true.
  bool collapseInsert(std::uint32_t Var, std::uint32_t Heap,
                      TransformId T) {
    auto &Live = LivePts[pairKey(Var, Heap)];
    const ctx::Transformer &NewT = Dom->transformer(T);
    for (TransformId Old : Live)
      if (ctx::subsumes(Dom->transformer(Old), NewT)) {
        ++CollapsedPts;
        return false;
      }
    // Retire live facts subsumed by the new one, including their join
    // index entries so future rule firings skip them. (Already-propagated
    // consequences remain — they are sound, merely redundant.)
    std::size_t Kept = 0;
    for (std::size_t I = 0; I < Live.size(); ++I) {
      if (ctx::subsumes(NewT, Dom->transformer(Live[I]))) {
        ++CollapsedPts;
        auto &Index = PtsByVar[Var];
        for (std::size_t J = 0; J < Index.size(); ++J)
          if (Index[J].first == Heap && Index[J].second == Live[I]) {
            Index[J] = Index.back();
            Index.pop_back();
            break;
          }
        continue;
      }
      Live[Kept++] = Live[I];
    }
    Live.resize(Kept);
    Live.push_back(T);
    return true;
  }

  /// Replays one snapshot relation as add() would have built it, without
  /// rule firing or meter charges, rejecting out-of-range ids and
  /// duplicate tuples.
  template <class Fact>
  std::string restore(Relation<Fact> &R, const RelationWords &W,
                      const IdLimits &L) {
    using Tr = FactTraits<Fact>;
    const std::string What = std::string("snapshot ") + Tr::Name + " relation";
    for (std::size_t I = 0; I < W.Words.size(); I += Tr::Arity) {
      if (!inRange<Fact>(&W.Words[I], L))
        return What + " has out-of-range ids";
      Fact F = Tr::decode(&W.Words[I]);
      if (!R.Set.insert(keyOf(F)))
        return What + " has duplicate tuples";
      if (!admit(F))
        return What + " disagrees with its collapse state";
      append(R, F);
    }
    R.Head = std::min<std::size_t>(W.Head, R.Rows.size());
    return {};
  }

  /// Replays the tuples of \p Prev whose recorded derivation survived the
  /// invalidation, all of them already processed.
  template <class Fact>
  std::string replaySurvivors(Relation<Fact> &R, const std::vector<Fact> &Prev,
                              const ProvenanceGraph &G,
                              const std::vector<char> &Invalid) {
    for (const Fact &F : Prev) {
      std::uint32_t Node = G.lookup(FactTraits<Fact>::Rel, keyOf(F));
      if (Node == NoNode)
        return std::string("previous ") + FactTraits<Fact>::Name +
               " tuple has no recorded derivation";
      if (Invalid[Node])
        continue;
      R.Set.insert(keyOf(F));
      append(R, F);
    }
    R.Head = R.Rows.size();
    return {};
  }

  //===--- Checkpointing --------------------------------------------------===//

  std::uint64_t totalDerivations() const {
    return BaseDerivations + Meter.derivations();
  }

  std::size_t pendingWork() const {
    std::size_t N = 0;
    forEachRelation([&](auto Tr) { N += Tr.in(Rel).pending(); });
    return N;
  }

  analysis::SolverSnapshot captureSnapshot(TerminationReason Term) const {
    analysis::SolverSnapshot S;
    S.BackendTag = analysis::SolverSnapshot::Backend::Native;
    S.Collapse = Collapse;
    S.Config = Cfg;
    S.Fingerprint = Fingerprint;
    S.LayoutHash = LayoutHash;
    Dom->exportInterned(S.DomainWords);
    analysis::encodeCtxtInterner(*ReachCtxts, S.ReachCtxtWords);
    forEachRelation([&](auto Tr) {
      const auto &R = Tr.in(Rel);
      assert(R.SeedPos == R.Seeds.size() &&
             "seeded work is not a suffix of its relation");
      Tr.in(S) = analysis::encodeRelation(R.Rows, R.Head);
    });
    S.SubsumedWords = analysis::encodeRelation(SubsumedAtInsert, 0).Words;

    S.WorkItems = BaseWorkItems + WorkItems;
    S.Derivations = totalDerivations();
    S.Tuples = BaseTuples + Meter.tuples();
    S.CollapsedPts = CollapsedPts;
    S.Term = Term;
    S.Progress.Iterations = BaseWorkItems + WorkItems;
    S.Progress.Derivations = static_cast<std::size_t>(S.Derivations);
    S.Progress.PendingWork = pendingWork();
    return S;
  }

  void writeCheckpoint(TerminationReason Term) {
    std::string Err = analysis::writeSnapshot(
        captureSnapshot(Term), analysis::checkpointPath(Ckpt.Dir));
    if (Err.empty())
      CkptLastDerivations = totalDerivations();
    else
      CkptError = "checkpoint write failed: " + Err;
  }

  //===--- Rule firing ----------------------------------------------------===//

  void drain() {
    while (pendingWork() != 0) {
      // Budget poll at rule-firing granularity: one item's consequences
      // are always fully derived (the adds above never abort mid-item),
      // so a trip leaves the relations a sound prefix of the fixpoint
      // with the unprocessed items counted as pending work — which is
      // also exactly the state a trip-time checkpoint captures.
      if (auto Trip = Meter.poll()) {
        if (Ckpt.enabled())
          writeCheckpoint(*Trip);
        return;
      }
      if (Ckpt.enabled() && Ckpt.EveryDerivations != 0 &&
          totalDerivations() - CkptLastDerivations >= Ckpt.EveryDerivations)
        writeCheckpoint(TerminationReason::Converged);
      // Priority order; gpts drains before reach.
      step<&Solver::onNewPts>(Rel.Pts) || step<&Solver::onNewHpts>(Rel.Hpts) ||
          step<&Solver::onNewHload>(Rel.Hload) ||
          step<&Solver::onNewCall>(Rel.Call) ||
          step<&Solver::onNewGpts>(Rel.Gpts) ||
          step<&Solver::onNewReach>(Rel.Reach);
    }
  }

  /// Fires the next pending fact of \p R, if any.
  template <auto OnNew, class Fact> bool step(Relation<Fact> &R) {
    Fact F{};
    if (!R.pop(F))
      return false;
    ++WorkItems;
    (this->*OnNew)(F);
    return true;
  }

  void onNewPts(const PtsFact &F) {
    // Provenance node of the driving fact (NoNode when recording is off;
    // each note() below then never executes thanks to the && Prov guard).
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Pts, keyOf(F)) : NoNode;

    // [ASSIGN] pts(Z,H,A), assign(Z,Y) |- pts(Y,H,A).
    for (std::uint32_t Y : AssignFrom[F.Var])
      if (add(PtsFact{Y, F.Heap, F.T}) && Prov)
        Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, F.T}),
                   ProvRule::Assign, FN, NoNode, F.Var);

    // [CAST] pts(Z,H,A), cast(Z,Y,T), heap_type(H,T'), subtype(T',T)
    //        |- pts(Y,H,A): an assignment filtered by the cast type.
    for (const auto &[Y, T] : CastByFrom[F.Var])
      if (isSubtype(HeapTypeOf[F.Heap], T))
        if (add(PtsFact{Y, F.Heap, F.T}) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, F.T}),
                     ProvRule::Cast, FN, NoNode, F.Var);

    // [LOAD] pts(Y,G,A), load(Y,F,Z) |- hload(G,F,Z,A).
    for (const auto &[Field, To] : LoadByBase[F.Var])
      if (add(HloadFact{F.Heap, Field, To, F.T}) && Prov)
        Prov->note(ProvRel::Hload, keyOf(HloadFact{F.Heap, Field, To, F.T}),
                   ProvRule::Load, FN, NoNode, F.Var);

    // [STORE] pts(X,H,B), store(X,Fl,Z), pts(Z,G,C)
    //         |- hpts(G,Fl,H, B ; inv(C)).
    // Provenance premise order is always (value pts, base pts).
    // Driven from the stored-value side (this fact is pts(X,H,B))...
    for (const auto &[Field, Base] : StoreByValue[F.Var])
      for (const auto &[G, C] : PtsByVar[Base])
        if (auto A = Dom->comp(F.T, Dom->inv(C), H, H))
          if (add(HptsFact{G, Field, F.Heap, *A}) && Prov)
            Prov->note(ProvRel::Hpts, keyOf(HptsFact{G, Field, F.Heap, *A}),
                       ProvRule::Store, FN,
                       Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Base, G, C})),
                       F.Var);
    // ...and from the base side (this fact is pts(Z,G,C)).
    for (const auto &[Field, Value] : StoreByBase[F.Var])
      for (const auto &[Hp, B] : PtsByVar[Value])
        if (auto A = Dom->comp(B, Dom->inv(F.T), H, H))
          if (add(HptsFact{F.Heap, Field, Hp, *A}) && Prov)
            Prov->note(ProvRel::Hpts, keyOf(HptsFact{F.Heap, Field, Hp, *A}),
                       ProvRule::Store,
                       Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Value, Hp, B})),
                       FN, Value);

    // [PARAM] pts(Z,H,B), actual(Z,I,O), call(I,P,C), formal(Y,P,O)
    //         |- pts(Y,H, B ; C). Premise order: (actual pts, call).
    for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
      for (const auto &[Callee, C] : CallByInvoke[Invoke])
        if (auto It = FormalOf.find(pairKey(Callee, Ord));
            It != FormalOf.end())
          if (auto A = Dom->comp(F.T, C, H, M))
            if (add(PtsFact{It->second, F.Heap, *A}) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{It->second, F.Heap, *A}),
                  ProvRule::Param, FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, Callee, C})),
                  Invoke);

    // [SHORTCUT] (cutshortcut mode) pts(Z,H,B), actual(Z,I,O),
    //            call(I,P,C), shortcut(P,O), assign_return(I,Y)
    //            |- pts(Y,H, (B ; C) ; inv(C)) — the actual forwarded
    //            straight to this call's result, replacing the cut RET
    //            flow per call site. Premise order: (actual pts, call).
    if (CutMode)
      for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
        for (const auto &[Callee, C] : CallByInvoke[Invoke])
          if (CutPlan.hasShortcut(Callee, Ord))
            if (auto In = Dom->comp(F.T, C, H, M))
              if (auto A = Dom->comp(*In, Dom->inv(C), H, M))
                for (std::uint32_t Y : AssignRetByInvoke[Invoke])
                  if (add(PtsFact{Y, F.Heap, *A}) && Prov)
                    Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}),
                               ProvRule::Shortcut, FN,
                               Prov->lookup(ProvRel::Call,
                                            keyOf(CallFact{Invoke, Callee, C})),
                               Invoke);

    // [RET] pts(Z,H,B), return(Z,P), call(I,P,C), assign_return(I,Y)
    //       |- pts(Y,H, B ; inv(C)). Premise order: (return pts, call).
    // In cutshortcut mode the cut (method, return-var) pairs are skipped:
    // their flows are re-delivered per call site by [SHORTCUT].
    for (std::uint32_t P : ReturnByVar[F.Var]) {
      if (CutMode && CutPlan.isCutReturn(P, F.Var))
        continue;
      for (const auto &[Invoke, C] : CallByCallee[P]) {
        TransformId InvC = Dom->inv(C);
        if (auto A = Dom->comp(F.T, InvC, H, M))
          for (std::uint32_t Y : AssignRetByInvoke[Invoke])
            if (add(PtsFact{Y, F.Heap, *A}) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}), ProvRule::Ret,
                  FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, P, C})),
                  Invoke);
      }
    }

    // [THROW] pts(Z,H,B), throw(Z,P), call(I,P,C), catch(I,Y)
    //         |- pts(Y,H, B ; inv(C)) — the exceptional return path.
    for (std::uint32_t P : ThrowByVar[F.Var])
      for (const auto &[Invoke, C] : CallByCallee[P]) {
        TransformId InvC = Dom->inv(C);
        if (auto A = Dom->comp(F.T, InvC, H, M))
          for (std::uint32_t Y : CatchByInvoke[Invoke])
            if (add(PtsFact{Y, F.Heap, *A}) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}), ProvRule::Throw,
                  FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, P, C})),
                  Invoke);
      }

    // [GSTORE] pts(X,H,B), global_store(X,G) |- gpts(G,H, globalize(B)).
    if (!GlobalStoreByValue[F.Var].empty()) {
      TransformId GT = Dom->globalize(F.T);
      for (std::uint32_t G : GlobalStoreByValue[F.Var])
        if (add(GptsFact{G, F.Heap, GT}) && Prov)
          Prov->note(ProvRel::Gpts, keyOf(GptsFact{G, F.Heap, GT}),
                     ProvRule::GStore, FN, NoNode, F.Var);
    }

    // [VIRT] virtual_invoke(I,Z,S), pts(Z,H,B), heap_type(H,T),
    //        implements(Q,T,S), this_var(Y,Q), C := merge(H,I,B)
    //        |- call(I,Q,C) and pts(Y,H, B ; C).
    if (!VirtByReceiver[F.Var].empty()) {
      std::uint32_t HeapType = HeapTypeOf[F.Heap];
      for (const auto &[Invoke, Sig] : VirtByReceiver[F.Var]) {
        auto It = Dispatch.find(pairKey(HeapType, Sig));
        if (It == Dispatch.end())
          continue; // No implementation: dead dispatch.
        std::uint32_t Q = It->second;
        TransformId C = Dom->mergeVirtual(F.Heap, Invoke, F.T);
        if (add(CallFact{Invoke, Q, C}) && Prov)
          Prov->note(ProvRel::Call, keyOf(CallFact{Invoke, Q, C}),
                     ProvRule::VirtCall, FN, NoNode, Invoke);
        std::uint32_t ThisY = ThisOf[Q];
        assert(ThisY != facts::InvalidId &&
               "dispatched method has no this variable");
        if (auto A = Dom->comp(F.T, C, H, M))
          if (add(PtsFact{ThisY, F.Heap, *A}) && Prov)
            Prov->note(
                ProvRel::Pts, keyOf(PtsFact{ThisY, F.Heap, *A}),
                ProvRule::VirtThis, FN,
                Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, Q, C})),
                Invoke);
      }
    }
  }

  void onNewHpts(const HptsFact &F) {
    // [IND] hpts(G,Fl,H,B), hload(G,Fl,Y,C) |- pts(Y,H, B ; C).
    // Provenance premise order is always (hpts, hload).
    auto It = HloadByBaseField.find(pairKey(F.Base, F.Field));
    if (It == HloadByBaseField.end())
      return;
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Hpts, keyOf(F)) : NoNode;
    for (const auto &[Y, C] : It->second)
      if (auto A = Dom->comp(F.T, C, H, M))
        if (add(PtsFact{Y, F.Heap, *A}) && Prov)
          Prov->note(
              ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}), ProvRule::Ind, FN,
              Prov->lookup(ProvRel::Hload,
                           keyOf(HloadFact{F.Base, F.Field, Y, C})),
              UINT32_MAX);
  }

  void onNewHload(const HloadFact &F) {
    // [IND], driven from the load side.
    auto It = HptsByBaseField.find(pairKey(F.Base, F.Field));
    if (It == HptsByBaseField.end())
      return;
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Hload, keyOf(F)) : NoNode;
    for (const auto &[Hp, B] : It->second)
      if (auto A = Dom->comp(B, F.T, H, M))
        if (add(PtsFact{F.Var, Hp, *A}) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{F.Var, Hp, *A}),
                     ProvRule::Ind,
                     Prov->lookup(ProvRel::Hpts,
                                  keyOf(HptsFact{F.Base, F.Field, Hp, B})),
                     FN, UINT32_MAX);
  }

  void onNewCall(const CallFact &F) {
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Call, keyOf(F)) : NoNode;

    // [REACH] call(I,P,A) |- reach(P, target(A)).
    CtxtVec Tgt = Dom->target(F.T);
    if (addReach(F.Method, Tgt) && Prov)
      Prov->note(ProvRel::Reach,
                 keyOf(ReachFact{F.Method, ReachCtxts->intern(Tgt)}),
                 ProvRule::Reach, FN, NoNode, F.Invoke);

    // [PARAM], driven from the call side. Premise order: (actual pts, call).
    for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
      if (auto It = FormalOf.find(pairKey(F.Method, Ord));
          It != FormalOf.end())
        for (const auto &[Hp, B] : PtsByVar[Z])
          if (auto A = Dom->comp(B, F.T, H, M))
            if (add(PtsFact{It->second, Hp, *A}) && Prov)
              Prov->note(ProvRel::Pts, keyOf(PtsFact{It->second, Hp, *A}),
                         ProvRule::Param,
                         Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})),
                         FN, F.Invoke);

    // [SHORTCUT], driven from the call side (cutshortcut mode).
    if (CutMode && !AssignRetByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
        if (CutPlan.hasShortcut(F.Method, Ord))
          // Index-based: the actual Z and the assign-return target Y live
          // in the same (caller) method and may alias, so add below can
          // grow PtsByVar[Z] mid-loop.
          for (std::size_t PI = 0; PI < PtsByVar[Z].size(); ++PI) {
            const auto [Hp, B] = PtsByVar[Z][PI];
            if (auto In = Dom->comp(B, F.T, H, M))
              if (auto A = Dom->comp(*In, InvC, H, M))
                for (std::uint32_t Y : AssignRetByInvoke[F.Invoke])
                  if (add(PtsFact{Y, Hp, *A}) && Prov)
                    Prov->note(
                        ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}),
                        ProvRule::Shortcut,
                        Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})),
                        FN, F.Invoke);
          }
    }

    // [RET], driven from the call side (cut pairs skipped as above).
    if (!AssignRetByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ReturnByMethod[F.Method]) {
        if (CutMode && CutPlan.isCutReturn(F.Method, Z))
          continue;
        for (const auto &[Hp, B] : PtsByVar[Z])
          if (auto A = Dom->comp(B, InvC, H, M))
            for (std::uint32_t Y : AssignRetByInvoke[F.Invoke])
              if (add(PtsFact{Y, Hp, *A}) && Prov)
                Prov->note(
                    ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}), ProvRule::Ret,
                    Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})), FN,
                    F.Invoke);
      }
    }

    // [THROW], driven from the call side.
    if (!CatchByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ThrowByMethod[F.Method])
        for (const auto &[Hp, B] : PtsByVar[Z])
          if (auto A = Dom->comp(B, InvC, H, M))
            for (std::uint32_t Y : CatchByInvoke[F.Invoke])
              if (add(PtsFact{Y, Hp, *A}) && Prov)
                Prov->note(
                    ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}), ProvRule::Throw,
                    Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})), FN,
                    F.Invoke);
    }
  }

  void onNewGpts(const GptsFact &F) {
    // [GLOAD] gpts(G,H,A), global_load(G,Z,P), reach(P,Mx)
    //         |- pts(Z,H, retarget(A,Mx)).
    // Provenance premise order is always (gpts, reach).
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Gpts, keyOf(F)) : NoNode;
    for (const auto &[Z, P] : GlobalLoadByGlobal[F.Global])
      for (std::uint32_t CtxId : ReachByMethod[P]) {
        TransformId A = Dom->retarget(F.T, (*ReachCtxts)[CtxId]);
        if (add(PtsFact{Z, F.Heap, A}) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Z, F.Heap, A}),
                     ProvRule::GLoad, FN,
                     Prov->lookup(ProvRel::Reach, keyOf(ReachFact{P, CtxId})),
                     F.Global);
      }
  }

  void onNewReach(const ReachFact &F) {
    const CtxtVec &Ctx = (*ReachCtxts)[F.CtxtId];
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Reach, keyOf(F)) : NoNode;
    // [GLOAD], driven from the reach side.
    for (const auto &[G, Z] : GlobalLoadByMethod[F.Method])
      for (const auto &[Hp, A] : GptsByGlobal[G]) {
        TransformId RT = Dom->retarget(A, Ctx);
        if (add(PtsFact{Z, Hp, RT}) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Z, Hp, RT}), ProvRule::GLoad,
                     Prov->lookup(ProvRel::Gpts, keyOf(GptsFact{G, Hp, A})),
                     FN, G);
      }
    // [NEW] assign_new(H,Y,P), reach(P,Mx) |- pts(Y,H, record(Mx)).
    if (!AssignNewByMethod[F.Method].empty()) {
      TransformId A = Dom->record(Ctx);
      for (const auto &[Hp, Y] : AssignNewByMethod[F.Method])
        if (add(PtsFact{Y, Hp, A}) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, Hp, A}), ProvRule::New,
                     FN, NoNode, Hp);
    }
    // [STATIC] static_invoke(I,Q,P), reach(P,Mx)
    //          |- call(I,Q, merge_s(I,Mx)).
    for (const auto &[Invoke, Target] : StaticByMethod[F.Method]) {
      TransformId C = Dom->mergeStatic(Invoke, Ctx);
      if (add(CallFact{Invoke, Target, C}) && Prov)
        Prov->note(ProvRel::Call, keyOf(CallFact{Invoke, Target, C}),
                   ProvRule::Static, FN, NoNode, Invoke);
    }
  }

  //===--- Incremental invalidation -----------------------------------------===//

  /// Does the first derivation recorded at \p Id ground in a removed
  /// input row? Each rule's aux word plus its conclusion and premise
  /// facts reconstruct the input row the firing consumed (the ProvRule
  /// doc comments define the aux semantics). A premise the rule requires
  /// but the edge lacks makes the node conservatively invalid — sound,
  /// since invalidated tuples are re-derived when still derivable.
  static bool removedInputMatches(const ProvenanceGraph &G, std::uint32_t Id,
                                  const RemovalSets &Rm) {
    constexpr std::uint32_t Invalid = ProvenanceGraph::InvalidNode;
    const ProvenanceGraph::Edge &E = G.edgeOf(Id);
    const FactKey &K = G.factOf(Id);
    switch (E.Rule) {
    case ProvRule::Entry:
      return Rm.Entries.count(E.Aux) != 0;
    case ProvRule::Assign: // pts(Y,H,A) via assign(Z,Y); Aux = Z.
      return Rm.Assigns.count(pairKey(E.Aux, K[0])) != 0;
    case ProvRule::Cast: // pts(Y,H,A) via cast(Z,Y,T); Aux = Z.
      return Rm.Casts.count(pairKey(E.Aux, K[0])) != 0;
    case ProvRule::Load: // hload(G,Fl,Z,A) via load(Y,Fl,Z); Aux = Y.
      return Rm.Loads.count(tripleKey(E.Aux, K[1], K[2])) != 0;
    case ProvRule::Store: // hpts via store(X,Fl,Z); Aux = X, Prem1 = base pts.
      if (E.Prem1 == Invalid)
        return true;
      return Rm.Stores.count(
                 tripleKey(E.Aux, K[1], G.factOf(E.Prem1)[0])) != 0;
    case ProvRule::Param: // pts(Y,·) via actual(Z,I,O) + formal(Y,P,O).
      if (E.Prem0 == Invalid || E.Prem1 == Invalid)
        return true;
      return Rm.Actuals.count(pairKey(G.factOf(E.Prem0)[0], E.Aux)) != 0 ||
             Rm.Formals.count(pairKey(K[0], G.factOf(E.Prem1)[1])) != 0;
    case ProvRule::Ret: // pts(Y,·) via return(Z,P) + assign_return(I,Y).
      if (E.Prem0 == Invalid || E.Prem1 == Invalid)
        return true;
      return Rm.Returns.count(
                 pairKey(G.factOf(E.Prem0)[0], G.factOf(E.Prem1)[1])) != 0 ||
             Rm.AssignReturns.count(pairKey(E.Aux, K[0])) != 0;
    case ProvRule::Throw: // pts(Y,·) via throw(Z,P) + catch(I,Y).
      if (E.Prem0 == Invalid || E.Prem1 == Invalid)
        return true;
      return Rm.Throws.count(
                 pairKey(G.factOf(E.Prem0)[0], G.factOf(E.Prem1)[1])) != 0 ||
             Rm.Catches.count(pairKey(E.Aux, K[0])) != 0;
    case ProvRule::GStore: // gpts(G,H,·) via global_store(X,G); Aux = X.
      return Rm.GlobalStores.count(pairKey(E.Aux, K[0])) != 0;
    case ProvRule::VirtCall:  // via virtual_invoke(I,Z,S); Aux = I,
    case ProvRule::VirtThis:  // Prem0 = receiver pts(Z,·).
      if (E.Prem0 == Invalid)
        return true;
      return Rm.VirtualInvokes.count(
                 pairKey(E.Aux, G.factOf(E.Prem0)[0])) != 0;
    case ProvRule::Ind:   // joins two derived facts; no input row.
    case ProvRule::Reach: // projection of a derived call; no input row.
      return false;
    case ProvRule::Shortcut:
      // Cutshortcut grounds in the cut plan, which any input edit can
      // reshape; tryIncremental refuses contextless modes up front, so
      // this is only defensive.
      return true;
    case ProvRule::GLoad: // via global_load(G,Z,P); Aux = G, Prem1 = reach.
      if (E.Prem1 == Invalid)
        return true;
      return Rm.GlobalLoads.count(
                 tripleKey(E.Aux, K[0], G.factOf(E.Prem1)[0])) != 0;
    case ProvRule::New: // via assign_new(H,Y,P); Aux = H, Prem0 = reach.
      if (E.Prem0 == Invalid)
        return true;
      return Rm.AssignNews.count(
                 tripleKey(E.Aux, K[0], G.factOf(E.Prem0)[0])) != 0;
    case ProvRule::Static: // via static_invoke(I,Q,P); Aux = I.
      if (E.Prem0 == Invalid)
        return true;
      return Rm.StaticInvokes.count(
                 tripleKey(E.Aux, K[1], G.factOf(E.Prem0)[0])) != 0;
    }
    return true; // Unknown rule tag: conservatively invalid.
  }

  //===--- State ----------------------------------------------------------===//

  const FactDB &DB;
  ctx::Config Cfg;
  unsigned M, H;
  bool Collapse;
  bool CutMode = false;
  ctx::CutShortcutPlan CutPlan;
  std::size_t CollapsedPts = 0;
  std::unordered_map<std::uint64_t, std::vector<TransformId>> LivePts;
  std::unique_ptr<ctx::Domain> Dom;
  std::shared_ptr<Interner<CtxtVec, ctx::CtxtVecHash>> ReachCtxts;

  // Input indices.
  std::vector<std::vector<std::uint32_t>> AssignFrom;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      LoadByBase, StoreByValue, StoreByBase, ActualByVar, ActualByInvoke,
      VirtByReceiver, StaticByMethod, AssignNewByMethod;
  std::unordered_map<std::uint64_t, std::uint32_t> FormalOf;
  std::vector<std::vector<std::uint32_t>> ReturnByVar, ReturnByMethod,
      AssignRetByInvoke, ThrowByVar, ThrowByMethod, CatchByInvoke,
      GlobalStoreByValue;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      GlobalLoadByGlobal, GlobalLoadByMethod;
  std::vector<std::uint32_t> HeapTypeOf, ThisOf;
  std::unordered_map<std::uint64_t, std::uint32_t> Dispatch;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      CastByFrom;
  std::unordered_set<std::uint64_t> SubtypePairs;

  // Derived relations and their join indices. PtsByVar etc. are sized in
  // the constructor body.
  DerivedRelations Rel;
  std::vector<std::vector<std::pair<std::uint32_t, TransformId>>>
      GptsByGlobal;
  std::vector<std::vector<std::pair<std::uint32_t, TransformId>>> PtsByVar;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, TransformId>>>
      HptsByBaseField, HloadByBaseField;
  std::vector<std::vector<std::pair<std::uint32_t, TransformId>>>
      CallByInvoke, CallByCallee;
  std::vector<std::vector<std::uint32_t>> ReachByMethod;

  std::size_t WorkItems = 0;
  BudgetMeter Meter;

  // First-derivation provenance. Null unless requested — and dropped again
  // (with ProvDropped explaining why) when the run restores a snapshot.
  static constexpr std::uint32_t NoNode = ProvenanceGraph::InvalidNode;
  std::unique_ptr<ProvenanceGraph> Prov;
  std::string ProvDropped;

  // Checkpoint/resume state. The Base* counters carry the cumulative
  // totals of the interrupted run(s) a snapshot was restored from; the
  // meter itself is always fresh per invocation so a resumed run gets
  // its full budget again.
  analysis::CheckpointPolicy Ckpt;
  std::uint64_t Fingerprint = 0, LayoutHash = 0;
  std::uint64_t CkptLastDerivations = 0;
  std::uint64_t BaseDerivations = 0, BaseTuples = 0;
  std::size_t BaseWorkItems = 0;
  std::vector<PtsFact> SubsumedAtInsert;
  std::string CkptError;
  bool Resumed = false;
};

} // namespace

namespace {

Results solveNative(const FactDB &DB, const ctx::Config &Cfg,
                    const SolverOptions &Opts) {
  if (Opts.Resume) {
    Solver S(DB, Cfg, Opts);
    std::string Err = S.tryRestore(*Opts.Resume);
    if (Err.empty())
      return S.run();
    // A snapshot that fails its structural checks must never crash the
    // run: discard the partially restored solver and cold-start.
    SolverOptions ColdOpts = Opts;
    ColdOpts.Resume = nullptr;
    Solver Cold(DB, Cfg, ColdOpts);
    Results R = Cold.run();
    if (R.Stat.CheckpointError.empty())
      R.Stat.CheckpointError = "resume failed: " + Err;
    return R;
  }
  Solver S(DB, Cfg, Opts);
  return S.run();
}

} // namespace

Results analysis::solve(const FactDB &DB, const ctx::Config &Cfg,
                        const SolverOptions &Opts) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  assert(DB.validate().empty() && "invalid fact database");
  if (Cfg.SolveMode == ctx::Mode::Unify) {
    // The union-find core records no Figure-3 derivations and carries no
    // native checkpoint state. When provenance or checkpoint/resume is
    // requested, run the native engine over the symmetrized view instead:
    // the insensitive fixpoint of unifyView(DB) is exactly the unification
    // answer, and the vanilla rules then justify every tuple.
    if (Opts.Provenance.Enabled || Opts.Checkpoint.enabled() || Opts.Resume) {
      facts::FactDB View = unifyView(DB);
      return solveNative(View, Cfg, Opts);
    }
    return solveUnify(DB, Cfg, Opts);
  }
  return solveNative(DB, Cfg, Opts);
}

IncrementalOutcome analysis::resolveIncremental(const FactDB &NewDB,
                                                const ctx::Config &Cfg,
                                                const Results &Prev,
                                                const InputDelta &D,
                                                const IncrementalOptions &Opts) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  assert(NewDB.validate().empty() && "invalid fact database");
  IncrementalOutcome Out;
  SolverOptions SO = Opts.Solver;
  // Provenance feeds the *next* delta's invalidation; checkpoints and
  // resumes belong to the caller's transaction, not to the re-solve (a
  // mid-transaction snapshot write would clobber the previous epoch's
  // certified warm-start image before this result is certified).
  SO.Provenance.Enabled = true;
  SO.Checkpoint = CheckpointPolicy();
  SO.Resume = nullptr;
  {
    Solver S(NewDB, Cfg, SO);
    std::string Why = S.tryIncremental(Prev, D, Opts.MaxDamageRatio,
                                       Out.Invalidated, Out.Survivors);
    if (Why.empty()) {
      Out.R = S.run();
      Out.Incremental = true;
      return Out;
    }
    Out.FallbackReason = Why;
  }
  // Cold re-solve of the edited facts — identical fixpoint, just paid in
  // full. Provenance stays on so the delta after this one can be
  // incremental again. Routed through solve() so the contextless modes
  // take their own paths (unify must run over its symmetrized view).
  Out.R = solve(NewDB, Cfg, SO);
  Out.Incremental = false;
  Out.Invalidated = 0;
  Out.Survivors = 0;
  return Out;
}
