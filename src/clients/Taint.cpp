//===- clients/Taint.cpp - Source->sink taint checker ---------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/Taint.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

using namespace ctp;
using namespace ctp::clients;

namespace {

/// True iff pts_ci(\p Var) holds \p H.
bool varHolds(const analysis::Results &R, facts::Id Var, facts::Id H) {
  return std::ranges::binary_search(R.ptsOf(Var), H);
}

//===----------------------------------------------------------------------===//
// Value-flow graph
//===----------------------------------------------------------------------===//

/// One edge kind per IR statement form that moves a value.
enum class EK : std::uint8_t {
  Assign, ///< Anchor=method
  Cast,   ///< Anchor=method, A=target type
  Store,  ///< Anchor=method, A=field, B=base heap
  Load,   ///< Anchor=method, A=field, B=base heap
  Param,  ///< Anchor=invoke, A=ordinal, B=callee
  Ret,    ///< Anchor=invoke, A=callee
  Catch,  ///< Anchor=invoke, A=callee
  GStore, ///< Anchor=method, A=global
  GLoad,  ///< Anchor=method, A=global
  This,   ///< Anchor=invoke, A=callee
};

struct Edge {
  std::uint32_t To;
  EK K;
  facts::Id Anchor; ///< method or invoke id (see EK)
  facts::Id A = facts::InvalidId;
  facts::Id B = facts::InvalidId;
};

/// The value-flow graph witnesses are found in. Nodes are value carriers:
/// every variable, every (base heap, field) channel the run derived
/// contents for, and every static field. Each edge corresponds to one IR
/// statement (heap-mediated statements fan out per concrete base object),
/// so a path replays as a statement sequence. Edge insertion follows
/// FactDB fact order, making BFS — and hence every witness — a pure
/// function of the fact base and the ci projections.
struct FlowGraph {
  const facts::FactDB &DB;
  const analysis::Results &R;
  std::vector<std::array<std::uint32_t, 2>> Glob; ///< sorted (Global, Heap)
  std::vector<std::pair<facts::Id, facts::Id>> Chans; ///< sorted (B, F)
  std::size_t NV, NC;
  std::vector<std::vector<Edge>> Adj;

  std::uint32_t varNode(facts::Id V) const {
    return static_cast<std::uint32_t>(V);
  }
  /// The node of channel (B, F), or nullopt when the run derived no
  /// contents for it: no heap value can flow through such a channel.
  std::optional<std::uint32_t> chanNode(facts::Id B, facts::Id F) const {
    auto It = std::lower_bound(Chans.begin(), Chans.end(),
                               std::make_pair(B, F));
    if (It == Chans.end() || *It != std::make_pair(B, F))
      return std::nullopt;
    return static_cast<std::uint32_t>(NV + (It - Chans.begin()));
  }
  std::uint32_t globNode(facts::Id G) const {
    return static_cast<std::uint32_t>(NV + NC + G);
  }

  bool holds(std::uint32_t Node, facts::Id H) const {
    if (Node < NV)
      return varHolds(R, Node, H);
    if (Node < NV + NC) {
      const auto &[B, F] = Chans[Node - NV];
      return std::ranges::binary_search(R.hptsOf(B),
                                        analysis::Results::CiTriple{B, F, H});
    }
    return std::binary_search(
        Glob.begin(), Glob.end(),
        std::array<std::uint32_t, 2>{
            static_cast<std::uint32_t>(Node - NV - NC), H});
  }

  FlowGraph(const facts::FactDB &DB, const analysis::Results &R)
      : DB(DB), R(R) {
    for (const auto &G : R.Gpts)
      Glob.push_back({G.Global, G.Heap});
    std::sort(Glob.begin(), Glob.end());
    Glob.erase(std::unique(Glob.begin(), Glob.end()), Glob.end());

    for (const auto &T : R.ciHpts()) // sorted, so Chans is too
      Chans.emplace_back(T[0], T[1]);
    Chans.erase(std::unique(Chans.begin(), Chans.end()), Chans.end());

    NV = DB.numVars();
    NC = Chans.size();
    Adj.resize(NV + NC + DB.numGlobals());

    // Per-method member indexes, in fact order within each method.
    std::vector<std::vector<facts::Id>> FormalsOf(DB.numMethods()),
        ReturnsOf(DB.numMethods()), ThrowsOf(DB.numMethods());
    for (const auto &F : DB.Formals) {
      auto &Slots = FormalsOf[F.Method];
      if (Slots.size() <= F.Ordinal)
        Slots.resize(F.Ordinal + 1, facts::InvalidId);
      Slots[F.Ordinal] = F.Var;
    }
    for (const auto &F : DB.Returns)
      ReturnsOf[F.Method].push_back(F.Var);
    for (const auto &F : DB.Throws)
      ThrowsOf[F.Method].push_back(F.Var);
    std::vector<facts::Id> ThisOf(DB.numMethods(), facts::InvalidId);
    for (const auto &F : DB.ThisVars)
      ThisOf[F.Method] = F.Var;

    for (const auto &F : DB.Assigns)
      Adj[F.From].push_back({varNode(F.To), EK::Assign,
                             DB.VarParent[F.To]});
    for (const auto &F : DB.Casts)
      Adj[F.From].push_back(
          {varNode(F.To), EK::Cast, DB.VarParent[F.To], F.Type});
    for (const auto &F : DB.Stores)
      for (facts::Id HB : R.ptsOf(F.Base))
        if (auto C = chanNode(HB, F.Field))
          Adj[F.From].push_back(
              {*C, EK::Store, DB.VarParent[F.Base], F.Field, HB});
    for (const auto &F : DB.Loads)
      for (facts::Id HB : R.ptsOf(F.Base))
        if (auto C = chanNode(HB, F.Field))
          Adj[*C].push_back(
              {varNode(F.To), EK::Load, DB.VarParent[F.To], F.Field, HB});
    for (const auto &F : DB.Actuals)
      for (facts::Id Q : R.calleesOf(F.Invoke)) {
        const auto &Slots = FormalsOf[Q];
        if (F.Ordinal < Slots.size() && Slots[F.Ordinal] != facts::InvalidId)
          Adj[F.Var].push_back({varNode(Slots[F.Ordinal]), EK::Param,
                                F.Invoke, F.Ordinal, Q});
      }
    for (const auto &F : DB.AssignReturns)
      for (facts::Id Q : R.calleesOf(F.Invoke))
        for (facts::Id RV : ReturnsOf[Q])
          Adj[RV].push_back({varNode(F.To), EK::Ret, F.Invoke, Q});
    for (const auto &F : DB.Catches)
      for (facts::Id Q : R.calleesOf(F.Invoke))
        for (facts::Id TV : ThrowsOf[Q])
          Adj[TV].push_back({varNode(F.To), EK::Catch, F.Invoke, Q});
    for (const auto &F : DB.GlobalStores)
      Adj[F.From].push_back(
          {globNode(F.Global), EK::GStore, DB.VarParent[F.From], F.Global});
    for (const auto &F : DB.GlobalLoads)
      Adj[globNode(F.Global)].push_back(
          {varNode(F.To), EK::GLoad, F.InMethod, F.Global});
    for (const auto &F : DB.VirtualInvokes)
      for (facts::Id Q : R.calleesOf(F.Invoke))
        if (ThisOf[Q] != facts::InvalidId)
          Adj[F.Receiver].push_back(
              {varNode(ThisOf[Q]), EK::This, F.Invoke, Q});
  }

  WitnessStep stepFor(const Edge &E, const SourceMap &SM) const {
    switch (E.K) {
    case EK::Assign:
      return {SM.method(E.Anchor), "value copied by assignment in '" +
                                       DB.MethodNames[E.Anchor] + "'"};
    case EK::Cast:
      return {SM.method(E.Anchor), "value passes checked cast to '" +
                                       DB.TypeNames[E.A] + "' in '" +
                                       DB.MethodNames[E.Anchor] + "'"};
    case EK::Store:
      return {SM.method(E.Anchor), "stored into field '" +
                                       DB.FieldNames[E.A] + "' of object '" +
                                       DB.HeapNames[E.B] + "'"};
    case EK::Load:
      return {SM.method(E.Anchor), "loaded from field '" +
                                       DB.FieldNames[E.A] + "' of object '" +
                                       DB.HeapNames[E.B] + "'"};
    case EK::Param:
      return {SM.invoke(E.Anchor),
              "passed as argument " + std::to_string(E.A) + " at call '" +
                  DB.InvokeNames[E.Anchor] + "' into '" +
                  DB.MethodNames[E.B] + "'"};
    case EK::Ret:
      return {SM.invoke(E.Anchor), "returned from '" + DB.MethodNames[E.A] +
                                       "' at call '" +
                                       DB.InvokeNames[E.Anchor] + "'"};
    case EK::Catch:
      return {SM.invoke(E.Anchor), "thrown from '" + DB.MethodNames[E.A] +
                                       "' and caught at call '" +
                                       DB.InvokeNames[E.Anchor] + "'"};
    case EK::GStore:
      return {SM.method(E.Anchor),
              "stored into static field '" + DB.GlobalNames[E.A] + "'"};
    case EK::GLoad:
      return {SM.method(E.Anchor),
              "loaded from static field '" + DB.GlobalNames[E.A] + "'"};
    case EK::This:
      return {SM.invoke(E.Anchor), "bound as receiver at call '" +
                                       DB.InvokeNames[E.Anchor] +
                                       "' into '" + DB.MethodNames[E.A] +
                                       "'"};
    }
    return {Location{}, ""};
  }

  /// Multi-source shortest path restricted to carriers of \p H. \returns
  /// the edges of the path and sets \p RootOut to the start node reached,
  /// or returns false when no start reaches \p Goal.
  bool shortestPath(facts::Id H, const std::vector<std::uint32_t> &Starts,
                    std::uint32_t Goal, std::vector<Edge> &PathOut,
                    std::uint32_t &RootOut) const {
    constexpr std::uint32_t None = UINT32_MAX;
    std::vector<std::uint32_t> PrevNode(Adj.size(), None);
    std::vector<std::uint32_t> PrevEdge(Adj.size(), None);
    std::vector<std::uint8_t> Seen(Adj.size(), 0);
    std::deque<std::uint32_t> Queue;
    for (std::uint32_t S : Starts)
      if (!Seen[S] && holds(S, H)) {
        Seen[S] = 1;
        Queue.push_back(S);
      }
    std::uint32_t Found = None;
    if (Seen[Goal])
      Found = Goal; // zero-edge path: the goal is itself a start
    while (Found == None && !Queue.empty()) {
      std::uint32_t N = Queue.front();
      Queue.pop_front();
      const auto &Out = Adj[N];
      for (std::uint32_t E = 0; E < Out.size(); ++E) {
        std::uint32_t M = Out[E].To;
        if (Seen[M] || !holds(M, H))
          continue;
        Seen[M] = 1;
        PrevNode[M] = N;
        PrevEdge[M] = E;
        if (M == Goal) {
          Found = M;
          break;
        }
        Queue.push_back(M);
      }
    }
    if (Found == None)
      return false;
    PathOut.clear();
    for (std::uint32_t N = Found; PrevNode[N] != None; N = PrevNode[N])
      PathOut.push_back(Adj[PrevNode[N]][PrevEdge[N]]);
    std::reverse(PathOut.begin(), PathOut.end());
    RootOut = PathOut.empty() ? Goal : [&] {
      std::uint32_t N = Found;
      while (PrevNode[N] != None)
        N = PrevNode[N];
      return N;
    }();
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// computeTaint
//===----------------------------------------------------------------------===//

TaintInfo clients::computeTaint(const facts::FactDB &DB,
                                const analysis::Results &R) {
  TaintInfo Info;
  const std::size_t NH = DB.numHeaps();
  Info.Tainted.assign(NH, 0);
  Info.Sanitized.assign(NH, 0);
  Info.HasAnnotations = !DB.TaintSources.empty() ||
                        !DB.TaintSinks.empty() || !DB.Sanitizers.empty();
  if (!Info.HasAnnotations)
    return Info;

  std::vector<facts::Id> ResultOf(DB.numInvokes(), facts::InvalidId);
  for (const auto &F : DB.AssignReturns)
    ResultOf[F.Invoke] = F.To;

  std::deque<facts::Id> Work;
  auto Mark = [&](facts::Id H) {
    if (H < NH && !Info.Tainted[H]) {
      Info.Tainted[H] = 1;
      Work.push_back(H);
    }
  };

  for (const auto &S : DB.TaintSources) {
    if (S.IsField == 0) {
      if (facts::Id RV = ResultOf[S.Entity]; RV != facts::InvalidId)
        for (facts::Id H : R.ptsOf(RV))
          Mark(H);
    } else {
      // Everything any object's source field holds is tainted.
      for (const auto &T : R.ciHpts())
        if (T[1] == S.Entity)
          Mark(T[2]);
    }
  }

  // Field closure: the contents of a tainted object are tainted (matches
  // the escape checker's treatment; hpts_ci is monotone in precision, so
  // the closure is too).
  while (!Work.empty()) {
    facts::Id H = Work.front();
    Work.pop_front();
    for (const auto &Row : R.hptsOf(H))
      Mark(Row[2]);
  }

  for (const auto &S : DB.Sanitizers)
    if (facts::Id RV = ResultOf[S.Invoke]; RV != facts::InvalidId)
      for (facts::Id H : R.ptsOf(RV))
        Info.Sanitized[H] = 1;
  return Info;
}

//===----------------------------------------------------------------------===//
// checkTaint
//===----------------------------------------------------------------------===//

namespace {

/// Sorted (Var, Heap, T) index over the context-sensitive pts relation,
/// for endpoint context lookups.
using CsIndex = std::vector<std::array<std::uint32_t, 3>>;

CsIndex buildCsIndex(const analysis::Results &R) {
  CsIndex Cs;
  Cs.reserve(R.Pts.size());
  for (const auto &F : R.Pts)
    Cs.push_back({F.Var, F.Heap, F.T});
  std::sort(Cs.begin(), Cs.end());
  return Cs;
}

/// The lexicographically smallest rendering of any context transformation
/// under which \p Var sees \p H. Content-ordered (not id-ordered) so both
/// back-ends — which intern transformations in different orders — pick
/// the same one. \returns "" without a domain or a matching fact.
std::string minCtxStr(const CsIndex &Cs, const analysis::Results &R,
                      facts::Id Var, facts::Id H) {
  if (!R.Dom)
    return "";
  std::string Best;
  std::array<std::uint32_t, 3> Key{Var, H, 0};
  for (auto It = std::lower_bound(Cs.begin(), Cs.end(), Key);
       It != Cs.end() && (*It)[0] == Var && (*It)[1] == H; ++It) {
    std::string S = R.Dom->toString((*It)[2]);
    if (Best.empty() || S < Best)
      Best = std::move(S);
  }
  return Best;
}

std::string withCtx(std::string Note, const std::string &Ctx) {
  if (!Ctx.empty())
    Note += " [ctx " + Ctx + "]";
  return Note;
}

} // namespace

void clients::checkTaint(const facts::FactDB &DB, const analysis::Results &R,
                         const SourceMap &SM, Report &Out,
                         std::map<std::string, TaintEndpoint> *Endpoints) {
  if (DB.TaintSources.empty())
    return;
  TaintInfo Info = computeTaint(DB, R);

  std::vector<facts::Id> ResultOf(DB.numInvokes(), facts::InvalidId);
  for (const auto &F : DB.AssignReturns)
    ResultOf[F.Invoke] = F.To;

  bool AnyHot = false;
  for (std::size_t H = 0; H < Info.Tainted.size() && !AnyHot; ++H)
    AnyHot = Info.isHot(static_cast<facts::Id>(H));

  std::unique_ptr<FlowGraph> G;
  CsIndex Cs;
  if (AnyHot && !DB.TaintSinks.empty()) {
    G = std::make_unique<FlowGraph>(DB, R);
    Cs = buildCsIndex(R);
  }

  /// Witness starts for hot heap \p H: every source-call result holding
  /// H and every source-field channel holding H, each with its intro
  /// step and its source-side variable (the call result, or the stored
  /// value for field sources).
  struct Start {
    std::uint32_t Node;
    WitnessStep Intro;
    facts::Id SourceVar;
  };
  auto StartsFor = [&](facts::Id H) {
    std::vector<Start> Starts;
    for (const auto &S : DB.TaintSources) {
      if (S.IsField == 0) {
        facts::Id RV = ResultOf[S.Entity];
        if (RV != facts::InvalidId && varHolds(R, RV, H))
          Starts.push_back(
              {G->varNode(RV),
               {SM.invoke(S.Entity),
                withCtx("tainted value produced by source call '" +
                            DB.InvokeNames[S.Entity] + "'",
                        minCtxStr(Cs, R, RV, H))},
               RV});
      } else {
        for (const auto &T : R.ciHpts())
          if (T[1] == S.Entity && T[2] == H) {
            WitnessStep Intro{SM.heap(T[0]),
                              "tainted content of source field '" +
                                  DB.FieldNames[S.Entity] + "' of object '" +
                                  DB.HeapNames[T[0]] + "'"};
            facts::Id SrcVar = facts::InvalidId;
            // Prefer anchoring at the store statement that put H there.
            for (const auto &St : DB.Stores)
              if (St.Field == S.Entity && varHolds(R, St.From, H) &&
                  varHolds(R, St.Base, T[0])) {
                Intro = {SM.method(DB.VarParent[St.From]),
                         "tainted by store into source field '" +
                             DB.FieldNames[S.Entity] + "' of object '" +
                             DB.HeapNames[T[0]] + "'"};
                SrcVar = St.From;
                break;
              }
            Starts.push_back({*G->chanNode(T[0], T[1]), std::move(Intro),
                              SrcVar});
          }
      }
    }
    return Starts;
  };

  /// Builds the full witness for hot heap \p H reaching \p GoalVar, with
  /// \p SinkStep appended; \p SrcOut receives the source-side variable of
  /// the start the path was found from. Falls back to [first intro, sink]
  /// when the flow graph holds no path (e.g. flows through statements the
  /// graph does not model).
  auto WitnessFor = [&](facts::Id H, facts::Id GoalVar, WitnessStep SinkStep,
                        facts::Id &SrcOut) {
    std::vector<WitnessStep> W;
    std::vector<Start> Starts = StartsFor(H);
    std::vector<std::uint32_t> Nodes;
    for (const Start &S : Starts)
      Nodes.push_back(S.Node);
    std::vector<Edge> Path;
    std::uint32_t Root = UINT32_MAX;
    SrcOut = Starts.empty() ? facts::InvalidId : Starts.front().SourceVar;
    if (!Starts.empty() &&
        G->shortestPath(H, Nodes, G->varNode(GoalVar), Path, Root)) {
      for (const Start &S : Starts)
        if (S.Node == Root) {
          W.push_back(S.Intro);
          SrcOut = S.SourceVar;
          break;
        }
      for (const Edge &E : Path)
        W.push_back(G->stepFor(E, SM));
    } else if (!Starts.empty()) {
      W.push_back(Starts.front().Intro);
    }
    W.push_back(std::move(SinkStep));
    return W;
  };

  std::set<facts::Id> Sunk;
  std::set<std::pair<std::string, facts::Id>> Emitted; // (stable key, heap)

  auto Emit = [&](const std::string &Key, facts::Id H, const Location &Loc,
                  const std::string &Message, facts::Id GoalVar,
                  WitnessStep SinkStep) {
    if (!Emitted.insert({Key, H}).second)
      return;
    Sunk.insert(H);
    facts::Id SrcVar = facts::InvalidId;
    Out.add("taint.flow", Severity::Warning, Loc, Message, Key,
            WitnessFor(H, GoalVar, std::move(SinkStep), SrcVar));
    if (Endpoints)
      (*Endpoints)[stableFindingId("taint.flow", Key)] = {GoalVar, SrcVar, H};
  };

  for (const auto &Snk : DB.TaintSinks) {
    if (Snk.IsField == 0) {
      const facts::Id I = Snk.Entity;
      for (const auto &A : DB.Actuals) {
        if (A.Invoke != I)
          continue;
        for (facts::Id H : R.ptsOf(A.Var)) {
          if (!Info.isHot(H))
            continue;
          Emit(DB.InvokeNames[I] + "<-" + DB.HeapNames[H], H, SM.invoke(I),
               "tainted object '" + DB.HeapNames[H] +
                   "' reaches sink call '" + DB.InvokeNames[I] + "'",
               A.Var,
               {SM.invoke(I),
                withCtx("reaches sink call '" + DB.InvokeNames[I] + "'",
                        minCtxStr(Cs, R, A.Var, H))});
        }
      }
    } else {
      const facts::Id F = Snk.Entity;
      for (const auto &St : DB.Stores) {
        if (St.Field != F)
          continue;
        for (facts::Id H : R.ptsOf(St.From)) {
          if (!Info.isHot(H))
            continue;
          Location Loc = SM.method(DB.VarParent[St.Base]);
          Emit(DB.FieldNames[F] + "<-" + DB.HeapNames[H], H, Loc,
               "tainted object '" + DB.HeapNames[H] +
                   "' is stored into sink field '" + DB.FieldNames[F] + "'",
               St.From,
               {Loc, withCtx("stored into sink field '" + DB.FieldNames[F] +
                                 "'",
                             minCtxStr(Cs, R, St.From, H))});
        }
      }
    }
  }

  // Dead sources: a source none of whose values ever reaches a sink. Note
  // severity — under a finer configuration more sources go dead (fewer
  // flows), the mirror image of the warning subset property.
  for (const auto &S : DB.TaintSources) {
    bool Live = false;
    if (S.IsField == 0) {
      facts::Id RV = ResultOf[S.Entity];
      if (RV != facts::InvalidId)
        for (facts::Id H : R.ptsOf(RV))
          Live |= Sunk.count(H) > 0;
      if (!Live)
        Out.add("taint.dead-source", Severity::Note, SM.invoke(S.Entity),
                "source call '" + DB.InvokeNames[S.Entity] +
                    "' produces no value that reaches a sink",
                DB.InvokeNames[S.Entity]);
    } else {
      Location Loc{"ctp/<unknown>.java", 1};
      for (const auto &St : DB.Stores)
        if (St.Field == S.Entity) {
          Loc = SM.method(DB.VarParent[St.Base]);
          break;
        }
      for (const auto &T : R.ciHpts())
        if (T[1] == S.Entity && Sunk.count(T[2]))
          Live = true;
      if (!Live)
        Out.add("taint.dead-source", Severity::Note, Loc,
                "source field '" + DB.FieldNames[S.Entity] +
                    "' holds no value that reaches a sink",
                "field:" + DB.FieldNames[S.Entity]);
    }
  }
}
