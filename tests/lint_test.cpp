//===- tests/lint_test.cpp - Checker-suite and diagnostics tests ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Covers the points-to-powered checker suite: escape analysis, the
// race-candidate detector, cast safety, the shared diagnostics layer
// (stable ids, deterministic ordering, SARIF rendering), and the headline
// soundness property — warning sets shrink monotonically as context
// precision increases, verified against BOTH solver back-ends.
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "clients/CastSafety.h"
#include "clients/Diagnostics.h"
#include "clients/Escape.h"
#include "clients/RaceCandidates.h"
#include "clients/Taint.h"
#include "facts/Extract.h"
#include "ir/Builder.h"
#include "ctx/Config.h"
#include "support/ExitCodes.h"
#include "support/Suggest.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;

namespace {

analysis::Results solveBoth(const facts::FactDB &DB, const ctx::Config &Cfg,
                            bool UseDatalog) {
  if (UseDatalog)
    return analysis::solveViaDatalog(DB, Cfg);
  return analysis::solve(DB, Cfg);
}

/// Runs the full checker suite and returns the finalized report.
clients::Report lintAll(const facts::FactDB &DB, const analysis::Results &R) {
  clients::SourceMap SM(DB);
  clients::Report Rep;
  clients::checkEscape(DB, R, SM, Rep);
  clients::checkRaces(DB, R, SM, Rep);
  clients::checkCastSafety(DB, R, SM, Rep);
  clients::checkTaint(DB, R, SM, Rep);
  Rep.finalize();
  return Rep;
}

//===----------------------------------------------------------------------===//
// Escape analysis
//===----------------------------------------------------------------------===//

TEST(EscapeTest, ClassifiesGlobalReturnAndThreadEscapes) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Data = B.addClass("Data", Obj);
  TypeId Worker = B.addClass("Worker", Obj);
  FieldId Held = B.addField("held");
  GlobalId Cache = B.addGlobal("cache");

  // Worker.run(p) captures its argument into a field.
  MethodId Run = B.addMethod(Worker, "run", 1);
  B.addStore(Run, B.thisVar(Run), Held, B.formal(Run, 0));
  SigId RunSig = B.signature("run", 1);

  // factory() returns a fresh object.
  MethodId Factory = B.addStaticMethod(Obj, "factory", 0);
  VarId F = B.addLocal(Factory, "f");
  B.addNew(Factory, F, Data, "h_returned");
  B.addReturn(Factory, F);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  // h_global is published through a static.
  VarId G = B.addLocal(Main, "g");
  B.addNew(Main, G, Data, "h_global");
  B.addGlobalStore(Main, Cache, G);
  // h_arg crosses a thread boundary; the worker object does too.
  VarId A = B.addLocal(Main, "a");
  B.addNew(Main, A, Data, "h_arg");
  VarId W = B.addLocal(Main, "w");
  B.addNew(Main, W, Worker, "h_worker");
  B.addSpawnCall(Main, W, RunSig, {A}, "spawn0");
  // h_local never leaves main.
  VarId L = B.addLocal(Main, "l");
  B.addNew(Main, L, Data, "h_local");
  VarId R = B.addLocal(Main, "r");
  B.addStaticCall(Main, Factory, {}, R, "call_factory");

  facts::FactDB DB = facts::extract(B.take());
  analysis::Results Res =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  clients::EscapeInfo Info = clients::computeEscape(DB, Res);

  std::map<std::string, facts::Id> Heap;
  for (facts::Id H = 0; H < DB.numHeaps(); ++H)
    Heap[DB.HeapNames[H]] = H;

  EXPECT_EQ(Info.Mask[Heap["h_global"]], clients::GlobalEscape);
  EXPECT_EQ(Info.Mask[Heap["h_returned"]], clients::ReturnEscape);
  EXPECT_EQ(Info.Mask[Heap["h_arg"]], clients::ThreadEscape);
  EXPECT_EQ(Info.Mask[Heap["h_worker"]], clients::ThreadEscape);
  EXPECT_EQ(Info.Mask[Heap["h_local"]], clients::NoEscape);
  // The program spawns, so global-escaping objects are thread-shared too.
  EXPECT_TRUE(Info.HasSpawns);
  EXPECT_TRUE(Info.ThreadShared[Heap["h_global"]]);
  EXPECT_TRUE(Info.ThreadShared[Heap["h_arg"]]);
  EXPECT_FALSE(Info.ThreadShared[Heap["h_local"]]);
  EXPECT_FALSE(Info.ThreadShared[Heap["h_returned"]]);
}

TEST(EscapeTest, EscapePropagatesThroughFieldsOfEscapingObjects) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Box = B.addClass("Box", Obj);
  TypeId Data = B.addClass("Data", Obj);
  FieldId Item = B.addField("item");
  GlobalId Pub = B.addGlobal("pub");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Bx = B.addLocal(Main, "bx");
  B.addNew(Main, Bx, Box, "h_box");
  VarId In = B.addLocal(Main, "in");
  B.addNew(Main, In, Data, "h_inner");
  B.addStore(Main, Bx, Item, In);  // h_box.item = h_inner
  B.addGlobalStore(Main, Pub, Bx); // then the box escapes

  facts::FactDB DB = facts::extract(B.take());
  analysis::Results Res =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  clients::EscapeInfo Info = clients::computeEscape(DB, Res);
  std::map<std::string, facts::Id> Heap;
  for (facts::Id H = 0; H < DB.numHeaps(); ++H)
    Heap[DB.HeapNames[H]] = H;
  // Stored into an escaping container => escapes with it.
  EXPECT_EQ(Info.Mask[Heap["h_inner"]], clients::GlobalEscape);
  // No spawn anywhere: nothing is thread-shared.
  EXPECT_FALSE(Info.HasSpawns);
  EXPECT_FALSE(Info.ThreadShared[Heap["h_inner"]]);
}

//===----------------------------------------------------------------------===//
// Race candidates
//===----------------------------------------------------------------------===//

/// Driver writes and reads field 'val' of an object it also hands to a
/// spawned worker that writes the same field: a genuine candidate pair.
ir::Program raceProgram(bool WithSpawn) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Data = B.addClass("Data", Obj);
  TypeId Worker = B.addClass("Worker", Obj);
  FieldId Val = B.addField("val");
  MethodId Run = B.addMethod(Worker, "run", 1);
  VarId P = B.formal(Run, 0);
  VarId Fresh = B.addLocal(Run, "fresh");
  B.addNew(Run, Fresh, Data, "h_fresh");
  B.addStore(Run, P, Val, Fresh); // write on the worker thread
  SigId RunSig = B.signature("run", 1);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId S = B.addLocal(Main, "s");
  B.addNew(Main, S, Data, "h_shared");
  VarId W = B.addLocal(Main, "w");
  B.addNew(Main, W, Worker, "h_worker");
  if (WithSpawn)
    B.addSpawnCall(Main, W, RunSig, {S}, "spawn0");
  else
    B.addVirtualCall(Main, W, RunSig, {S}, InvalidId, "call0");
  VarId Seen = B.addLocal(Main, "seen");
  B.addLoad(Main, Seen, S, Val); // read on the main thread
  return B.take();
}

TEST(RaceTest, SpawnedWriterRacesWithMainThreadReader) {
  facts::FactDB DB = facts::extract(raceProgram(/*WithSpawn=*/true));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  clients::RaceSummary S = clients::findRaceCandidates(DB, R);
  EXPECT_EQ(S.ThreadEntries, 1u);
  EXPECT_GE(S.ConcurrentMethods, 1u);
  ASSERT_EQ(S.Candidates.size(), 1u);
  const clients::RaceCandidate &C = S.Candidates[0];
  EXPECT_EQ(DB.FieldNames[C.Field], "val");
  EXPECT_EQ(DB.HeapNames[C.Heap], "h_shared");
  EXPECT_EQ(DB.MethodNames[C.WriteMethod], "Worker.run");
  EXPECT_FALSE(C.OtherIsWrite); // paired with main's read
}

TEST(RaceTest, NoSpawnMeansNoCandidates) {
  // Same data flow through an ordinary virtual call: single-threaded,
  // so the same write/read pair is not a race.
  facts::FactDB DB = facts::extract(raceProgram(/*WithSpawn=*/false));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  clients::RaceSummary S = clients::findRaceCandidates(DB, R);
  EXPECT_EQ(S.ThreadEntries, 0u);
  EXPECT_TRUE(S.Candidates.empty());
}

TEST(RaceTest, ThreadLocalObjectsArePruned) {
  // The worker's own fresh allocation never crosses a thread boundary;
  // stores to ITS fields must not be reported even though the method is
  // concurrent.
  facts::FactDB DB = facts::extract(raceProgram(/*WithSpawn=*/true));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  clients::RaceSummary S = clients::findRaceCandidates(DB, R);
  for (const clients::RaceCandidate &C : S.Candidates)
    EXPECT_NE(DB.HeapNames[C.Heap], "h_fresh");
}

//===----------------------------------------------------------------------===//
// Cast safety
//===----------------------------------------------------------------------===//

TEST(CastSafetyTest, ProvesSafeFlagsUnsafeNotesUnreachable) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Base = B.addClass("Base", Obj);
  TypeId Sub = B.addClass("Sub", Base);
  TypeId Other = B.addClass("Other", Obj);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  // Safe: only Sub objects flow into a (Sub) cast.
  VarId A = B.addLocal(Main, "a");
  B.addNew(Main, A, Sub, "h_sub");
  VarId A2 = B.addLocal(Main, "a2");
  B.addCast(Main, A2, Sub, A);
  // Unsafe: an Other object flows into a (Base) cast.
  VarId C = B.addLocal(Main, "c");
  B.addNew(Main, C, Other, "h_other");
  VarId Mix = B.addLocal(Main, "mix");
  B.addAssign(Main, Mix, A);
  B.addAssign(Main, Mix, C);
  VarId M2 = B.addLocal(Main, "m2");
  B.addCast(Main, M2, Base, Mix);
  // Unreachable: the casting method is never called.
  MethodId Dead = B.addStaticMethod(Obj, "dead", 1);
  VarId D2 = B.addLocal(Dead, "d2");
  B.addCast(Dead, D2, Sub, B.formal(Dead, 0));

  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  clients::CastSummary S = clients::checkCasts(DB, R);
  EXPECT_EQ(S.Safe, 1u);
  EXPECT_EQ(S.Unsafe, 1u);
  EXPECT_EQ(S.Unreachable, 1u);
  ASSERT_EQ(S.PerCast.size(), 3u);
  const clients::CastResult &Bad = S.PerCast[1];
  EXPECT_EQ(Bad.Verdict, clients::CastVerdict::Unsafe);
  EXPECT_EQ(Bad.NumPointees, 2u);
  EXPECT_EQ(Bad.NumIllTyped, 1u);
  EXPECT_EQ(DB.HeapNames[Bad.WitnessHeap], "h_other");
}

//===----------------------------------------------------------------------===//
// Taint checker
//===----------------------------------------------------------------------===//

/// One secret flows straight into a sink, one is laundered through a
/// fresh-copy sanitizer first, and a third source's value never reaches
/// any sink.
TEST(TaintTest, DirectFlowWarnsSanitizedFlowIsQuietDeadSourceNoted) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Secret = B.addClass("Secret", Obj);
  MethodId Read = B.addStaticMethod(Obj, "read", 0);
  VarId RV = B.addLocal(Read, "rv");
  B.addNew(Read, RV, Secret, "h_secret");
  B.addReturn(Read, RV);
  MethodId Clean = B.addStaticMethod(Obj, "clean", 1);
  VarId CV = B.addLocal(Clean, "cv");
  B.addNew(Clean, CV, Secret, "h_copy");
  B.addReturn(Clean, CV);
  MethodId Probe = B.addStaticMethod(Obj, "probe", 0);
  VarId PV = B.addLocal(Probe, "pv");
  B.addNew(Probe, PV, Secret, "h_unused");
  B.addReturn(Probe, PV);
  MethodId Consume = B.addStaticMethod(Obj, "consume", 1);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId T = B.addLocal(Main, "t");
  InvokeId SrcDirect = B.addStaticCall(Main, Read, {}, T, "src_direct");
  B.setInvokeTaint(SrcDirect, TaintAnnot::Source);
  InvokeId SinkHot = B.addStaticCall(Main, Consume, {T}, InvalidId, "sink_hot");
  B.setInvokeTaint(SinkHot, TaintAnnot::Sink);
  VarId S = B.addLocal(Main, "s");
  InvokeId SrcSanit = B.addStaticCall(Main, Read, {}, S, "src_sanitized");
  B.setInvokeTaint(SrcSanit, TaintAnnot::Source);
  VarId C = B.addLocal(Main, "c");
  InvokeId Cleanse = B.addStaticCall(Main, Clean, {S}, C, "cleanse");
  B.setInvokeTaint(Cleanse, TaintAnnot::Sanitizer);
  InvokeId SinkCold =
      B.addStaticCall(Main, Consume, {C}, InvalidId, "sink_cold");
  B.setInvokeTaint(SinkCold, TaintAnnot::Sink);
  VarId D = B.addLocal(Main, "d");
  InvokeId SrcDead = B.addStaticCall(Main, Probe, {}, D, "src_dead");
  B.setInvokeTaint(SrcDead, TaintAnnot::Source);

  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::insensitive(Abstraction::TransformerString));
  clients::SourceMap SM(DB);
  clients::Report Rep;
  std::map<std::string, clients::TaintEndpoint> EPs;
  clients::checkTaint(DB, R, SM, Rep, &EPs);
  Rep.finalize();

  std::vector<const clients::Finding *> Flows, Dead;
  for (const clients::Finding &F : Rep.findings()) {
    if (F.RuleId == "taint.flow")
      Flows.push_back(&F);
    else if (F.RuleId == "taint.dead-source")
      Dead.push_back(&F);
  }
  // Exactly the direct flow warns; the laundered copy h_copy is clean.
  ASSERT_EQ(Flows.size(), 1u);
  EXPECT_NE(Flows[0]->Message.find("'h_secret'"), std::string::npos);
  EXPECT_NE(Flows[0]->Message.find("'sink_hot'"), std::string::npos);
  ASSERT_GE(Flows[0]->Witness.size(), 2u);
  EXPECT_NE(Flows[0]->Witness.front().Note.find("source call"),
            std::string::npos);
  EXPECT_NE(Flows[0]->Witness.back().Note.find("sink call"),
            std::string::npos);
  // The endpoint side-table names main's 't' on both ends (the sink
  // actual is itself the source call's result).
  ASSERT_EQ(EPs.count(Flows[0]->Id), 1u);
  const clients::TaintEndpoint &EP = EPs.at(Flows[0]->Id);
  EXPECT_EQ(DB.VarNames[EP.SinkVar], "Object.main/t");
  EXPECT_EQ(DB.VarNames[EP.SourceVar], "Object.main/t");
  EXPECT_EQ(DB.HeapNames[EP.Heap], "h_secret");
  // Only probe's value reaches no sink; the laundered source still fed
  // h_secret, which DID reach a sink elsewhere.
  ASSERT_EQ(Dead.size(), 1u);
  EXPECT_NE(Dead[0]->Message.find("'src_dead'"), std::string::npos);
}

/// A load can name a (base heap, field) channel the run derived no
/// contents for: here t = o.f0 reads a field no store ever wrote, while
/// the neighbouring channel h_box.f1 holds the secret. Such a load must
/// add no flow edge. Resolved to the neighbour instead, it would make the
/// shortest witness src -> h_box.f1 -> t, "loaded from field 'f0'", in
/// place of the real assignment chain.
TEST(TaintWitnessTest, LoadOfUnstoredChannelCrossesNoOtherChannel) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Secret = B.addClass("Secret", Obj);
  TypeId Box = B.addClass("Box", Obj);
  FieldId F0 = B.addField("f0");
  FieldId F1 = B.addField("f1");
  MethodId Read = B.addStaticMethod(Obj, "read", 0);
  VarId RV = B.addLocal(Read, "rv");
  B.addNew(Read, RV, Secret, "h_secret");
  B.addReturn(Read, RV);
  MethodId Consume = B.addStaticMethod(Obj, "consume", 1);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Src = B.addLocal(Main, "src");
  B.setInvokeTaint(B.addStaticCall(Main, Read, {}, Src, "source"),
                   TaintAnnot::Source);
  VarId O = B.addLocal(Main, "o");
  B.addNew(Main, O, Box, "h_box");
  B.addStore(Main, O, F1, Src);
  VarId T = B.addLocal(Main, "t");
  B.addLoad(Main, T, O, F0);
  // t's real taint arrives through a four-step assignment chain.
  VarId Prev = Src;
  for (const char *Name : {"a", "b", "c"}) {
    VarId V = B.addLocal(Main, Name);
    B.addAssign(Main, V, Prev);
    Prev = V;
  }
  B.addAssign(Main, T, Prev);
  B.setInvokeTaint(B.addStaticCall(Main, Consume, {T}, InvalidId, "sink"),
                   TaintAnnot::Sink);

  facts::FactDB DB = facts::extract(B.take());
  ASSERT_LT(F0, F1) << "h_box.f1 must sort right after the absent h_box.f0";
  analysis::Results R =
      analysis::solve(DB, ctx::insensitive(Abstraction::TransformerString));
  clients::SourceMap SM(DB);
  clients::Report Rep;
  clients::checkTaint(DB, R, SM, Rep);
  Rep.finalize();

  std::vector<const clients::Finding *> Flows;
  for (const clients::Finding &F : Rep.findings())
    if (F.RuleId == "taint.flow")
      Flows.push_back(&F);
  ASSERT_EQ(Flows.size(), 1u);
  std::size_t Copies = 0;
  for (const clients::WitnessStep &S : Flows[0]->Witness) {
    EXPECT_EQ(S.Note.find("field"), std::string::npos) << S.Note;
    Copies += S.Note.find("copied by assignment") != std::string::npos;
  }
  EXPECT_EQ(Copies, 4u);
}

/// The headline taint property on real workloads: 2-object+H taint.flow
/// warnings are a strict subset of the insensitive ones, per preset, per
/// back-end.
class TaintSubset
    : public ::testing::TestWithParam<std::tuple<const char *, bool>> {};

TEST_P(TaintSubset, TwoObjectTaintWarningsAreStrictSubsetOfInsensitive) {
  const char *Preset = std::get<0>(GetParam());
  const bool UseDatalog = std::get<1>(GetParam());
  facts::FactDB DB = facts::extract(workload::generatePreset(Preset));
  auto Ids = [&](const ctx::Config &Cfg) {
    analysis::Results R = solveBoth(DB, Cfg, UseDatalog);
    clients::Report Rep = lintAll(DB, R);
    std::set<std::string> Out;
    for (const clients::Finding &F : Rep.findings())
      if (F.RuleId == "taint.flow")
        Out.insert(F.Id);
    return Out;
  };
  std::set<std::string> Coarse =
      Ids(ctx::insensitive(Abstraction::TransformerString));
  std::set<std::string> Fine =
      Ids(ctx::twoObjectH(Abstraction::TransformerString));
  EXPECT_FALSE(Fine.empty());
  for (const std::string &Id : Fine)
    EXPECT_TRUE(Coarse.count(Id)) << "taint.flow " << Id
                                  << " appears only at 2-object+H";
  // Context sensitivity genuinely prunes container false positives here.
  EXPECT_LT(Fine.size(), Coarse.size());
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndEngines, TaintSubset,
    ::testing::Combine(::testing::Values("luindex", "pmd"),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<std::tuple<const char *, bool>> &Info) {
      return std::string(std::get<0>(Info.param)) +
             (std::get<1>(Info.param) ? "_Datalog" : "_Specialized");
    });

/// Witness replay: every step of every taint.flow witness anchors a ctp/
/// pseudo-file and names only entities that exist in the fact base, both
/// endpoints' variables really point to the tainted heap, and their
/// context transformations compose — there is a pair (Ts, Tk) with
/// pts(Source, H, Ts), pts(Sink, H, Tk) and comp(inv(Ts), Tk) defined,
/// i.e. one concrete execution context reaches both ends.
TEST(TaintWitnessTest, StepsNameRealEntitiesAndEndpointContextsCompose) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  clients::SourceMap SM(DB);
  clients::Report Rep;
  std::map<std::string, clients::TaintEndpoint> EPs;
  clients::checkTaint(DB, R, SM, Rep, &EPs);
  Rep.finalize();

  std::set<std::string> Known;
  for (const auto *Names :
       {&DB.VarNames, &DB.HeapNames, &DB.MethodNames, &DB.InvokeNames,
        &DB.FieldNames, &DB.GlobalNames})
    Known.insert(Names->begin(), Names->end());
  // Names quoted in a step's prose, with any trailing "[ctx ...]"
  // annotation stripped first (it prints context elements, not entities).
  auto QuotedNames = [](std::string Note) {
    std::size_t Ctx = Note.find(" [ctx ");
    if (Ctx != std::string::npos)
      Note.resize(Ctx);
    std::vector<std::string> Out;
    for (std::size_t P = Note.find('\''); P != std::string::npos;) {
      std::size_t E = Note.find('\'', P + 1);
      if (E == std::string::npos)
        break;
      Out.push_back(Note.substr(P + 1, E - P - 1));
      P = Note.find('\'', E + 1);
    }
    return Out;
  };

  const auto Pts = R.ciPts();
  auto Holds = [&](facts::Id V, facts::Id H) {
    return std::binary_search(Pts.begin(), Pts.end(),
                              std::array<std::uint32_t, 2>{V, H});
  };

  std::size_t Flows = 0;
  for (const clients::Finding &F : Rep.findings()) {
    if (F.RuleId != "taint.flow")
      continue;
    ++Flows;
    ASSERT_GE(F.Witness.size(), 2u);
    for (const clients::WitnessStep &S : F.Witness) {
      EXPECT_EQ(S.Loc.Uri.rfind("ctp/", 0), 0u) << S.Loc.Uri;
      EXPECT_GE(S.Loc.Line, 1u);
      for (const std::string &Name : QuotedNames(S.Note))
        EXPECT_TRUE(Known.count(Name))
            << "witness step names unknown entity '" << Name
            << "' in: " << S.Note;
    }
    ASSERT_EQ(EPs.count(F.Id), 1u) << F.Id;
    const clients::TaintEndpoint &EP = EPs.at(F.Id);
    ASSERT_NE(EP.SinkVar, facts::InvalidId);
    ASSERT_NE(EP.SourceVar, facts::InvalidId);
    ASSERT_NE(EP.Heap, facts::InvalidId);
    EXPECT_TRUE(Holds(EP.SinkVar, EP.Heap));
    EXPECT_TRUE(Holds(EP.SourceVar, EP.Heap));
    std::vector<ctx::TransformId> Ts, Tk;
    for (const analysis::PtsFact &P : R.Pts) {
      if (P.Heap != EP.Heap)
        continue;
      if (P.Var == EP.SourceVar)
        Ts.push_back(P.T);
      if (P.Var == EP.SinkVar)
        Tk.push_back(P.T);
    }
    bool Composes = false;
    for (ctx::TransformId A : Ts)
      for (ctx::TransformId Bt : Tk)
        if (R.Dom->comp(R.Dom->inv(A), Bt, ctx::MaxCtxtDepth,
                        ctx::MaxCtxtDepth)) {
          Composes = true;
          break;
        }
    EXPECT_TRUE(Composes) << "endpoint contexts never compose for " << F.Id;
  }
  EXPECT_GT(Flows, 0u);
}

//===----------------------------------------------------------------------===//
// Diagnostics layer
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, FindingsSortDedupeAndKeepStableIds) {
  clients::Report Rep;
  clients::Location L1{"ctp/B.java", 3}, L2{"ctp/A.java", 7};
  Rep.add("zz.rule", clients::Severity::Warning, L1, "later rule", "k1");
  Rep.add("aa.rule", clients::Severity::Note, L2, "earlier rule", "k2");
  Rep.add("zz.rule", clients::Severity::Warning, L1, "later rule", "k1");
  Rep.finalize();
  ASSERT_EQ(Rep.findings().size(), 2u); // exact duplicate dropped
  EXPECT_EQ(Rep.findings()[0].RuleId, "aa.rule");
  EXPECT_EQ(Rep.findings()[1].RuleId, "zz.rule");
  EXPECT_EQ(Rep.findings()[0].Id.size(), 16u);
  // Same (rule, key) => same id; different key => different id.
  clients::Report Rep2;
  Rep2.add("zz.rule", clients::Severity::Warning, L2, "moved", "k1");
  Rep2.add("zz.rule", clients::Severity::Warning, L1, "later rule", "k9");
  Rep2.finalize();
  EXPECT_EQ(Rep2.findings()[0].Id, Rep.findings()[1].Id);
  EXPECT_NE(Rep2.findings()[1].Id, Rep.findings()[1].Id);
  EXPECT_EQ(Rep.countAtLeast(clients::Severity::Warning), 1u);
}

TEST(DiagnosticsTest, SarifIsByteDeterministicAcrossIndependentRuns) {
  auto Render = [] {
    facts::FactDB DB = facts::extract(workload::generatePreset("pmd"));
    analysis::Results R =
        analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
    return lintAll(DB, R).renderSarif("ctp-lint", "1.0.0");
  };
  std::string S1 = Render(), S2 = Render();
  EXPECT_FALSE(S1.empty());
  EXPECT_EQ(S1, S2); // full pipeline twice, byte-identical
}

TEST(DiagnosticsTest, SarifStructureIsWellFormed) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  clients::Report Rep = lintAll(DB, R);
  std::string S = Rep.renderSarif("ctp-lint", "1.0.0");
  EXPECT_NE(S.find("\"$schema\": "
                   "\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(S.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(S.find("\"name\": \"ctp-lint\""), std::string::npos);
  // Every rule the suite can emit is declared in the rule table.
  for (const clients::RuleInfo &RI : clients::allRules())
    EXPECT_NE(S.find("\"id\": \"" + std::string(RI.Id) + "\""),
              std::string::npos)
        << RI.Id;
  // One "ruleId" entry per finding.
  std::size_t Count = 0;
  for (std::size_t Pos = S.find("\"ruleId\""); Pos != std::string::npos;
       Pos = S.find("\"ruleId\"", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, Rep.findings().size());
  EXPECT_GT(Count, 0u);
}

TEST(DiagnosticsTest, SarifCodeFlowsAreStructurallyValidForEveryChecker) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      analysis::solve(DB, ctx::insensitive(Abstraction::TransformerString));
  clients::Report Rep = lintAll(DB, R);
  std::string S = Rep.renderSarif("ctp-lint", "1.0.0");

  // Every checker family contributed findings, so the codeFlow checks
  // below exercise all of them.
  for (const char *Family : {"escape.", "race.", "cast.", "taint."}) {
    bool Fired = false;
    for (const clients::Finding &F : Rep.findings())
      Fired = Fired || F.RuleId.rfind(Family, 0) == 0;
    EXPECT_TRUE(Fired) << Family;
  }

  auto Count = [&](const std::string &Key) {
    std::size_t N = 0;
    for (std::size_t P = S.find(Key); P != std::string::npos;
         P = S.find(Key, P + 1))
      ++N;
    return N;
  };
  // Exactly one codeFlow holding one threadFlow per result, and every
  // result keeps its fingerprints.
  EXPECT_EQ(Count("\"codeFlows\""), Rep.findings().size());
  EXPECT_EQ(Count("\"threadFlows\""), Rep.findings().size());
  EXPECT_EQ(Count("\"partialFingerprints\""), Rep.findings().size());
  // One threadFlowLocation per witness step across the whole report.
  std::size_t Steps = 0;
  for (const clients::Finding &F : Rep.findings())
    Steps += F.Witness.size();
  EXPECT_EQ(Count("\"executionOrder\""), Steps);

  // Within each threadFlow, executionOrder counts 0, 1, 2, ...
  long Expected = 0;
  for (std::size_t P = 0;;) {
    std::size_t TF = S.find("\"threadFlows\"", P);
    std::size_t EO = S.find("\"executionOrder\": ", P);
    if (EO == std::string::npos)
      break;
    if (TF != std::string::npos && TF < EO) {
      Expected = 0;
      P = TF + 1;
      continue;
    }
    long Got = std::stol(S.substr(EO + 18));
    EXPECT_EQ(Got, Expected) << "at offset " << EO;
    ++Expected;
    P = EO + 1;
  }

  // Every artifact URI is one of the ctp/ pseudo-files.
  for (std::size_t P = S.find("\"uri\": \""); P != std::string::npos;
       P = S.find("\"uri\": \"", P + 1)) {
    std::size_t V = P + 8;
    std::size_t E = S.find('"', V);
    ASSERT_NE(E, std::string::npos);
    std::string Uri = S.substr(V, E - V);
    EXPECT_EQ(Uri.rfind("ctp/", 0), 0u) << Uri;
    EXPECT_EQ(Uri.rfind(".java"), Uri.size() - 5) << Uri;
  }
}

TEST(DiagnosticsTest, SarifIsByteIdenticalAcrossBackEnds) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  auto Render = [&](bool UseDatalog) {
    analysis::Results R = solveBoth(
        DB, ctx::twoObjectH(Abstraction::TransformerString), UseDatalog);
    return lintAll(DB, R).renderSarif("ctp-lint", "1.0.0");
  };
  std::string Native = Render(false), Datalog = Render(true);
  EXPECT_FALSE(Native.empty());
  // Same fixpoint, same projections, same witness rendering: the two
  // back-ends must agree to the byte.
  EXPECT_EQ(Native, Datalog);
}

TEST(DiagnosticsTest, ExplainRoundTripsEveryFindingId) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  clients::Report Rep = lintAll(DB, R);
  EXPECT_FALSE(Rep.findings().empty());
  for (const clients::Finding &F : Rep.findings()) {
    ASSERT_EQ(Rep.findById(F.Id), &F);
    std::string E = Rep.renderExplain(F.Id);
    ASSERT_FALSE(E.empty()) << F.Id;
    EXPECT_NE(E.find(F.RuleId), std::string::npos) << F.Id;
    EXPECT_NE(E.find("witness ("), std::string::npos) << F.Id;
  }
  EXPECT_TRUE(Rep.renderExplain("0000000000000000").empty());
}

//===----------------------------------------------------------------------===//
// Exit-code protocol
//===----------------------------------------------------------------------===//

TEST(ExitCodeTest, DegradedTakesPrecedenceOverWarnings) {
  EXPECT_EQ(lintExitCode(false, false), ExitOk);
  EXPECT_EQ(lintExitCode(false, true), ExitFindings);
  EXPECT_EQ(lintExitCode(true, false), ExitDegraded);
  // The contested case: a degraded run with warnings reports 3, not 4 —
  // its findings may be incomplete, so "re-run me" is the signal.
  EXPECT_EQ(lintExitCode(true, true), ExitDegraded);
}

//===----------------------------------------------------------------------===//
// The headline property: warning sets shrink as precision rises, on both
// solver back-ends. (Note-severity findings are exempt: cast.unreachable
// GROWS with precision by design — refuting all pointees of a cast makes
// it unreachable.)
//===----------------------------------------------------------------------===//

class SubsetProperty : public ::testing::TestWithParam<bool> {};

TEST_P(SubsetProperty, TwoObjectWarningsAreSubsetOfInsensitive) {
  const bool UseDatalog = GetParam();
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results Coarse = solveBoth(
      DB, ctx::insensitive(Abstraction::TransformerString), UseDatalog);
  analysis::Results Fine = solveBoth(
      DB, ctx::twoObjectH(Abstraction::TransformerString), UseDatalog);

  // Key findings by (rule, stable id): location-independent identity.
  auto Warnings = [](const clients::Report &Rep) {
    std::map<std::string, std::set<std::string>> PerRule;
    for (const clients::Finding &F : Rep.findings())
      if (F.Sev >= clients::Severity::Warning)
        PerRule[F.RuleId].insert(F.Id);
    return PerRule;
  };
  auto CoarseW = Warnings(lintAll(DB, Coarse));
  auto FineW = Warnings(lintAll(DB, Fine));

  // Each checker's warning rules must have fired insensitively, or the
  // subset claim below would be vacuous.
  for (const char *Rule :
       {"escape.global", "escape.thread", "race.candidate", "cast.unsafe"})
    EXPECT_FALSE(CoarseW[Rule].empty()) << Rule;

  // Per rule: 2-object+H warnings are a subset of insensitive warnings.
  std::size_t CoarseTotal = 0, FineTotal = 0;
  for (const auto &[Rule, Ids] : FineW) {
    const std::set<std::string> &CoarseIds = CoarseW[Rule];
    for (const std::string &Id : Ids)
      EXPECT_TRUE(CoarseIds.count(Id)) << Rule << " finding " << Id
                                       << " appears only at 2-object+H";
  }
  for (const auto &[Rule, Ids] : CoarseW)
    CoarseTotal += Ids.size();
  for (const auto &[Rule, Ids] : FineW)
    FineTotal += Ids.size();
  // And precision genuinely prunes something on this workload.
  EXPECT_LT(FineTotal, CoarseTotal);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SubsetProperty,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Datalog" : "Specialized";
                         });

//===----------------------------------------------------------------------===//
// Did-you-mean diagnostics: every tool that takes a closed vocabulary
// (--config, --checks, --preset) rejects unknown values with the closest
// known one suggested. The suggestion logic is shared (support/Suggest.h)
// so the tools cannot drift in what "close" means.
//===----------------------------------------------------------------------===//

TEST(DidYouMeanTest, SuggestsClosestVocabularyEntry) {
  // The motivating typos: each one letter or one token off.
  EXPECT_EQ(support::didYouMean("2-object", ctx::configNames()),
            " (did you mean '1-object'?)");
  EXPECT_EQ(support::didYouMean("1-objcet", ctx::configNames()),
            " (did you mean '1-object'?)");
  EXPECT_EQ(support::didYouMean("insensitve", ctx::configNames()),
            " (did you mean 'insensitive'?)");
  EXPECT_EQ(support::didYouMean("tain", {"escape", "race", "cast", "taint",
                                         "all"}),
            " (did you mean 'taint'?)");
  EXPECT_EQ(support::didYouMean("antlrr", workload::presetNames()),
            " (did you mean 'antlr'?)");
}

TEST(DidYouMeanTest, SuggestsContextlessFlavourNames) {
  // The contextless rungs are in every tool's --config vocabulary: a
  // near-miss for either flavour must land on the right name, through
  // the same closestMatch every tool calls.
  EXPECT_EQ(support::didYouMean("unifyy", ctx::configNames()),
            " (did you mean 'unify'?)");
  EXPECT_EQ(support::didYouMean("unfiy", ctx::configNames()),
            " (did you mean 'unify'?)");
  EXPECT_EQ(support::didYouMean("cutshortcu", ctx::configNames()),
            " (did you mean 'cutshortcut'?)");
  EXPECT_EQ(support::didYouMean("cut-shortcut", ctx::configNames()),
            " (did you mean 'cutshortcut'?)");
  // ctp-genfacts' flag vocabulary (the last tool to gain suggestions).
  EXPECT_EQ(support::didYouMean("--sede", {"--seed", "--print-program"}),
            " (did you mean '--seed'?)");
  EXPECT_EQ(support::didYouMean("--print-prog",
                                {"--seed", "--print-program"}),
            " (did you mean '--print-program'?)");
}

TEST(DidYouMeanTest, StaysQuietWhenNothingIsClose) {
  // Garbage gets no suggestion — a far-fetched guess is worse than none.
  EXPECT_EQ(support::didYouMean("zzzzzzzz", ctx::configNames()), "");
  EXPECT_EQ(support::didYouMean("", ctx::configNames()), "");
}

TEST(DidYouMeanTest, ConfigByNameAcceptsLadderRejectsUnknown) {
  ctx::Config Cfg;
  for (const std::string &Name : ctx::configNames())
    EXPECT_TRUE(ctx::configByName(Name, Abstraction::TransformerString, Cfg))
        << Name;
  EXPECT_FALSE(
      ctx::configByName("2-object", Abstraction::TransformerString, Cfg));
  EXPECT_FALSE(ctx::configByName("", Abstraction::TransformerString, Cfg));
}

} // namespace
