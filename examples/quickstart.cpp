//===- examples/quickstart.cpp - Five-minute tour of the library ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Builds a small Java-like program through the ir::Builder API, extracts
// Figure-3 input facts, runs the context-sensitive pointer analysis under
// two configurations and both context-transformation abstractions, and
// prints points-to sets plus the relation-size comparison that is the
// heart of the paper.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include <cstdio>

using namespace ctp;
using namespace ctp::ir;

int main() {
  // --- 1. Build the program (Figure 1's essence, condensed). ---
  //
  //   class Box { Object get(Object p) { return p; } }
  //   main:
  //     box1 = new Box();  box2 = new Box();
  //     a = new Object() /*ha*/;  b = new Object() /*hb*/;
  //     ra = box1.get(a);  rb = box2.get(b);
  Builder B;
  TypeId Object = B.addClass("Object");
  TypeId Box = B.addClass("Box", Object);
  MethodId Get = B.addMethod(Box, "get", 1);
  B.addReturn(Get, B.formal(Get, 0));
  SigId GetSig = B.signature("get", 1);

  MethodId Main = B.addStaticMethod(Object, "main", 0);
  B.setMain(Main);
  VarId Box1 = B.addLocal(Main, "box1");
  B.addNew(Main, Box1, Box, "hbox1");
  VarId Box2 = B.addLocal(Main, "box2");
  B.addNew(Main, Box2, Box, "hbox2");
  VarId A = B.addLocal(Main, "a");
  B.addNew(Main, A, Object, "ha");
  VarId Bv = B.addLocal(Main, "b");
  B.addNew(Main, Bv, Object, "hb");
  VarId Ra = B.addLocal(Main, "ra");
  B.addVirtualCall(Main, Box1, GetSig, {A}, Ra, "call_a");
  VarId Rb = B.addLocal(Main, "rb");
  B.addVirtualCall(Main, Box2, GetSig, {Bv}, Rb, "call_b");
  Program P = B.take();

  // --- 2. Extract the Figure-3 input predicates. ---
  facts::FactDB DB = facts::extract(P);
  std::printf("program: %zu methods, %zu vars, %zu heap sites, %zu input "
              "facts\n\n",
              DB.numMethods(), DB.numVars(), DB.numHeaps(),
              DB.numInputFacts());

  // --- 3. Run the analysis under several configurations. ---
  auto Show = [&](const ctx::Config &Cfg) {
    analysis::Results R = analysis::solve(DB, Cfg);
    auto PrintPts = [&](const char *Name, VarId V) {
      std::printf("  %-4s -> {", Name);
      bool First = true;
      for (std::uint32_t H : R.ptsOf(V)) {
        std::printf("%s%s", First ? "" : ", ", DB.HeapNames[H].c_str());
        First = false;
      }
      std::printf("}\n");
    };
    std::printf("%s: |pts|=%zu |hpts|=%zu |call|=%zu (%.1f ms)\n",
                Cfg.name().c_str(), R.Stat.NumPts, R.Stat.NumHpts,
                R.Stat.NumCall, R.Stat.Seconds * 1e3);
    PrintPts("ra", Ra);
    PrintPts("rb", Rb);
    std::printf("\n");
  };

  // Context-insensitive: ra and rb are conflated.
  Show(ctx::insensitive(ctx::Abstraction::ContextString));
  // 1-object-sensitive: the two Box receivers separate the calls; compare
  // the traditional context strings against the paper's transformer
  // strings — same precision, fewer facts.
  Show(ctx::oneObject(ctx::Abstraction::ContextString));
  Show(ctx::oneObject(ctx::Abstraction::TransformerString));
  return 0;
}
