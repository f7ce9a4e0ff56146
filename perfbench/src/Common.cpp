//===- perfbench/src/Common.cpp - Shared benchmark plumbing -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "serve/Delta.h"
#include "support/Posix.h"
#include "verify/Verify.h"
#include "workload/Generator.h"
#include "workload/Presets.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace ctp;

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Rng streamRng(std::uint64_t Seed, const char *Stream) {
  return Rng(fnvAppend(FnvBasis, Stream) ^ (Seed * 0xD1B54A32D192ED03ull));
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::uint64_t fnvAppend(std::uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::uint64_t fnvLines(const std::vector<std::string> &Lines) {
  std::uint64_t H = FnvBasis;
  for (const std::string &L : Lines) {
    H = fnvAppend(H, L);
    H = fnvAppend(H, "\n");
  }
  return H;
}

std::string hex64(std::uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string InputSpec::key() const {
  return Preset + "x" + std::to_string(Scale);
}

namespace {

/// Permutes the row order of every input relation. The fixpoint is a
/// set, so every digest is the same at every seed; the work order (and so
/// the derivation count) is not.
void permuteRows(facts::FactDB &DB, std::uint64_t Seed,
                 const std::string &Key) {
  if (Seed == DefaultSeed)
    return;
  Rng R = streamRng(Seed, ("rows:" + Key).c_str());
  shuffle(DB.EntryMethods, R);
  shuffle(DB.Actuals, R);
  shuffle(DB.Assigns, R);
  shuffle(DB.AssignNews, R);
  shuffle(DB.AssignReturns, R);
  shuffle(DB.Formals, R);
  shuffle(DB.HeapTypes, R);
  shuffle(DB.Implements, R);
  shuffle(DB.Loads, R);
  shuffle(DB.Returns, R);
  shuffle(DB.StaticInvokes, R);
  shuffle(DB.Stores, R);
  shuffle(DB.ThisVars, R);
  shuffle(DB.VirtualInvokes, R);
  shuffle(DB.GlobalStores, R);
  shuffle(DB.GlobalLoads, R);
  shuffle(DB.Throws, R);
  shuffle(DB.Catches, R);
  shuffle(DB.Casts, R);
  shuffle(DB.Subtypes, R);
  shuffle(DB.Spawns, R);
  shuffle(DB.TaintSources, R);
  shuffle(DB.TaintSinks, R);
  shuffle(DB.Sanitizers, R);
}

} // namespace

std::vector<Input> buildInputs(const std::vector<InputSpec> &Specs,
                               std::uint64_t Seed, const std::string &Dir,
                               double &Ms) {
  // An earlier set-up's files are unlinked first, untimed, so the write
  // creates them anew in the existing directories. Rewriting them in
  // place made ext4 start writeback on each close of a truncated file,
  // and set-up time then swung with the disk.
  for (const InputSpec &S : Specs) {
    std::error_code EC;
    for (const auto &F : std::filesystem::directory_iterator(
             Dir + "/facts-" + S.key(), EC))
      std::filesystem::remove(F.path(), EC);
  }
  std::vector<Input> Out;
  std::int64_t T0 = nowNs();
  for (const InputSpec &S : Specs) {
    workload::WorkloadParams P = workload::presetParams(S.Preset);
    P.Drivers *= S.Scale;
    ir::Program Prog;
    {
      Span Sp("workload.generate");
      Prog = workload::generate(P);
    }
    facts::FactDB DB;
    {
      Span Sp("facts.extract");
      DB = facts::extract(Prog);
      permuteRows(DB, Seed, S.key());
    }
    Input In;
    In.Spec = S;
    In.FactsDir = Dir + "/facts-" + S.key();
    {
      Span Sp("facts.write");
      std::string E = posix::mkdirs(In.FactsDir);
      if (E.empty())
        E = facts::writeFactsDir(DB, In.FactsDir);
      if (!E.empty()) {
        std::fprintf(stderr, "perfbench: cannot write facts: %s\n",
                     E.c_str());
        std::exit(1);
      }
    }
    {
      Span Sp("facts.read");
      std::string E = facts::readFactsDir(In.FactsDir, In.DB);
      if (!E.empty()) {
        std::fprintf(stderr, "perfbench: cannot read facts: %s\n",
                     E.c_str());
        std::exit(1);
      }
    }
    Out.push_back(std::move(In));
  }
  Ms = msBetween(T0, nowNs());
  return Out;
}

void SetUps::upTo(double Fraction) {
  Tracer &T = Tracer::get();
  const bool WasOn = T.On;
  const int WasPass = T.Pass;
  const double Want = 1.0 + (SetupRepeats - 1) * std::min(Fraction, 1.0);
  while (Ms.size() < SetupRepeats && static_cast<double>(Ms.size()) < Want) {
    T.On = A.Trace;
    T.Pass = SetupPass;
    Ms.push_back(Once(static_cast<unsigned>(Ms.size())));
  }
  T.On = WasOn;
  T.Pass = WasPass;
}

double peakRssMb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so a
  // child of a larger parent would report the parent's peak.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint64_t fixpointDigest(const facts::FactDB &DB,
                             const analysis::Results &R) {
  return fnvLines(verify::canonicalLines(DB, R));
}

std::uint64_t ciDigest(const analysis::Results &R) {
  std::uint64_t H = FnvBasis;
  auto Add = [&H](std::uint64_t X) { H = fnvAppend(H, hex64(X)); };
  for (const auto &P : R.ciPts())
    Add((std::uint64_t(P[0]) << 32) | P[1]);
  H = fnvAppend(H, "|");
  for (const auto &P : R.ciHpts()) {
    Add((std::uint64_t(P[0]) << 32) | P[1]);
    Add(P[2]);
  }
  H = fnvAppend(H, "|");
  for (const auto &P : R.ciCall())
    Add((std::uint64_t(P[0]) << 32) | P[1]);
  H = fnvAppend(H, "|");
  for (std::uint32_t M : R.ciReach())
    Add(M);
  return H;
}

void Digests::load(const std::string &Path, const std::string &Workload) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string W, Key, Hex;
    if (SS >> W >> Key >> Hex && W == Workload)
      ByKey[Key] = Hex;
  }
}

std::string Digests::lookup(const std::string &Key) const {
  auto It = ByKey.find(Key);
  return It == ByKey.end() ? std::string() : It->second;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  Correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

void Report::count(const std::string &Key, std::uint64_t Value) {
  auto [It, Inserted] = Counts.emplace(Key, Value);
  if (!Inserted && It->second != Value)
    fail("determinism defect: count " + Key + " was " +
         std::to_string(It->second) + ", now " + std::to_string(Value));
}

void Report::checkDigest(const Digests &D, const std::string &Key,
                         std::uint64_t Digest, bool Printing) {
  if (Printing) {
    const std::string Line = Key + " " + hex64(Digest);
    if (std::find(DigestLines.begin(), DigestLines.end(), Line) ==
        DigestLines.end())
      DigestLines.push_back(Line);
    return;
  }
  std::string Want = D.lookup(Key);
  if (Want.empty())
    fail("no digest pinned for " + Key);
  else if (Want != hex64(Digest))
    fail("digest mismatch for " + Key + ": pinned " + Want + ", got " +
         hex64(Digest));
}

std::string CellSpec::key() const { return In.key() + "/" + config().name(); }

ctx::Config CellSpec::config() const {
  ctx::Config C;
  if (!ctx::configByName(Config, Abs, C)) {
    std::fprintf(stderr, "perfbench: unknown config %s\n", Config);
    std::exit(1);
  }
  return C;
}

std::vector<InputSpec> inputSpecs(const std::vector<CellSpec> &Cells) {
  std::vector<InputSpec> Out;
  for (const CellSpec &C : Cells) {
    bool Seen = false;
    for (const InputSpec &S : Out)
      Seen |= S.key() == C.In.key();
    if (!Seen)
      Out.push_back(C.In);
  }
  return Out;
}

const Input &inputFor(const std::vector<Input> &Inputs, const InputSpec &S) {
  for (const Input &In : Inputs)
    if (In.Spec.key() == S.key())
      return In;
  std::fprintf(stderr, "perfbench: no input %s\n", S.key().c_str());
  std::exit(1);
}

std::vector<Edit> editPool(const facts::FactDB &DB, std::size_t K) {
  // Variables an allocation flows into, and variables whose values flow
  // onward (actuals, stored values, returns), keyed by declaring method.
  std::set<std::pair<std::string, std::string>> Present;
  for (const facts::AssignFact &F : DB.Assigns)
    Present.insert({DB.VarNames[F.From], DB.VarNames[F.To]});
  std::set<facts::Id> Sources, Sinks;
  for (const facts::AssignNewFact &F : DB.AssignNews)
    Sources.insert(F.To);
  for (const facts::ActualFact &F : DB.Actuals)
    Sinks.insert(F.Var);
  for (const facts::StoreFact &F : DB.Stores)
    Sinks.insert(F.From);
  for (const facts::ReturnFact &F : DB.Returns)
    Sinks.insert(F.Var);
  std::vector<std::pair<std::string, std::string>> Candidates;
  for (facts::Id From : Sources)
    for (facts::Id To : Sinks)
      if (From != To && DB.VarParent[From] == DB.VarParent[To] &&
          !Present.count({DB.VarNames[From], DB.VarNames[To]}))
        Candidates.push_back({DB.VarNames[From], DB.VarNames[To]});
  std::sort(Candidates.begin(), Candidates.end());
  std::vector<Edit> Out;
  for (std::size_t I = 0; I < K && I < Candidates.size(); ++I) {
    const auto &C = Candidates[(2 * I + 1) * Candidates.size() / (2 * K)];
    Out.push_back({"add assign " + C.first + " " + C.second,
                   "rm assign " + C.first + " " + C.second});
  }
  return Out;
}

std::vector<EditedFacts> applyEdits(const facts::FactDB &DB,
                                    const std::vector<Edit> &Pool,
                                    Report &Rep) {
  std::vector<EditedFacts> Out(Pool.size());
  for (std::size_t I = 0; I < Pool.size(); ++I) {
    EditedFacts &E = Out[I];
    E.Added = DB;
    std::string Err = serve::applyDeltaOp(Pool[I].Add, E.Added, E.AddDelta);
    E.Reverted = E.Added;
    if (Err.empty())
      Err = serve::applyDeltaOp(Pool[I].Rm, E.Reverted, E.RmDelta);
    if (!Err.empty())
      Rep.fail("edit '" + Pool[I].Add + "': " + Err);
  }
  return Out;
}

std::size_t tupleCount(const analysis::Results &R) {
  return R.Pts.size() + R.Hpts.size() + R.Hload.size() + R.Call.size() +
         R.Reach.size() + R.Gpts.size();
}

void SolveCounts::add(const analysis::Results &R) {
  Derivs += R.Stat.Progress.Derivations;
  Work += R.Stat.WorkItems;
  Tuples += tupleCount(R);
  Dom += R.Stat.DomainSize;
}

void SolveCounts::report(Report &Rep) const {
  Rep.metric("analysis.derivations", static_cast<double>(Derivs), "count");
  Rep.metric("analysis.work_items", static_cast<double>(Work), "count");
  Rep.metric("analysis.tuples", static_cast<double>(Tuples), "count");
  Rep.metric("analysis.new_per_derivation",
             Derivs ? static_cast<double>(Tuples) / Derivs : 0.0, "ratio");
  Rep.metric("ctx.domain_size", static_cast<double>(Dom), "count");
}

void EndToEnd::report(Report &Rep, const PassLoop &L) const {
  Rep.metric("setup_s", median(SetupMs) / 1e3, "s");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  Rep.metric("round_s", median(L.RoundMs) / 1e3, "s");
  Rep.metric("cell_geomean_ms", geomean(OpMs), "ms");
  Rep.metric("query_p50_ms", percentile(QueryMs, 50), "ms");
  Rep.metric("query_p99_ms", percentile(QueryMs, 99), "ms");
  Rep.metric("commit_add_p50_ms", median(AddMs), "ms");
  Rep.metric("commit_rm_p50_ms", median(RmMs), "ms");
  Rep.metric("restart_s", median(RestartMs) / 1e3, "s");
}

void setupMetrics(Report &Rep, const std::vector<Input> &Inputs,
                  std::size_t Setups) {
  const Tracer &T = Tracer::get();
  for (const char *N : {"workload.generate", "facts.extract", "facts.write",
                        "facts.read"})
    Rep.metric(std::string(N) + "_ms",
               T.totalMs(N, SetupPass) /
                   static_cast<double>(std::max<std::size_t>(1, Setups)),
               "ms");
  std::size_t Rows = 0;
  for (const Input &In : Inputs)
    Rows += In.DB.numInputFacts();
  Rep.metric("facts.input_facts", static_cast<double>(Rows), "count");
}

double perPassMs(const PassLoop &L, const std::string &Name) {
  return Tracer::get().totalMs(Name, PassSpans) /
         std::max(1, L.tracedPasses());
}

void traceMetrics(Report &Rep, const PassLoop &L, std::size_t Setups) {
  const Tracer &T = Tracer::get();
  const double Passes = std::max(1, L.tracedPasses());
  const std::map<std::string, double> InPasses = T.layerSelfMs(PassSpans);
  const std::map<std::string, double> InSetup = T.layerSelfMs(SetupPass);
  for (const char *Layer : {"workload", "facts", "ctx", "analysis", "datalog",
                            "clients", "cfl", "verify", "serve"}) {
    double Ms = 0;
    if (auto It = InPasses.find(Layer); It != InPasses.end())
      Ms += It->second / Passes;
    if (auto It = InSetup.find(Layer); It != InSetup.end())
      Ms += It->second / static_cast<double>(std::max<std::size_t>(1, Setups));
    Rep.metric(std::string(Layer) + ".self_ms", Ms, "ms");
  }
  Rep.metric("trace.overhead_ms",
             median(L.TracedNetMs) - median(L.RoundMs), "ms");
  std::size_t Spans = 0;
  for (const SpanRec &S : T.spans())
    Spans += S.Pass >= 0;
  Rep.metric("trace.spans", static_cast<double>(Spans) / Passes, "count");
}

} // namespace perfbench
