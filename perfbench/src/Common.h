//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arguments, seeded inputs, statistics, digests and the result record
/// shared by the four benchmark workloads. Every workload is one
/// single-threaded closed loop in this process: it builds its inputs from
/// the seed, runs passes over a fixed operation list until the measuring
/// window is used up, checks every output, and fills a Report.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_PERFBENCH_COMMON_H
#define CTP_PERFBENCH_COMMON_H

#include "Trace.h"

#include "analysis/Incremental.h"
#include "analysis/Results.h"
#include "ctx/Config.h"
#include "facts/FactDB.h"
#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using namespace ctp;

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Working directory for facts dirs, checkpoints and journals; created
  /// fresh by the caller and removed after the run.
  std::string WorkDir;
  /// Pinned output digests (perfbench/digests.txt).
  std::string DigestFile;
  /// Where the determinism counts and the span dump go.
  std::string CountsOut;
  std::string TraceOut;
  /// Print the digests of this run instead of checking them.
  bool PrintDigests = false;
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 9;

/// The seed at which the serve response-stream digests are pinned.
constexpr std::uint64_t DefaultSeed = 1;

/// Monotonic nanoseconds.
std::int64_t nowNs();
inline double msBetween(std::int64_t A, std::int64_t B) {
  return static_cast<double>(B - A) / 1e6;
}

/// Rng for one named stream of the run, so adding a stream never shifts
/// another. ctp::Rng (SplitMix64) is the only randomness a workload uses.
Rng streamRng(std::uint64_t Seed, const char *Stream);

/// Fisher-Yates shuffle driven by \p R.
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (std::size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}
/// Shuffles \p V with the run's stream named \p Stream.
template <typename T>
void shuffle(std::vector<T> &V, std::uint64_t Seed, const char *Stream) {
  Rng R = streamRng(Seed, Stream);
  shuffle(V, R);
}

double median(std::vector<double> V);
/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Latencies of a fixed operation list that every pass repeats. An
/// operation's latency is the median over its passes, so one preempted
/// sample cannot move a percentile taken over operations.
class OpLatency {
public:
  void add(std::size_t Op, double Ms) {
    if (Op >= Samples.size())
      Samples.resize(Op + 1);
    Samples[Op].push_back(Ms);
  }
  std::vector<double> perOp() const {
    std::vector<double> Out;
    for (const std::vector<double> &S : Samples)
      if (!S.empty())
        Out.push_back(median(S));
    return Out;
  }

private:
  std::vector<std::vector<double>> Samples;
};

/// FNV-1a 64 over lines (each terminated by '\n').
std::uint64_t fnvLines(const std::vector<std::string> &Lines);
std::uint64_t fnvAppend(std::uint64_t H, const std::string &S);
constexpr std::uint64_t FnvBasis = 1469598103934665603ull;
std::string hex64(std::uint64_t H);

/// One input program: a preset with Drivers multiplied by Scale.
struct InputSpec {
  std::string Preset;
  unsigned Scale = 1;
  std::string key() const;
};

/// The facts a tool would analyze, after the TSV round trip.
struct Input {
  InputSpec Spec;
  facts::FactDB DB;
  std::string FactsDir;
};

/// Builds every input the way the tools do — generate, extract, write the
/// facts dir under \p Dir, read it back — and returns the read-back fact
/// bases. The seed permutes the row order of every input relation (seed 1
/// keeps the generator's order); the program itself stays the preset's.
/// A later call with the same \p Dir writes the same files again, in the
/// same directories. \p Ms receives the wall time.
std::vector<Input> buildInputs(const std::vector<InputSpec> &Specs,
                               std::uint64_t Seed, const std::string &Dir,
                               double &Ms);

/// A workload's set-up, repeated SetupRepeats times a run. Set-up 0 runs
/// before the passes, which use its result. The others are spread over
/// the measuring window between passes, outside every timed window, so a
/// slow minute moves a few samples rather than all of them. Every set-up
/// writes the same facts dirs (see buildInputs and perfbench/NOTES.md).
class SetUps {
public:
  /// Runs set-up \p I; \returns its wall time in ms.
  using OnceFn = std::function<double(unsigned I)>;
  SetUps(const Args &A, OnceFn Once) : A(A), Once(std::move(Once)) {}
  /// Runs set-ups until 1 + (SetupRepeats - 1) * \p Fraction are done.
  void upTo(double Fraction);
  const std::vector<double> &ms() const { return Ms; }

private:
  const Args &A;
  OnceFn Once;
  std::vector<double> Ms;
};

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Digest of the sorted value-level fixpoint (verify::canonicalLines).
std::uint64_t fixpointDigest(const facts::FactDB &DB,
                             const ctp::analysis::Results &R);
/// Digest of the context-insensitive projections (Theorem 6.2 checks).
std::uint64_t ciDigest(const ctp::analysis::Results &R);

/// Pinned digests: "<workload> <key> <hex>" lines.
class Digests {
public:
  /// A missing file pins nothing, so every digest check then fails.
  void load(const std::string &Path, const std::string &Workload);
  /// Empty when no digest is pinned for \p Key.
  std::string lookup(const std::string &Key) const;

private:
  std::map<std::string, std::string> ByKey;
};

/// What one run measured and checked.
struct Report {
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
  /// Per-layer counts that must repeat exactly at the same seed.
  std::map<std::string, std::uint64_t> Counts;
  /// "<key> <hex>" lines, printed under --print-digests.
  std::vector<std::string> DigestLines;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Counts one failed operation and says why on stderr.
  void fail(const std::string &Why);
  /// Records a count and flags a determinism defect when a later pass
  /// reports a different value for the same key.
  void count(const std::string &Key, std::uint64_t Value);
  /// Checks \p Digest against the pinned one (or records it when
  /// printing digests); a mismatch is a failed operation.
  void checkDigest(const Digests &D, const std::string &Key,
                   std::uint64_t Digest, bool Printing);
};

/// One ctp cell: an input program under a configuration.
struct CellSpec {
  InputSpec In;
  const char *Config;
  ctp::ctx::Abstraction Abs;
  /// Cold solves per pass; the cell's time is their median (small cells
  /// repeat so no time is one sub-millisecond sample).
  unsigned Repeat = 1;
  std::string key() const;
  ctp::ctx::Config config() const;
};

/// The distinct inputs of \p Cells, in first-use order.
std::vector<InputSpec> inputSpecs(const std::vector<CellSpec> &Cells);
/// The built input for \p S (which must be among \p Inputs).
const Input &inputFor(const std::vector<Input> &Inputs, const InputSpec &S);

/// A one-op fact edit and its revert, in the serve delta language.
struct Edit {
  std::string Add;
  std::string Rm;
};

/// \p K `assign` edges absent from \p DB, each from an allocation target
/// to a variable of the same method that flows onward. The pool depends
/// on the program only (not on row order), so it is the same at every
/// seed; the seed decides the order edits are applied in.
std::vector<Edit> editPool(const ctp::facts::FactDB &DB, std::size_t K);

/// An edit applied to a copy of the facts, then reverted on a second copy.
struct EditedFacts {
  facts::FactDB Added, Reverted;
  analysis::InputDelta AddDelta, RmDelta;
};
std::vector<EditedFacts> applyEdits(const facts::FactDB &DB,
                                    const std::vector<Edit> &Pool,
                                    Report &Rep);

/// Rows over every derived relation of \p R.
std::size_t tupleCount(const analysis::Results &R);

/// Solver work summed over the cells of a pass.
struct SolveCounts {
  std::uint64_t Derivs = 0, Work = 0, Tuples = 0, Dom = 0;
  void add(const analysis::Results &R);
  /// analysis.derivations/work_items/tuples/new_per_derivation and
  /// ctx.domain_size.
  void report(Report &Rep) const;
};

/// Runs passes until the measuring window is used up, with the set-ups
/// of \p S spread between them. In a traced run passes alternate
/// untraced / traced, starting untraced, and spans are recorded only in
/// traced passes and set-ups. \p Pass returns the pass's wall time in
/// ms, excluding output checks.
struct PassLoop {
  std::vector<double> RoundMs;     ///< untraced passes
  std::vector<double> TracedNetMs; ///< traced passes minus replay spans

  template <typename Fn> void run(const Args &A, SetUps &S, Fn &&Pass);
  int tracedPasses() const { return static_cast<int>(TracedNetMs.size()); }
};

/// The end-to-end metrics of a run; every workload reports all of them.
struct EndToEnd {
  std::vector<double> SetupMs;
  /// Per-operation medians (cell_geomean_ms) and per-query medians
  /// (query_p50_ms, query_p99_ms).
  std::vector<double> OpMs, QueryMs;
  std::vector<double> AddMs, RmMs, RestartMs;
  void report(Report &Rep, const PassLoop &L) const;
};

/// Set-up span times (per set-up) and input rows of a traced run.
void setupMetrics(Report &Rep, const std::vector<Input> &Inputs,
                  std::size_t Setups);
/// Summed duration of the spans named \p Name, per traced pass.
double perPassMs(const PassLoop &L, const std::string &Name);

/// Adds the metrics every traced run reports: per-layer self time (per
/// traced pass, plus per set-up for the \p Setups set-ups), tracing
/// overhead and span count.
void traceMetrics(Report &Rep, const PassLoop &L, std::size_t Setups);

template <typename Fn>
void PassLoop::run(const Args &A, SetUps &S, Fn &&Pass) {
  Tracer &T = Tracer::get();
  const std::int64_t Start = nowNs();
  const int MinPasses = A.Trace ? 2 : 1;
  for (int P = 0;; ++P) {
    const bool Traced = A.Trace && P % 2 == 1;
    T.On = Traced;
    T.Pass = P;
    double Ms = Pass(P);
    T.On = false;
    if (Traced)
      TracedNetMs.push_back(Ms - T.replayMs(P));
    else
      RoundMs.push_back(Ms);
    const double Used = msBetween(Start, nowNs()) / (A.Seconds * 1e3);
    if (P + 1 >= MinPasses && Used >= 1.0)
      break;
    S.upTo(Used);
  }
  T.Pass = TailPass;
  S.upTo(1.0);
}

} // namespace perfbench

#endif // CTP_PERFBENCH_COMMON_H
