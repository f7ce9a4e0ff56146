//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark opens around each call into a ctp layer. A span's
/// name is "<layer>.<what>"; its layer is the part before the first dot.
/// Spans are kept in memory and written once, when the run ends, as
/// Chrome trace-event JSON. When tracing is off a Span is two branches.
///
/// A replay span wraps a call the benchmark makes only to see inside
/// another layer's call (the demand engine under a cfl-mode answer, the
/// ctx rendering of a solved cell's domain). Replays are real work of
/// their layer but are left out of the tracing-overhead figure.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_PERFBENCH_TRACE_H
#define CTP_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Pass number of spans opened during set-up, and after the passes.
constexpr int SetupPass = -1;
constexpr int TailPass = -2;
/// Pass selector meaning every pass >= 0.
constexpr int PassSpans = -3;

struct SpanRec {
  std::string Name;
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  int Parent = -1;
  std::uint64_t Request = 0;
  bool Replay = false;
  int Pass = SetupPass;

  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
  std::string layer() const { return Name.substr(0, Name.find('.')); }
};

class Tracer {
public:
  static Tracer &get();

  bool On = false;
  int Pass = SetupPass;

  int open(const char *Name, std::uint64_t Request, bool Replay);
  void close(int Id);

  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Durations of every span named \p Name in a pass >= 0.
  std::vector<double> durationsMs(const std::string &Name) const;
  /// Summed durations of spans named \p Name in pass \p P (or in every
  /// pass >= 0 when \p P is PassSpans).
  double totalMs(const std::string &Name, int P) const;
  /// Self time (duration minus children) per layer over the spans of
  /// pass \p P, or of every pass >= 0 when \p P is PassSpans.
  std::map<std::string, double> layerSelfMs(int P) const;
  /// Time spent in outermost replay spans during pass \p P.
  double replayMs(int P) const;

  /// Writes Chrome trace-event JSON. \returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<SpanRec> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op when tracing is off.
class Span {
public:
  explicit Span(const char *Name, std::uint64_t Request = 0,
                bool Replay = false);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id = -1;
};

} // namespace perfbench

#endif // CTP_PERFBENCH_TRACE_H
