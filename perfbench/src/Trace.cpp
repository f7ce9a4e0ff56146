//===- perfbench/src/Trace.cpp - In-memory span recorder --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Common.h"

#include <cstdio>

namespace perfbench {

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int Tracer::open(const char *Name, std::uint64_t Request, bool Replay) {
  SpanRec S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  if (S.Parent >= 0) {
    Replay |= Spans[S.Parent].Replay;
    if (Request == 0)
      Request = Spans[S.Parent].Request;
  }
  S.Request = Request;
  S.Replay = Replay;
  S.Pass = Pass;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return static_cast<int>(Spans.size() - 1);
}

void Tracer::close(int Id) {
  Spans[Id].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

std::vector<double> Tracer::durationsMs(const std::string &Name) const {
  std::vector<double> Out;
  for (const SpanRec &S : Spans)
    if (S.Pass >= 0 && S.Name == Name)
      Out.push_back(S.ms());
  return Out;
}

double Tracer::totalMs(const std::string &Name, int P) const {
  double Sum = 0;
  for (const SpanRec &S : Spans)
    if ((P == PassSpans ? S.Pass >= 0 : S.Pass == P) && S.Name == Name)
      Sum += S.ms();
  return Sum;
}

std::map<std::string, double> Tracer::layerSelfMs(int P) const {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.ms();
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    if (P == PassSpans ? Spans[I].Pass >= 0 : Spans[I].Pass == P)
      Out[Spans[I].layer()] += Spans[I].ms() - ChildMs[I];
  return Out;
}

double Tracer::replayMs(int P) const {
  double Sum = 0;
  for (const SpanRec &S : Spans)
    if (S.Pass == P && S.Replay &&
        (S.Parent < 0 || !Spans[S.Parent].Replay))
      Sum += S.ms();
  return Sum;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu,\"replay\":%s,\"pass\":%d}}\n",
                 I ? "," : "", S.Name.c_str(), S.layer().c_str(),
                 static_cast<double>(S.StartNs - Origin) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                 static_cast<unsigned long long>(S.Request),
                 S.Replay ? "true" : "false", S.Pass);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

Span::Span(const char *Name, std::uint64_t Request, bool Replay) {
  Tracer &T = Tracer::get();
  if (T.On)
    Id = T.open(Name, Request, Replay);
}

Span::~Span() {
  if (Id >= 0)
    Tracer::get().close(Id);
}

} // namespace perfbench
