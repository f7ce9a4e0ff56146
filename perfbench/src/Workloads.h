//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload measures for Args::Seconds and fills the Report with the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run), plus attempted/failed operation counts and determinism counts.
/// perfbench/NOTES.md says what each metric means on each workload.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_PERFBENCH_WORKLOADS_H
#define CTP_PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

void analyzeMatrix(const Args &A, Report &Rep);
void serveDemand(const Args &A, Report &Rep);
void certify(const Args &A, Report &Rep);

} // namespace perfbench

#endif // CTP_PERFBENCH_WORKLOADS_H
