//===- analysis/Results.cpp - Analysis results and projections ------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Results.h"

#include <algorithm>
#include <cassert>
#include <mutex>

using namespace ctp;
using namespace ctp::analysis;

namespace {

std::uint32_t leadOf(std::uint32_t Row) { return Row; }
template <std::size_t N>
std::uint32_t leadOf(const std::array<std::uint32_t, N> &Row) {
  return Row[0];
}

/// One context-insensitive projection: its sorted, deduplicated rows and
/// CSR offsets, so the rows led by id K are Rows[Off[K], Off[K + 1]).
template <class Row> struct CiTable {
  std::once_flag Once;
  std::vector<Row> Rows;
  std::vector<std::size_t> Off;
  /// Size of the relation the rows were built from.
  std::size_t From = 0;

  std::span<const Row> slice(std::uint32_t Lead) const {
    if (std::size_t{Lead} + 1 >= Off.size())
      return {};
    return {Rows.data() + Off[Lead], Rows.data() + Off[Lead + 1]};
  }
};

/// Builds \p T from \p Facts on first use: a counting sort on the leading
/// id, then a sort+unique within each bucket.
template <class Row, class Fact, class ProjectT>
const CiTable<Row> &build(CiTable<Row> &T, const std::vector<Fact> &Facts,
                          ProjectT Project) {
  std::call_once(T.Once, [&] {
    T.From = Facts.size();
    std::uint32_t Lim = 0; // one past the largest leading id
    for (const Fact &F : Facts)
      Lim = std::max(Lim, leadOf(Project(F)) + 1);
    // Off[K + 1] counts bucket K; the prefix sum turns Off[K] into the
    // start of bucket K, and scattering advances it to the bucket's end.
    T.Off.assign(std::size_t{Lim} + 1, 0);
    for (const Fact &F : Facts)
      ++T.Off[leadOf(Project(F)) + 1];
    for (std::uint32_t K = 0; K < Lim; ++K)
      T.Off[K + 1] += T.Off[K];
    std::vector<Row> Scatter(Facts.size());
    for (const Fact &F : Facts) {
      Row R = Project(F);
      Scatter[T.Off[leadOf(R)]++] = R;
    }
    std::size_t Begin = 0, Out = 0;
    for (std::uint32_t K = 0; K < Lim; ++K) {
      auto B = Scatter.begin() + Begin, E = Scatter.begin() + T.Off[K];
      Begin = T.Off[K];
      std::sort(B, E);
      T.Off[K] = Out;
      for (auto It = B, U = std::unique(B, E); It != U; ++It)
        Scatter[Out++] = *It;
    }
    T.Off[Lim] = Out;
    T.Rows.assign(Scatter.begin(), Scatter.begin() + Out);
  });
  assert(T.From == Facts.size() &&
         "relation changed after its projection was read");
  return T;
}

} // namespace

/// The four projections, heap-held so their once_flags leave Results
/// movable.
struct Results::CiCache {
  CiTable<CiPair> Pts;
  CiTable<CiTriple> Hpts;
  CiTable<CiPair> Call;
  CiTable<std::uint32_t> Reach;

  const CiTable<CiPair> &pts(const Results &R) {
    return build(Pts, R.Pts, [](const PtsFact &F) {
      return CiPair{F.Var, F.Heap};
    });
  }
  const CiTable<CiTriple> &hpts(const Results &R) {
    return build(Hpts, R.Hpts, [](const HptsFact &F) {
      return CiTriple{F.Base, F.Field, F.Heap};
    });
  }
  const CiTable<CiPair> &call(const Results &R) {
    return build(Call, R.Call, [](const CallFact &F) {
      return CiPair{F.Invoke, F.Method};
    });
  }
  const CiTable<std::uint32_t> &reach(const Results &R) {
    return build(Reach, R.Reach, [](const ReachFact &F) { return F.Method; });
  }
};

Results::Results() : Ci(std::make_unique<CiCache>()) {}
Results::~Results() = default;
Results::Results(Results &&) noexcept = default;
Results &Results::operator=(Results &&) noexcept = default;

void Results::countRelations() {
  Stat.NumPts = Pts.size();
  Stat.NumHpts = Hpts.size();
  Stat.NumHload = Hload.size();
  Stat.NumCall = Call.size();
  Stat.NumReach = Reach.size();
  Stat.NumGpts = Gpts.size();
}

const std::vector<Results::CiPair> &Results::ciPts() const {
  return Ci->pts(*this).Rows;
}

const std::vector<Results::CiTriple> &Results::ciHpts() const {
  return Ci->hpts(*this).Rows;
}

const std::vector<Results::CiPair> &Results::ciCall() const {
  return Ci->call(*this).Rows;
}

const std::vector<std::uint32_t> &Results::ciReach() const {
  return Ci->reach(*this).Rows;
}

Results::CiColumn Results::ptsOf(std::uint32_t Var) const {
  return std::views::values(Ci->pts(*this).slice(Var));
}

std::span<const Results::CiTriple>
Results::hptsOf(std::uint32_t Base) const {
  return Ci->hpts(*this).slice(Base);
}

Results::CiColumn Results::calleesOf(std::uint32_t Invoke) const {
  return std::views::values(Ci->call(*this).slice(Invoke));
}
