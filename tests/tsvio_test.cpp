//===- tests/tsvio_test.cpp - Facts directory round-trip ------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The paper's pipeline consumes extracted facts from disk; this checks
// that writing a FactDB to a Doop-style facts directory and reading it
// back is lossless, including analysis-result equality.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "support/Tsv.h"
#include "workload/Generator.h"
#include "workload/PaperPrograms.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>

using namespace ctp;
using ctx::Abstraction;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/ctp_facts_" + Tag;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

TEST(TsvIOTest, RoundTripPreservesEverything) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  std::string Dir = freshDir("fig1");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");

  facts::FactDB Back;
  ASSERT_EQ(facts::readFactsDir(Dir, Back), "");
  EXPECT_EQ(Back.VarNames, DB.VarNames);
  EXPECT_EQ(Back.HeapNames, DB.HeapNames);
  EXPECT_EQ(Back.MethodNames, DB.MethodNames);
  EXPECT_EQ(Back.EntryMethods, DB.EntryMethods);
  EXPECT_EQ(Back.numInputFacts(), DB.numInputFacts());
  EXPECT_EQ(Back.VarParent, DB.VarParent);
  EXPECT_EQ(Back.HeapParent, DB.HeapParent);
  EXPECT_EQ(Back.MethodClass, DB.MethodClass);
  std::filesystem::remove_all(Dir);
}

TEST(TsvIOTest, AnalysisFromDiskMatchesInMemory) {
  workload::WorkloadParams Params;
  Params.Drivers = 2;
  Params.Scenarios = 3;
  Params.Seed = 31;
  facts::FactDB DB = facts::extract(workload::generate(Params));
  std::string Dir = freshDir("gen");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  facts::FactDB Back;
  ASSERT_EQ(facts::readFactsDir(Dir, Back), "");

  auto Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results A = analysis::solve(DB, Cfg);
  analysis::Results B = analysis::solve(Back, Cfg);
  EXPECT_EQ(A.Stat.NumPts, B.Stat.NumPts);
  EXPECT_EQ(A.ciPts(), B.ciPts());
  EXPECT_EQ(A.ciCall(), B.ciCall());
  std::filesystem::remove_all(Dir);
}

TEST(TsvIOTest, MissingDirectoryErrors) {
  facts::FactDB DB;
  EXPECT_NE(facts::readFactsDir("/nonexistent/ctp/facts", DB), "");
}

TEST(TsvIOTest, NulByteRejectedWithFileLineDiagnostic) {
  facts::FactDB DB = facts::extract(workload::figure7().P);
  std::string Dir = freshDir("nul");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  {
    std::ofstream Out(Dir + "/Assign.facts",
                      std::ios::app | std::ios::binary);
    Out << "bad" << '\0' << "field\talso\n";
  }
  // Strict: aborts with the file, line, and reason.
  facts::FactDB Strict;
  std::string Err = facts::readFactsDir(Dir, Strict);
  EXPECT_NE(Err.find("Assign.facts:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("NUL"), std::string::npos) << Err;
  // Lenient: counted and warned about, not dropped silently.
  facts::FactDB Lenient;
  facts::FactsReadOptions Opts;
  Opts.Lenient = true;
  facts::FactsReadReport Report;
  ASSERT_EQ(facts::readFactsDir(Dir, Lenient, Opts, &Report), "");
  EXPECT_EQ(Report.SkippedLines, 1u);
  ASSERT_EQ(Report.Warnings.size(), 1u);
  EXPECT_NE(Report.Warnings[0].find("NUL"), std::string::npos)
      << Report.Warnings[0];
  std::filesystem::remove_all(Dir);
}

TEST(TsvIOTest, OverlongLineRejectedWithFileLineDiagnostic) {
  facts::FactDB DB = facts::extract(workload::figure7().P);
  std::string Dir = freshDir("overlong");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  {
    std::ofstream Out(Dir + "/Load.facts", std::ios::app);
    Out << std::string(MaxTsvLineBytes + 1, 'a') << "\n";
  }
  facts::FactDB Strict;
  std::string Err = facts::readFactsDir(Dir, Strict);
  EXPECT_NE(Err.find("Load.facts:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;
  facts::FactDB Lenient;
  facts::FactsReadOptions Opts;
  Opts.Lenient = true;
  facts::FactsReadReport Report;
  ASSERT_EQ(facts::readFactsDir(Dir, Lenient, Opts, &Report), "");
  EXPECT_EQ(Report.SkippedLines, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(TsvTest, RejectListCarriesLineNumbers) {
  std::string Dir = freshDir("rejects");
  std::string Path = Dir + "/t.tsv";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "good\trow\n"
        << "nul" << '\0' << "row\n"
        << "another\tgood\n";
  }
  std::vector<TsvLine> Rows;
  std::vector<TsvReject> Rejects;
  ASSERT_TRUE(readTsvLines(Path, Rows, &Rejects));
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].LineNo, 1u);
  EXPECT_EQ(Rows[1].LineNo, 3u);
  ASSERT_EQ(Rejects.size(), 1u);
  EXPECT_EQ(Rejects[0].LineNo, 2u);
  EXPECT_NE(Rejects[0].Reason.find("NUL"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(TsvIOTest, OrdinalColumnSpansExactlyTheU32Range) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  ASSERT_FALSE(DB.Actuals.empty());
  // Every ordinal the writer can produce reads back, 10 digits included.
  DB.Actuals.front().Ordinal = UINT32_MAX;
  std::string Dir = freshDir("ordinal");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  facts::FactDB Back;
  ASSERT_EQ(facts::readFactsDir(Dir, Back), "");
  EXPECT_EQ(Back.Actuals.front().Ordinal, UINT32_MAX);
  EXPECT_EQ(Back.layoutHash(), DB.layoutHash());

  // One past it, a sign, or a non-digit is a malformed line.
  std::vector<std::vector<std::string>> Rows;
  ASSERT_TRUE(readTsvFile(Dir + "/Actual.facts", Rows));
  const std::size_t Good = Rows.size();
  const std::vector<std::string> Row = Rows.front();
  for (const char *Bad : {"4294967296", "+1", "1e3"}) {
    Rows.push_back({Row[0], Row[1], Bad});
    ASSERT_TRUE(writeTsvFile(Dir + "/Actual.facts", Rows));
    facts::FactDB Strict;
    std::string Err = facts::readFactsDir(Dir, Strict);
    EXPECT_NE(Err.find("Actual.facts:" + std::to_string(Good + 1) +
                       ": unknown entity name or malformed ordinal"),
              std::string::npos)
        << Err;
    Rows.pop_back();
  }
  std::filesystem::remove_all(Dir);
}

TEST(TsvIOTest, UnknownNameRejected) {
  facts::FactDB DB = facts::extract(workload::figure7().P);
  std::string Dir = freshDir("bad");
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  // Corrupt one fact file with an undeclared variable name.
  std::vector<std::vector<std::string>> Rows;
  ASSERT_TRUE(readTsvFile(Dir + "/Assign.facts", Rows));
  Rows.push_back({"no_such_var", "also_missing"});
  ASSERT_TRUE(writeTsvFile(Dir + "/Assign.facts", Rows));
  facts::FactDB Back;
  EXPECT_NE(facts::readFactsDir(Dir, Back), "");
  std::filesystem::remove_all(Dir);
}

} // namespace
