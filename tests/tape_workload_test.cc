#include <gtest/gtest.h>

#include <cstring>

#include "bench_util/runner.h"
#include "bench_util/workload.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/tape.h"
#include "engine/plain_engine.h"
#include "engine/sideways_engine.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

static_assert(sizeof(TapeEntry) == 24, "tape entries are 24 bytes");

TEST(CrackerTapeTest, AppendAndReadBack) {
  CrackerTape tape;
  EXPECT_TRUE(tape.empty());
  tape.AppendCrack(RangePredicate::Closed(1, 5));
  tape.AppendCrackBound(Bound{7, false});
  tape.AppendInsert(42, 99);
  tape.AppendDelete(3, 43, 100);
  tape.AppendSort(Bound{2, true});
  tape.AppendSort(std::nullopt);
  ASSERT_EQ(tape.size(), 6u);
  EXPECT_EQ(tape.at(0).kind(), TapeEntry::Kind::kCrack);
  EXPECT_EQ(tape.at(0).pred(), RangePredicate::Closed(1, 5));
  EXPECT_EQ(tape.at(1).kind(), TapeEntry::Kind::kCrackBound);
  EXPECT_EQ(tape.at(1).bound(), (Bound{7, false}));
  EXPECT_EQ(tape.at(2).kind(), TapeEntry::Kind::kInsert);
  EXPECT_EQ(tape.at(2).key(), 42u);
  EXPECT_EQ(tape.at(2).head_value(), 99);
  EXPECT_EQ(tape.at(3).kind(), TapeEntry::Kind::kDelete);
  EXPECT_EQ(tape.at(3).pos(), 3u);
  EXPECT_EQ(tape.at(3).key(), 43u);
  EXPECT_EQ(tape.at(3).head_value(), 100);
  EXPECT_EQ(tape.at(4).kind(), TapeEntry::Kind::kSort);
  ASSERT_TRUE(tape.at(4).piece_lower().has_value());
  EXPECT_EQ(*tape.at(4).piece_lower(), (Bound{2, true}));
  EXPECT_FALSE(tape.at(5).piece_lower().has_value());
  tape.Clear();
  EXPECT_TRUE(tape.empty());
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
    const Value v = a.Uniform(10, 20);
    b.Uniform(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
    const double d = a.NextDouble();
    b.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(StatsTest, SummarizeBasics) {
  const SeriesSummary s = Summarize({3, 1, 2, 5, 4});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.total, 15);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(WorkloadTest, UniformRelationShape) {
  Catalog catalog;
  Rng rng(9);
  Relation& rel =
      bench::CreateUniformRelation(&catalog, "R", 4, 1000, 500, &rng);
  EXPECT_EQ(rel.num_columns(), 4u);
  EXPECT_EQ(rel.num_rows(), 1000u);
  EXPECT_EQ(bench::AttrName(3), "A3");
  for (size_t c = 0; c < 4; ++c) {
    for (size_t r = 0; r < 1000; r += 97) {
      EXPECT_GE(rel.column(c)[r], 1);
      EXPECT_LE(rel.column(c)[r], 500);
    }
  }
}

TEST(WorkloadTest, RandomRangeSelectivity) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const RangePredicate pred = bench::RandomRange(&rng, 1, 10000, 0.2);
    EXPECT_GE(pred.low, 1);
    EXPECT_LE(pred.high, 10000);
    // Width ~ 20% of the domain.
    EXPECT_NEAR(static_cast<double>(pred.high - pred.low), 2000.0, 10.0);
  }
  const RangePredicate point = bench::RandomRange(&rng, 1, 100, 0.0);
  EXPECT_EQ(point.low, point.high);
}

TEST(WorkloadTest, SkewedGeneratorHitsHotRegion) {
  Rng rng(11);
  bench::SkewedRangeGen gen;
  gen.domain_lo = 1;
  gen.domain_hi = 10000;
  gen.hot_fraction = 0.5;
  gen.hot_probability = 0.9;
  gen.selectivity = 0.01;
  int hot = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    const RangePredicate pred = gen.Next(&rng);
    if (pred.low <= 5000) ++hot;
  }
  EXPECT_GT(hot, trials * 8 / 10);
  EXPECT_LT(hot, trials);
}

TEST(WorkloadTest, RandomUpdatesAlternateInsertDelete) {
  Catalog catalog;
  Rng rng(12);
  Relation& rel =
      bench::CreateUniformRelation(&catalog, "R", 2, 200, 100, &rng);
  const size_t applied = bench::ApplyRandomUpdates(&rel, 100, 10, &rng);
  EXPECT_EQ(applied, 10u);
  EXPECT_EQ(rel.num_rows(), 205u);   // 5 inserts
  EXPECT_EQ(rel.num_deleted(), 5u);  // 5 deletes
  EXPECT_EQ(rel.log_version(), 10u);
}

TEST(RunnerTest, BenchArgsParse) {
  const char* argv[] = {"prog", "--rows=1234", "--queries=56", "--seed=7",
                        "--paper-scale", "--sf=0.5"};
  const auto args = bench::BenchArgs::Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(args.rows, 1234u);
  EXPECT_EQ(args.queries, 56u);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_TRUE(args.paper_scale);
  EXPECT_DOUBLE_EQ(args.scale_factor, 0.5);
}

TEST(RunnerTest, RunTimedReportsCostsAndMax) {
  Catalog catalog;
  Rng rng(13);
  Relation& rel =
      bench::CreateUniformRelation(&catalog, "R", 3, 2000, 1000, &rng);
  PlainEngine engine(rel);
  QuerySpec spec;
  spec.selections = {{"A1", RangePredicate::Closed(100, 500)}};
  spec.projections = {"A2"};
  const auto outcome = bench::RunTimed(&engine, spec, /*keep_result=*/true);
  EXPECT_GT(outcome.timing.total_micros, 0);
  ASSERT_EQ(outcome.column_max.size(), 1u);
  Value expected = kMinValue;
  for (Value v : outcome.result.columns[0]) expected = std::max(expected, v);
  EXPECT_EQ(outcome.column_max[0], expected);
}

TEST(RunnerTest, RunTimedExcludesPrepareCost) {
  // The presorted engine's copy creation must not count as query time.
  Catalog catalog;
  Rng rng(14);
  Relation& rel =
      bench::CreateUniformRelation(&catalog, "R", 3, 50'000, 10'000, &rng);
  SidewaysEngine sideways(rel);  // no prepare cost: sanity baseline
  QuerySpec spec;
  spec.selections = {{"A1", RangePredicate::Closed(100, 5000)}};
  spec.projections = {"A2"};
  const auto first = bench::RunTimed(&sideways, spec);
  EXPECT_GE(first.timing.total_micros, 0);
}

}  // namespace
}  // namespace crackdb
