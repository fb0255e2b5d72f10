#include "core/chunk_map.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "storage/catalog.h"

namespace crackdb {
namespace {

Relation& BuildRelation(Catalog* catalog, size_t rows, Value domain,
                        uint64_t seed) {
  Relation& rel = catalog->CreateRelation("R");
  rel.AddColumn("A");
  rel.AddColumn("B");
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const Value row[] = {rng.Uniform(1, domain), rng.Uniform(1, domain)};
    rel.BulkLoadRow(row);
  }
  return rel;
}

size_t TotalAreaRows(const ChunkMap& cm) {
  size_t n = 0;
  for (const ChunkMapArea* a : cm.Areas()) n += a->size();
  return n;
}

TEST(ChunkMapTest, StartsWithOneUnfetchedArea) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 1000, 500, 1);
  ChunkMap cm(rel, "A");
  ASSERT_EQ(cm.Areas().size(), 1u);
  EXPECT_FALSE(cm.Areas()[0]->fetched);
  EXPECT_EQ(cm.Areas()[0]->size(), 1000u);
  EXPECT_FALSE(cm.Areas()[0]->start.has_value());
}

TEST(ChunkMapTest, ResolveSplitsUnfetchedBoundaries) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 1000, 500, 2);
  ChunkMap cm(rel, "A");
  const RangePredicate pred = RangePredicate::Closed(100, 200);
  const auto cover = cm.ResolveAreas(pred);
  // The unfetched initial area is cut at both predicate bounds: the cover
  // is exactly one area [100, 200]-ish with no chunk-level cracking left.
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_FALSE(cover[0].crack_low);
  EXPECT_FALSE(cover[0].crack_high);
  EXPECT_EQ(cm.Areas().size(), 3u);
  // Every tuple in the covered area matches the predicate.
  for (Value v : cover[0].area->store.head) EXPECT_TRUE(pred.Matches(v));
  EXPECT_EQ(TotalAreaRows(cm), 1000u);
}

TEST(ChunkMapTest, FetchedAreasAreNotReCut) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 1000, 500, 3);
  ChunkMap cm(rel, "A");
  auto cover = cm.ResolveAreas(RangePredicate::Closed(100, 200));
  ASSERT_EQ(cover.size(), 1u);
  cm.FetchArea(*cover[0].area);
  // A narrower predicate hits the fetched area: it must come back whole,
  // flagged for chunk-level cracking instead of being cut.
  auto cover2 = cm.ResolveAreas(RangePredicate::Closed(120, 180));
  ASSERT_EQ(cover2.size(), 1u);
  EXPECT_EQ(cover2[0].area, cover[0].area);
  EXPECT_TRUE(cover2[0].crack_low);
  EXPECT_TRUE(cover2[0].crack_high);
  EXPECT_EQ(cm.Areas().size(), 3u);  // unchanged
}

TEST(ChunkMapTest, CoverSpansMultipleAreas) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 2000, 1000, 4);
  ChunkMap cm(rel, "A");
  cm.ResolveAreas(RangePredicate::Closed(200, 400));
  cm.ResolveAreas(RangePredicate::Closed(600, 800));
  // Predicate spanning across the already-cut areas.
  const auto cover = cm.ResolveAreas(RangePredicate::Closed(300, 700));
  ASSERT_GE(cover.size(), 3u);
  // Areas come back in value order and tile the predicate.
  size_t total = 0;
  for (const auto& ra : cover) total += ra.area->size();
  size_t expected = 0;
  const RangePredicate wide = RangePredicate::Closed(200, 800);
  // Every covered tuple lies within the union of covering areas (which may
  // exceed the predicate only at chunk-crack boundaries).
  for (const auto& ra : cover) {
    for (Value v : ra.area->store.head) EXPECT_TRUE(wide.Matches(v));
  }
  (void)expected;
  (void)total;
}

TEST(ChunkMapTest, ReleaseLastChunkUnfetchesAndDrainsTape) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 1000, 500, 5);
  ChunkMap cm(rel, "A");
  auto cover = cm.ResolveAreas(RangePredicate::Closed(100, 300));
  ChunkMapArea& area = *cover[0].area;
  cm.FetchArea(area);
  area.tape.AppendCrackBound(Bound{200, true});
  cm.ReleaseArea(area);
  EXPECT_FALSE(area.fetched);
  EXPECT_TRUE(area.tape.empty());
  EXPECT_EQ(area.h_cursor, 0u);
  // The drained crack persists as an interior split (retained knowledge).
  EXPECT_TRUE(area.index.FindSplit(Bound{200, true}).has_value());
  EXPECT_TRUE(CheckCrackInvariant(area.store, area.index));
}

TEST(ChunkMapTest, UpdatesRoutedToUnfetchedAreaApplyPhysically) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 500, 100, 6);
  ChunkMap cm(rel, "A");
  cm.ResolveAreas(RangePredicate::Closed(40, 60));
  const size_t rows_before = TotalAreaRows(cm);
  const Value row[] = {50, 999};
  rel.AppendRow(row);
  cm.PullUpdates(RangePredicate::Closed(40, 60));
  EXPECT_EQ(TotalAreaRows(cm), rows_before + 1);
  ChunkMapArea& area = cm.AreaContaining(50);
  EXPECT_TRUE(area.tape.empty());  // unfetched: applied physically
  bool found = false;
  for (size_t i = 0; i < area.size(); ++i) {
    if (area.store.head[i] == 50 &&
        area.store.tail[i] == static_cast<Value>(rel.num_rows() - 1)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChunkMapTest, UpdatesOnFetchedAreaGoThroughTape) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 500, 100, 7);
  ChunkMap cm(rel, "A");
  auto cover = cm.ResolveAreas(RangePredicate::Closed(40, 60));
  ChunkMapArea& area = *cover[0].area;
  cm.FetchArea(area);
  const Value row[] = {50, 999};
  rel.AppendRow(row);
  cm.PullUpdates(RangePredicate::Closed(40, 60));
  ASSERT_EQ(area.tape.size(), 1u);
  EXPECT_EQ(area.tape.at(0).kind(), TapeEntry::Kind::kInsert);
  EXPECT_EQ(area.tape.at(0).key(), static_cast<Key>(rel.num_rows() - 1));
  EXPECT_EQ(area.tape.at(0).head_value(), 50);
  EXPECT_EQ(area.h_cursor, 1u);  // H applied it immediately
}

TEST(ChunkMapTest, DeleteOnFetchedAreaLogsPosition) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 500, 100, 8);
  ChunkMap cm(rel, "A");
  auto cover = cm.ResolveAreas(RangePredicate::Closed(40, 60));
  ChunkMapArea& area = *cover[0].area;
  cm.FetchArea(area);
  // Find a key inside the area and delete it.
  const Key victim = static_cast<Key>(area.store.tail[0]);
  const size_t size_before = area.size();
  rel.DeleteRow(victim);
  cm.PullUpdates(RangePredicate::Closed(40, 60));
  ASSERT_EQ(area.tape.size(), 1u);
  EXPECT_EQ(area.tape.at(0).kind(), TapeEntry::Kind::kDelete);
  EXPECT_EQ(area.tape.at(0).key(), victim);
  EXPECT_EQ(area.size(), size_before - 1);
}

TEST(ChunkMapTest, EstimateBoundsTruth) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 4000, 1000, 9);
  ChunkMap cm(rel, "A");
  cm.ResolveAreas(RangePredicate::Closed(100, 300));
  cm.ResolveAreas(RangePredicate::Closed(500, 700));
  Rng rng(10);
  for (int q = 0; q < 20; ++q) {
    const Value lo = rng.Uniform(1, 800);
    const RangePredicate pred = RangePredicate::Closed(lo, lo + 150);
    const auto est = cm.EstimateMatches(pred);
    const size_t truth = rel.column("A").CountMatches(pred);
    EXPECT_LE(est.lower_bound, truth) << pred.ToString();
    EXPECT_GE(est.upper_bound, truth) << pred.ToString();
  }
}

TEST(ChunkMapTest, RepeatedResolvesPreserveAllRows) {
  Catalog catalog;
  Relation& rel = BuildRelation(&catalog, 3000, 2000, 11);
  ChunkMap cm(rel, "A");
  Rng rng(12);
  for (int q = 0; q < 50; ++q) {
    const Value lo = rng.Uniform(1, 1800);
    cm.ResolveAreas(RangePredicate::Closed(lo, lo + 200));
    ASSERT_EQ(TotalAreaRows(cm), 3000u) << "query " << q;
  }
  // Areas tile the domain in order.
  const auto areas = cm.Areas();
  for (size_t i = 1; i < areas.size(); ++i) {
    ASSERT_TRUE(areas[i]->start.has_value());
    for (Value v : areas[i]->store.head) {
      EXPECT_TRUE(SatisfiesBound(*areas[i]->start, v));
    }
  }
}

}  // namespace
}  // namespace crackdb
