#include "updates/ripple.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/catalog.h"
#include "updates/pending.h"

namespace crackdb {
namespace {

CrackPairs RandomStore(Rng* rng, size_t n, Value domain) {
  CrackPairs store;
  for (size_t i = 0; i < n; ++i) {
    store.PushBack(rng->Uniform(1, domain), static_cast<Value>(i));
  }
  return store;
}

std::multiset<std::pair<Value, Value>> Contents(const CrackPairs& s) {
  std::multiset<std::pair<Value, Value>> out;
  for (size_t i = 0; i < s.size(); ++i) out.insert({s.head[i], s.tail[i]});
  return out;
}

TEST(RippleInsertTest, InsertIntoUncrackedStore) {
  CrackPairs store;
  CrackerIndex index;
  RippleInsert(store, index, 5, 100);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.head[0], 5);
  EXPECT_EQ(store.tail[0], 100);
}

TEST(RippleInsertTest, InsertLandsInCorrectPiece) {
  Rng rng(3);
  CrackPairs store = RandomStore(&rng, 200, 100);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(30, 60));
  for (Value v : {1, 30, 45, 60, 61, 99}) {
    RippleInsert(store, index, v, 9000 + v);
    EXPECT_TRUE(CheckCrackInvariant(store, index)) << "inserting " << v;
    const auto pos = FindEntry(store, index, v, 9000 + v);
    ASSERT_TRUE(pos.has_value()) << "inserting " << v;
    EXPECT_EQ(store.head[*pos], v);
  }
}

TEST(RippleInsertTest, PieceBoundariesShiftCorrectly) {
  CrackPairs store;
  for (Value v : {1, 2, 8, 9, 5, 4}) store.PushBack(v, v * 10);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(4, 5));
  const PositionRange before = index.FindArea(RangePredicate::Closed(4, 5), 6);
  RippleInsert(store, index, 3, 30);  // below the area: shifts it right
  const PositionRange after = index.FindArea(RangePredicate::Closed(4, 5), 7);
  EXPECT_EQ(after.begin, before.begin + 1);
  EXPECT_EQ(after.end, before.end + 1);
  EXPECT_TRUE(CheckCrackInvariant(store, index));
}

TEST(RippleDeleteTest, DeleteMaintainsInvariant) {
  Rng rng(5);
  CrackPairs store = RandomStore(&rng, 200, 100);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(20, 40));
  CrackOnPredicate(store, index, RangePredicate::Closed(60, 80));
  while (store.size() > 150) {
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<Value>(store.size()) - 1));
    const Value head = store.head[pos];
    const Value tail = store.tail[pos];
    RippleDeleteAt(store, index, pos);
    ASSERT_TRUE(CheckCrackInvariant(store, index));
    EXPECT_EQ(Contents(store).count({head, tail}), 0u);
  }
}

TEST(RippleDeleteTest, DeleteLastEntry) {
  CrackPairs store;
  store.PushBack(5, 50);
  CrackerIndex index;
  RippleDeleteAt(store, index, 0);
  EXPECT_EQ(store.size(), 0u);
}

TEST(FindEntryTest, FindsOnlyWithinPiece) {
  CrackPairs store;
  for (Value v : {1, 2, 8, 9, 5, 4}) store.PushBack(v, v * 10);
  CrackerIndex index;
  CrackOnPredicate(store, index, RangePredicate::Closed(4, 5));
  EXPECT_TRUE(FindEntry(store, index, 5, 50).has_value());
  EXPECT_TRUE(FindEntry(store, index, 9, 90).has_value());
  EXPECT_FALSE(FindEntry(store, index, 5, 51).has_value());
  EXPECT_FALSE(FindEntry(store, index, 7, 70).has_value());
}

/// Property: interleaved cracks, inserts and deletes preserve content and
/// the crack invariant, and two identical histories stay byte-identical
/// (the update-replay determinism the tapes depend on).
class RipplePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RipplePropertyTest, InterleavedOperationsStayConsistent) {
  Rng rng(GetParam());
  const Value domain = 1000;
  CrackPairs store = RandomStore(&rng, 500, domain);
  CrackPairs twin;
  twin.head = store.head;
  twin.tail = store.tail;
  CrackerIndex index;
  CrackerIndex twin_index;
  auto expected = Contents(store);
  Value next_tail = 100000;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const Value lo = rng.Uniform(1, domain - 50);
      const RangePredicate pred = RangePredicate::Closed(lo, lo + 50);
      CrackOnPredicate(store, index, pred);
      CrackOnPredicate(twin, twin_index, pred);
    } else if (dice < 0.75) {
      const Value v = rng.Uniform(1, domain);
      const Value t = next_tail++;
      RippleInsert(store, index, v, t);
      RippleInsert(twin, twin_index, v, t);
      expected.insert({v, t});
    } else if (!store.empty()) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<Value>(store.size()) - 1));
      expected.erase(expected.find({store.head[pos], store.tail[pos]}));
      RippleDeleteAt(store, index, pos);
      // Twin deletes the same logical position.
      RippleDeleteAt(twin, twin_index, pos);
    }
    ASSERT_TRUE(CheckCrackInvariant(store, index)) << "step " << step;
    ASSERT_EQ(store.head, twin.head) << "step " << step;
    ASSERT_EQ(store.tail, twin.tail) << "step " << step;
  }
  EXPECT_EQ(Contents(store), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RipplePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(PendingQueueTest, ExtractMatchingIsStableAndCompactsTheRest) {
  Catalog catalog;
  Relation& rel = catalog.CreateRelation("R");
  rel.AddColumn("A");
  PendingQueue queue(rel, 0);
  for (Value v : {5, 50, 7, 70, 9, 90}) {
    const Value row[] = {v};
    rel.AppendRow(row);
  }
  rel.DeleteRow(2);  // the row with A = 7
  queue.Pull();
  ASSERT_EQ(queue.pending_count(), 7u);

  // Nothing matches: the queue is left as it was.
  EXPECT_TRUE(queue.ExtractMatching(RangePredicate::Closed(100, 200)).empty());
  EXPECT_EQ(queue.pending_count(), 7u);

  // Matches leave in arrival order, the insert of row 2 before its delete.
  const std::vector<PendingUpdate> low =
      queue.ExtractMatching(RangePredicate::Closed(1, 10));
  ASSERT_EQ(low.size(), 4u);
  EXPECT_EQ(low[0].head_value, 5);
  EXPECT_EQ(low[1].key, 2u);
  EXPECT_EQ(low[1].kind, UpdateEvent::Kind::kInsert);
  EXPECT_EQ(low[2].head_value, 9);
  EXPECT_EQ(low[3].key, 2u);
  EXPECT_EQ(low[3].kind, UpdateEvent::Kind::kDelete);

  // The rest stays, in arrival order.
  const std::vector<PendingUpdate> rest = queue.ExtractAll();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].head_value, 50);
  EXPECT_EQ(rest[1].head_value, 70);
  EXPECT_EQ(rest[2].head_value, 90);
  EXPECT_EQ(queue.pending_count(), 0u);
}

/// The Ripple algorithm as it ran over the full piece list, kept here as
/// the oracle for the one-pass RippleInsert/RippleDeleteAt. Its index is
/// the list of live splits; each step rebuilds a CrackerIndex from it.
struct OracleStore {
  CrackPairs store;
  std::vector<std::pair<Bound, size_t>> splits;

  CrackerIndex Index() const {
    CrackerIndex index;
    for (const auto& [bound, pos] : splits) index.AddSplit(bound, pos);
    return index;
  }

  void Crack(const RangePredicate& pred) {
    CrackerIndex index = Index();
    CrackOnPredicate(store, index, pred);
    splits = index.LiveSplits();
  }

  void Insert(Value head_value, Value tail_value) {
    const CrackerIndex index = Index();
    const size_t old_size = store.size();
    const CrackerIndex::Piece target =
        index.FindPiece(Bound{head_value, true}, old_size);
    store.PushBack(0, 0);
    size_t hole = old_size;
    const std::vector<CrackerIndex::Piece> pieces = index.Pieces(old_size);
    for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
      if (it->begin < target.end) break;
      if (it->begin == it->end) continue;
      store.MoveEntry(it->begin, hole);
      hole = it->begin;
    }
    ASSERT_EQ(hole, target.end);
    store.SetEntry(hole, head_value, tail_value);
    for (auto& [bound, pos] : splits) {
      if (BoundLess(Bound{head_value, true}, bound)) ++pos;
    }
  }

  void DeleteAt(size_t pos) {
    const CrackerIndex index = Index();
    const size_t old_size = store.size();
    const std::vector<CrackerIndex::Piece> pieces = index.Pieces(old_size);
    size_t target_idx = pieces.size();
    for (size_t i = 0; i < pieces.size(); ++i) {
      if (pos >= pieces[i].begin && pos < pieces[i].end) {
        target_idx = i;
        break;
      }
    }
    ASSERT_LT(target_idx, pieces.size());
    const CrackerIndex::Piece target = pieces[target_idx];
    store.MoveEntry(target.end - 1, pos);
    size_t hole = target.end - 1;
    for (size_t i = target_idx + 1; i < pieces.size(); ++i) {
      const CrackerIndex::Piece& p = pieces[i];
      if (p.begin == p.end) continue;
      store.MoveEntry(p.end - 1, hole);
      hole = p.end - 1;
    }
    ASSERT_EQ(hole, old_size - 1);
    store.PopBack();
    for (auto& [bound, split_pos] : splits) {
      if (split_pos >= target.end) --split_pos;
    }
  }
};

/// Property: the one-pass ripple leaves exactly the store and splits the
/// full-piece-list ripple leaves, across cracks, inserts, deletes, and
/// lazily deleted then revived splits.
class RippleOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RippleOracleTest, MatchesFullPieceListRipple) {
  Rng rng(GetParam());
  const Value domain = 120;  // small: many duplicates and empty pieces
  CrackPairs store = RandomStore(&rng, 300, domain);
  CrackerIndex index;
  OracleStore oracle;
  oracle.store.head = store.head;
  oracle.store.tail = store.tail;
  Value next_tail = 100000;

  for (int step = 0; step < 1500; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.3) {
      RangePredicate pred;
      pred.low = rng.Uniform(0, domain);
      pred.high = pred.low + rng.Uniform(0, 20);
      pred.low_inclusive = rng.Bernoulli(0.5);
      pred.high_inclusive = rng.Bernoulli(0.5);
      if (rng.Bernoulli(0.1)) pred.low = kMinValue;
      if (rng.Bernoulli(0.1)) pred.high = kMaxValue;
      CrackOnPredicate(store, index, pred);
      oracle.Crack(pred);
    } else if (dice < 0.62) {
      // Values just outside the domain reach the first and last pieces.
      const Value v = rng.Uniform(-1, domain + 1);
      const Value t = next_tail++;
      RippleInsert(store, index, v, t);
      oracle.Insert(v, t);
    } else if (dice < 0.99) {
      if (store.empty()) continue;
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<Value>(store.size()) - 1));
      RippleDeleteAt(store, index, pos);
      oracle.DeleteAt(pos);
    } else {
      // Dropping the structure's knowledge: later cracks revive nodes.
      index.MarkAllDeleted();
      oracle.splits.clear();
    }
    ASSERT_FALSE(HasFatalFailure()) << "step " << step;
    ASSERT_EQ(store.head, oracle.store.head) << "step " << step;
    ASSERT_EQ(store.tail, oracle.store.tail) << "step " << step;
    ASSERT_EQ(index.LiveSplits(), oracle.splits) << "step " << step;
    ASSERT_TRUE(CheckCrackInvariant(store, index)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RippleOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace crackdb
