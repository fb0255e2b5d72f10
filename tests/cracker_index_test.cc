#include "cracking/cracker_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace crackdb {
namespace {

TEST(BoundTest, CutOrder) {
  // (v, inclusive) cuts just below v, (v, exclusive) just above it.
  EXPECT_TRUE(BoundLess(Bound{5, true}, Bound{5, false}));
  EXPECT_FALSE(BoundLess(Bound{5, false}, Bound{5, true}));
  EXPECT_TRUE(BoundLess(Bound{4, false}, Bound{5, true}));
  EXPECT_FALSE(BoundLess(Bound{5, true}, Bound{5, true}));
}

TEST(BoundTest, SatisfiesBound) {
  EXPECT_TRUE(SatisfiesBound(Bound{5, true}, 5));
  EXPECT_FALSE(SatisfiesBound(Bound{5, false}, 5));
  EXPECT_TRUE(SatisfiesBound(Bound{5, false}, 6));
  EXPECT_FALSE(SatisfiesBound(Bound{5, true}, 4));
}

TEST(CrackerIndexTest, EmptyIndex) {
  CrackerIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.num_splits(), 0u);
  const auto piece = index.FindPiece(Bound{10, true}, 100);
  EXPECT_EQ(piece.begin, 0u);
  EXPECT_EQ(piece.end, 100u);
  EXPECT_FALSE(piece.has_lower);
  EXPECT_FALSE(piece.has_upper);
  const auto pieces = index.Pieces(100);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 100u);
}

TEST(CrackerIndexTest, AddAndFindSplit) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  index.AddSplit(Bound{20, false}, 70);
  EXPECT_EQ(index.num_splits(), 2u);
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 40u);
  EXPECT_EQ(index.FindSplit(Bound{20, false}).value(), 70u);
  EXPECT_FALSE(index.FindSplit(Bound{10, false}).has_value());
  EXPECT_FALSE(index.FindSplit(Bound{15, true}).has_value());
}

TEST(CrackerIndexTest, FindPieceBetweenSplits) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  index.AddSplit(Bound{20, true}, 70);
  const auto piece = index.FindPiece(Bound{15, true}, 100);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 70u);
  ASSERT_TRUE(piece.has_lower);
  ASSERT_TRUE(piece.has_upper);
  EXPECT_EQ(piece.lower.value, 10);
  EXPECT_EQ(piece.upper.value, 20);
}

TEST(CrackerIndexTest, FindPieceAtExactSplit) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 40);
  // The cut (10, true) is itself a split: floor is that split, the piece
  // starts there.
  const auto piece = index.FindPiece(Bound{10, true}, 100);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 100u);
}

TEST(CrackerIndexTest, PiecesEnumeration) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  index.AddSplit(Bound{30, true}, 80);
  const auto pieces = index.Pieces(100);
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 30u);
  EXPECT_EQ(pieces[1].begin, 30u);
  EXPECT_EQ(pieces[1].end, 60u);
  EXPECT_EQ(pieces[2].begin, 60u);
  EXPECT_EQ(pieces[2].end, 80u);
  EXPECT_EQ(pieces[3].begin, 80u);
  EXPECT_EQ(pieces[3].end, 100u);
  EXPECT_FALSE(pieces[0].has_lower);
  EXPECT_TRUE(pieces[3].has_lower);
  EXPECT_FALSE(pieces[3].has_upper);
}

TEST(CrackerIndexTest, FindAreaCoversPredicate) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  // Predicate [10, 20] matches splits exactly: area = [30, 60).
  const PositionRange area =
      index.FindArea(RangePredicate::Closed(10, 20), 100);
  EXPECT_EQ(area.begin, 30u);
  EXPECT_EQ(area.end, 60u);
  // Wider predicate extends into neighbouring pieces.
  const PositionRange wide = index.FindArea(RangePredicate::Closed(5, 25), 100);
  EXPECT_EQ(wide.begin, 0u);
  EXPECT_EQ(wide.end, 100u);
}

TEST(CrackerIndexTest, ShiftSplitsAbove) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);
  index.AddSplit(Bound{20, false}, 60);
  index.AddSplit(Bound{30, true}, 80);
  // Only splits strictly above the threshold move; the walk visits their
  // positions from the top down for a descending walk.
  std::vector<size_t> visited;
  index.ShiftSplitsAbove(Bound{20, true}, +2,
                         CrackerIndex::Order::kDescending,
                         [&](size_t pos) { visited.push_back(pos); });
  EXPECT_EQ(visited, (std::vector<size_t>{80, 60}));
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 30u);
  EXPECT_EQ(index.FindSplit(Bound{20, true}).value(), 60u);
  EXPECT_EQ(index.FindSplit(Bound{20, false}).value(), 62u);
  EXPECT_EQ(index.FindSplit(Bound{30, true}).value(), 82u);
  visited.clear();
  index.ShiftSplitsAbove(Bound{kMinValue, true}, -1,
                         CrackerIndex::Order::kAscending,
                         [&](size_t pos) { visited.push_back(pos); });
  EXPECT_EQ(visited, (std::vector<size_t>{30, 60, 62, 82}));
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 29u);
  EXPECT_EQ(index.FindSplit(Bound{30, true}).value(), 81u);
}

TEST(CrackerIndexTest, LazyDeletionAndRevival) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);
  index.MarkAllDeleted();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_FALSE(index.FindSplit(Bound{10, true}).has_value());
  // Deleted splits are invisible to piece queries.
  const auto piece = index.FindPiece(Bound{15, true}, 100);
  EXPECT_EQ(piece.begin, 0u);
  EXPECT_EQ(piece.end, 100u);
  // Re-adding revives in place without allocating.
  index.AddSplit(Bound{10, true}, 35);
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_EQ(index.num_splits(), 1u);
  EXPECT_EQ(index.FindSplit(Bound{10, true}).value(), 35u);
}

TEST(CrackerIndexTest, LiveSplitsAndClone) {
  CrackerIndex index;
  index.AddSplit(Bound{20, false}, 60);
  index.AddSplit(Bound{10, true}, 30);
  const auto splits = index.LiveSplits();
  ASSERT_EQ(splits.size(), 2u);
  EXPECT_EQ(splits[0].first.value, 10);
  EXPECT_EQ(splits[1].first.value, 20);
  const CrackerIndex clone = index.CloneLive();
  EXPECT_EQ(clone.num_splits(), 2u);
  EXPECT_EQ(clone.FindSplit(Bound{20, false}).value(), 60u);
}

TEST(CrackerIndexTest, EstimateExactOnBoundaryMatch) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, false}, 60);
  const auto est = index.EstimateMatches(RangePredicate::Closed(10, 20), 100);
  EXPECT_EQ(est.lower_bound, 30u);
  EXPECT_EQ(est.upper_bound, 30u);
  EXPECT_DOUBLE_EQ(est.interpolated, 30.0);
}

TEST(CrackerIndexTest, EstimateBoundsBoundaryPieces) {
  CrackerIndex index;
  index.AddSplit(Bound{10, true}, 30);
  index.AddSplit(Bound{20, true}, 60);
  index.AddSplit(Bound{30, true}, 80);
  // Predicate [15, 25]: middle piece [10,20)@[30,60) and piece [20,30)@
  // [60,80) are boundary pieces; nothing is fully inside.
  const auto est = index.EstimateMatches(RangePredicate::Closed(15, 25), 100);
  EXPECT_EQ(est.lower_bound, 0u);
  EXPECT_EQ(est.upper_bound, 50u);
  EXPECT_GT(est.interpolated, 0.0);
  EXPECT_LT(est.interpolated, 50.0);
}

/// Property: the AVL index agrees with a std::map reference under random
/// insertion orders; structural queries match on every prefix.
class CrackerIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrackerIndexPropertyTest, MatchesOrderedMapReference) {
  Rng rng(GetParam());
  CrackerIndex index;
  auto cmp = [](const Bound& a, const Bound& b) { return BoundLess(a, b); };
  std::map<Bound, size_t, decltype(cmp)> reference(cmp);
  const size_t store_size = 10000;

  for (int step = 0; step < 300; ++step) {
    const Bound b{rng.Uniform(0, 1000), rng.Bernoulli(0.5)};
    const size_t pos = static_cast<size_t>(rng.Uniform(0, 9999));
    index.AddSplit(b, pos);
    reference[b] = pos;

    EXPECT_EQ(index.num_splits(), reference.size());
    // Probe a random bound.
    const Bound probe{rng.Uniform(0, 1000), rng.Bernoulli(0.5)};
    auto it = reference.find(probe);
    const auto found = index.FindSplit(probe);
    EXPECT_EQ(found.has_value(), it != reference.end());
    if (found.has_value()) {
      EXPECT_EQ(*found, it->second);
    }

    // Piece around the probe must match floor/ceil of the reference.
    const auto piece = index.FindPiece(probe, store_size);
    auto ub = reference.upper_bound(probe);
    if (ub == reference.end()) {
      EXPECT_FALSE(piece.has_upper);
      EXPECT_EQ(piece.end, store_size);
    } else {
      ASSERT_TRUE(piece.has_upper);
      EXPECT_EQ(piece.end, ub->second);
      EXPECT_EQ(piece.upper, ub->first);
    }
    if (ub == reference.begin()) {
      EXPECT_FALSE(piece.has_lower);
      EXPECT_EQ(piece.begin, 0u);
    } else {
      ASSERT_TRUE(piece.has_lower);
      --ub;
      EXPECT_EQ(piece.begin, ub->second);
      EXPECT_EQ(piece.lower, ub->first);
    }
  }
  // The in-order split dump must match the reference exactly.
  const auto splits = index.LiveSplits();
  ASSERT_EQ(splits.size(), reference.size());
  size_t i = 0;
  for (const auto& [bound, pos] : reference) {
    EXPECT_EQ(splits[i].first, bound);
    EXPECT_EQ(splits[i].second, pos);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackerIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

static_assert(sizeof(CrackerIndex::Node) <= 24, "index nodes are 24 bytes");

/// The estimate as a sum over every piece, kept here as the oracle for the
/// descent-based CrackerIndex::EstimateMatches.
CrackerIndex::Estimate OracleEstimate(const CrackerIndex& index,
                                      const RangePredicate& pred,
                                      size_t store_size) {
  CrackerIndex::Estimate est;
  const Bound pred_lo{pred.low, pred.low_inclusive};
  const Bound pred_hi{pred.high, !pred.high_inclusive};
  const bool lo_unbounded = pred.low == kMinValue && pred.low_inclusive;
  const bool hi_unbounded = pred.high == kMaxValue && pred.high_inclusive;
  auto cut_leq = [](const Bound& a, const Bound& b) {
    return !BoundLess(b, a);
  };
  for (const CrackerIndex::Piece& p : index.Pieces(store_size)) {
    if (p.begin >= p.end) continue;
    if (!lo_unbounded && p.has_upper && cut_leq(p.upper, pred_lo)) continue;
    if (!hi_unbounded && p.has_lower && cut_leq(pred_hi, p.lower)) continue;
    const size_t sz = p.end - p.begin;
    est.upper_bound += sz;
    const bool low_inside =
        lo_unbounded || (p.has_lower && cut_leq(pred_lo, p.lower));
    const bool high_inside =
        hi_unbounded || (p.has_upper && cut_leq(p.upper, pred_hi));
    if (low_inside && high_inside) {
      est.lower_bound += sz;
      est.interpolated += static_cast<double>(sz);
      continue;
    }
    const double piece_lo = p.has_lower ? static_cast<double>(p.lower.value)
                                        : static_cast<double>(pred.low);
    const double piece_hi = p.has_upper ? static_cast<double>(p.upper.value)
                                        : static_cast<double>(pred.high);
    const double sel_lo = std::max(piece_lo, static_cast<double>(pred.low));
    const double sel_hi = std::min(piece_hi, static_cast<double>(pred.high));
    const double width = piece_hi - piece_lo;
    const double frac =
        width > 0 ? std::clamp((sel_hi - sel_lo) / width, 0.0, 1.0) : 0.5;
    est.interpolated += frac * static_cast<double>(sz);
  }
  return est;
}

/// Distinct random bounds over a small value domain (so equal values with
/// both inclusiveness flags occur), in cut order.
std::vector<Bound> RandomBounds(Rng* rng, size_t count, Value domain) {
  std::vector<Bound> bounds;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(Bound{rng->Uniform(0, domain), rng->Bernoulli(0.5)});
  }
  std::sort(bounds.begin(), bounds.end(), BoundLess);
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

/// Non-decreasing positions in [0, store_size], one per bound; about a
/// third of the pieces come out empty.
std::vector<size_t> RandomPositions(Rng* rng, size_t count,
                                    size_t store_size) {
  std::vector<size_t> positions;
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!rng->Bernoulli(0.35)) {
      pos += static_cast<size_t>(rng->Uniform(
          0, static_cast<Value>(2 * store_size / (count + 1))));
    }
    pos = std::min(pos, store_size);
    positions.push_back(pos);
  }
  return positions;
}

/// Adds `bounds[i] -> positions[i]` in a random order.
void AddShuffled(Rng* rng, CrackerIndex* index,
                 const std::vector<Bound>& bounds,
                 const std::vector<size_t>& positions) {
  std::vector<size_t> order(bounds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng->Uniform(
                  0, static_cast<Value>(i) - 1))]);
  }
  for (size_t i : order) index->AddSplit(bounds[i], positions[i]);
}

RangePredicate RandomPredicate(Rng* rng, Value domain) {
  RangePredicate pred;
  const double shape = rng->NextDouble();
  pred.low = rng->Uniform(-2, domain + 2);
  pred.high = rng->Uniform(-2, domain + 2);
  pred.low_inclusive = rng->Bernoulli(0.5);
  pred.high_inclusive = rng->Bernoulli(0.5);
  if (shape < 0.1) {
    pred = RangePredicate{};  // unbounded
  } else if (shape < 0.2) {
    pred.low = kMinValue;  // one-sided: only an upper edge
    pred.low_inclusive = true;
  } else if (shape < 0.3) {
    pred.high = kMaxValue;  // one-sided: only a lower edge
    pred.high_inclusive = true;
  } else if (shape < 0.35) {
    pred.low = kMinValue;  // bounded at the extreme values, exclusive
    pred.low_inclusive = false;
  } else if (shape < 0.4) {
    pred.high = kMaxValue;
    pred.high_inclusive = false;
  } else if (shape < 0.5) {
    pred.high = pred.low;  // point or empty (v, v) predicate
  } else if (shape < 0.6) {
    std::swap(pred.low, pred.high);  // often degenerate: low >= high
    if (pred.low < pred.high) std::swap(pred.low, pred.high);
  } else if (pred.low > pred.high) {
    std::swap(pred.low, pred.high);
  }
  return pred;
}

void ExpectEstimatesEqual(const CrackerIndex& index,
                          const RangePredicate& pred, size_t store_size) {
  const CrackerIndex::Estimate got = index.EstimateMatches(pred, store_size);
  const CrackerIndex::Estimate want = OracleEstimate(index, pred, store_size);
  EXPECT_EQ(got.lower_bound, want.lower_bound) << pred.ToString();
  EXPECT_EQ(got.upper_bound, want.upper_bound) << pred.ToString();
  EXPECT_LE(std::abs(got.interpolated - want.interpolated),
            1e-9 * std::max(1.0, std::abs(want.interpolated)))
      << pred.ToString() << " got " << got.interpolated << " want "
      << want.interpolated;
}

/// Property: the descent-based estimate equals the sum over all pieces on
/// randomized indexes with empty pieces, duplicate values and lazily
/// deleted then revived splits, for unbounded, one-sided and degenerate
/// predicates alike.
class EstimatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimatePropertyTest, MatchesSumOverPieces) {
  Rng rng(GetParam());
  const Value domain = 60;
  for (int round = 0; round < 60; ++round) {
    const size_t store_size = static_cast<size_t>(rng.Uniform(0, 500));
    const size_t count = static_cast<size_t>(rng.Uniform(0, 40));
    CrackerIndex index;
    if (rng.Bernoulli(0.5)) {
      // A dropped history: nodes that later splits revive or leave dead.
      const std::vector<Bound> old_bounds = RandomBounds(&rng, count, domain);
      AddShuffled(&rng, &index, old_bounds,
                  RandomPositions(&rng, old_bounds.size(), store_size));
      index.MarkAllDeleted();
      ExpectEstimatesEqual(index, RandomPredicate(&rng, domain), store_size);
    }
    const std::vector<Bound> bounds = RandomBounds(&rng, count, domain);
    AddShuffled(&rng, &index, bounds,
                RandomPositions(&rng, bounds.size(), store_size));
    ASSERT_EQ(index.num_splits(), bounds.size());
    for (int q = 0; q < 50; ++q) {
      ExpectEstimatesEqual(index, RandomPredicate(&rng, domain), store_size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CrackerIndexArenaTest, MoveLeavesSourceEmptyAndReusable) {
  CrackerIndex index;
  for (Value v = 0; v < 100; ++v) {
    index.AddSplit(Bound{v, true}, static_cast<size_t>(v));
  }
  const auto splits = index.LiveSplits();
  CrackerIndex moved(std::move(index));
  EXPECT_EQ(moved.LiveSplits(), splits);
  EXPECT_EQ(moved.num_nodes(), 100u);
  EXPECT_EQ(index.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(index.empty());
  index.AddSplit(Bound{7, false}, 3);
  EXPECT_EQ(index.FindSplit(Bound{7, false}).value(), 3u);

  CrackerIndex assigned;
  assigned.AddSplit(Bound{1, true}, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.LiveSplits(), splits);
  EXPECT_EQ(assigned.num_nodes(), 100u);
  EXPECT_EQ(moved.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.LiveSplits().empty());
}

TEST(CrackerIndexArenaTest, CloneLiveCopiesOnlyLiveSplits) {
  CrackerIndex index;
  for (Value v = 0; v < 50; ++v) {
    index.AddSplit(Bound{v, v % 2 == 0}, static_cast<size_t>(2 * v));
  }
  index.MarkAllDeleted();
  for (Value v = 10; v < 20; ++v) {
    index.AddSplit(Bound{v, v % 2 == 0}, static_cast<size_t>(v));
  }
  index.AddSplit(Bound{100, true}, 30);
  EXPECT_EQ(index.num_nodes(), 51u);
  const CrackerIndex clone = index.CloneLive();
  EXPECT_EQ(clone.num_nodes(), 11u);  // deleted nodes are not carried over
  EXPECT_EQ(clone.num_splits(), 11u);
  EXPECT_EQ(clone.LiveSplits(), index.LiveSplits());
  for (Value v = 0; v < 110; ++v) {
    const Bound b{v, true};
    EXPECT_EQ(clone.FindSplit(b), index.FindSplit(b));
    const auto cp = clone.FindPiece(b, 40);
    const auto ip = index.FindPiece(b, 40);
    EXPECT_EQ(cp.begin, ip.begin);
    EXPECT_EQ(cp.end, ip.end);
  }
  EXPECT_EQ(CrackerIndex().CloneLive().num_nodes(), 0u);
}

TEST(CrackerIndexArenaTest, ClearReleasesEveryNode) {
  CrackerIndex index;
  for (Value v = 0; v < 1000; ++v) {
    index.AddSplit(Bound{v, true}, static_cast<size_t>(v));
  }
  index.Clear();
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.LiveSplits().empty());
  index.AddSplit(Bound{5, true}, 9);
  EXPECT_EQ(index.num_nodes(), 1u);
  EXPECT_EQ(index.FindSplit(Bound{5, true}).value(), 9u);
}

TEST(CrackerIndexArenaTest, RevivalReusesNodesAcrossBlocks) {
  // Enough splits to span several arena blocks (8, 16, 32, ... nodes).
  CrackerIndex index;
  const Value n = 5000;
  for (Value v = 0; v < n; ++v) {
    index.AddSplit(Bound{(v * 7919) % n, true}, static_cast<size_t>(v));
  }
  EXPECT_EQ(index.num_nodes(), static_cast<size_t>(n));
  index.MarkAllDeleted();
  EXPECT_EQ(index.num_splits(), 0u);
  EXPECT_EQ(index.num_nodes(), static_cast<size_t>(n));
  for (Value v = 0; v < n; v += 2) {
    index.AddSplit(Bound{v, true}, static_cast<size_t>(v));
  }
  EXPECT_EQ(index.num_nodes(), static_cast<size_t>(n));  // all revived
  EXPECT_EQ(index.num_splits(), static_cast<size_t>(n / 2));
  index.AddSplit(Bound{3, false}, 3);  // a new bound allocates
  EXPECT_EQ(index.num_nodes(), static_cast<size_t>(n) + 1);
  const auto splits = index.LiveSplits();
  ASSERT_EQ(splits.size(), static_cast<size_t>(n / 2) + 1);
  for (size_t i = 1; i < splits.size(); ++i) {
    EXPECT_TRUE(BoundLess(splits[i - 1].first, splits[i].first));
    EXPECT_LE(splits[i - 1].second, splits[i].second);
  }
}

}  // namespace
}  // namespace crackdb
