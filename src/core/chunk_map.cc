#include "core/chunk_map.h"

#include <cassert>

#include "updates/ripple.h"

namespace crackdb {

ChunkMap::ChunkMap(const Relation& relation, const std::string& head_attr)
    : relation_(&relation),
      head_attr_(head_attr),
      pending_(relation, relation.ColumnOrdinal(head_attr)) {
  const Column& head = relation.column(head_attr);
  ChunkMapArea area;
  area.start = std::nullopt;
  area.store.Reserve(relation.num_live_rows());
  const size_t n = head.size();
  for (size_t i = 0; i < n; ++i) {
    if (relation.IsDeleted(static_cast<Key>(i))) continue;
    area.store.PushBack(head[i], static_cast<Value>(i));
  }
  areas_.emplace(std::nullopt, std::move(area));
}

ChunkMapArea& ChunkMap::AreaContaining(Value v) {
  // Greatest area start <= cut(Bound{v, inclusive}): the area whose value
  // range contains v.
  auto it = areas_.upper_bound(AreaStart(Bound{v, true}));
  assert(it != areas_.begin());
  --it;
  return it->second;
}

ChunkMapArea* ChunkMap::AreaByStart(const AreaStart& start) {
  auto it = areas_.find(start);
  return it == areas_.end() ? nullptr : &it->second;
}

void ChunkMap::AlignArea(ChunkMapArea& area) {
  while (area.h_cursor < area.tape.size()) {
    const TapeEntry& entry = area.tape.at(area.h_cursor);
    ReplayTapeEntry(area.store, area.index, entry, KeyTail(entry));
    ++area.h_cursor;
  }
}

void ChunkMap::FetchArea(ChunkMapArea& area) {
  AlignArea(area);
  area.fetched = true;
  ++area.refs;
}

void ChunkMap::ReleaseArea(ChunkMapArea& area) {
  assert(area.refs > 0);
  if (--area.refs == 0) {
    // Last chunk gone: drain remaining tape knowledge into the store, then
    // remove the tape and mark unfetched (paper Section 4.1). Interior
    // splits remain — the learning is retained, lazy-deletion style.
    AlignArea(area);
    area.tape.Clear();
    area.h_cursor = 0;
    area.min_replay_cursor = 0;
    area.fetched = false;
  }
}

void ChunkMap::ApplyUpdate(const PendingUpdate& update) {
  ChunkMapArea& area = AreaContaining(update.head_value);
  if (!area.fetched) {
    // No chunks derive from this area: apply physically, no logging.
    if (update.kind == UpdateEvent::Kind::kInsert) {
      RippleInsert(area.store, area.index, update.head_value,
                   static_cast<Value>(update.key));
    } else if (auto pos = FindEntry(area.store, area.index, update.head_value,
                                    static_cast<Value>(update.key))) {
      RippleDeleteAt(area.store, area.index, *pos);
    }
    return;
  }
  // Fetched: updates go through the area tape so every chunk replays them
  // in the same order relative to cracks.
  AlignArea(area);
  if (update.kind == UpdateEvent::Kind::kInsert) {
    area.tape.AppendInsert(update.key, update.head_value);
  } else {
    const std::optional<size_t> pos =
        FindEntry(area.store, area.index, update.head_value,
                  static_cast<Value>(update.key));
    if (!pos.has_value()) return;  // row never reached this set
    area.tape.AppendDelete(*pos, update.key, update.head_value);
  }
  area.min_replay_cursor = area.tape.size();
  AlignArea(area);  // apply the entry we just logged
}

void ChunkMap::PullUpdates(const RangePredicate& pred) {
  pending_.Pull();
  if (pending_.pending_count() == 0) return;
  for (const PendingUpdate& u : pending_.ExtractMatching(pred)) {
    ApplyUpdate(u);
  }
}

void ChunkMap::SplitAreaAt(ChunkMapArea& area, const Bound& bound) {
  assert(!area.fetched);
  assert(area.tape.empty());
  // Locate (or create) the split inside the area.
  size_t split;
  if (std::optional<size_t> pos = area.index.FindSplit(bound)) {
    split = *pos;
  } else {
    const CrackerIndex::Piece piece =
        area.index.FindPiece(bound, area.store.size());
    split = CrackInTwo(area.store, piece.begin, piece.end, bound);
  }
  // Carve off the upper part into a new area starting at `bound`.
  ChunkMapArea upper;
  upper.start = bound;
  const size_t n = area.store.size();
  upper.store.Reserve(n - split);
  for (size_t i = split; i < n; ++i) {
    upper.store.PushBack(area.store.head[i], area.store.tail[i]);
  }
  area.store.head.resize(split);
  area.store.tail.resize(split);
  // Partition interior splits: strictly below `bound` stay, strictly above
  // move (rebased); a split equal to `bound` becomes the area boundary.
  CrackerIndex lower_index;
  for (const auto& [b, pos] : area.index.LiveSplits()) {
    if (BoundLess(b, bound)) {
      lower_index.AddSplit(b, pos);
    } else if (BoundLess(bound, b)) {
      upper.index.AddSplit(b, pos - split);
    }
  }
  area.index = std::move(lower_index);
  areas_.emplace(AreaStart(bound), std::move(upper));
}

std::vector<ChunkMap::ResolvedArea> ChunkMap::ResolveAreas(
    const RangePredicate& pred) {
  PullUpdates(pred);
  const bool need_lo = !(pred.low == kMinValue && pred.low_inclusive);
  const bool need_hi = !(pred.high == kMaxValue && pred.high_inclusive);
  const Bound b_lo{pred.low, pred.low_inclusive};
  const Bound b_hi{pred.high, !pred.high_inclusive};

  if (need_lo) {
    auto it = areas_.upper_bound(AreaStart(b_lo));
    assert(it != areas_.begin());
    --it;
    ChunkMapArea& area = it->second;
    const bool at_boundary =
        area.start.has_value() && !BoundLess(*area.start, b_lo) &&
        !BoundLess(b_lo, *area.start);
    if (!at_boundary && !area.fetched) SplitAreaAt(area, b_lo);
  }
  if (need_hi && (!need_lo || BoundLess(b_lo, b_hi))) {
    auto it = areas_.upper_bound(AreaStart(b_hi));
    assert(it != areas_.begin());
    --it;
    ChunkMapArea& area = it->second;
    const bool at_boundary =
        area.start.has_value() && !BoundLess(*area.start, b_hi) &&
        !BoundLess(b_hi, *area.start);
    if (!at_boundary && !area.fetched) SplitAreaAt(area, b_hi);
  }

  // Collect the covering areas: from the area containing cut(b_lo) through
  // the area containing the last value below cut(b_hi).
  std::vector<ResolvedArea> covering;
  auto begin_it = areas_.begin();
  if (need_lo) {
    begin_it = areas_.upper_bound(AreaStart(b_lo));
    assert(begin_it != areas_.begin());
    --begin_it;
  }
  for (auto it = begin_it; it != areas_.end(); ++it) {
    if (need_hi && it->second.start.has_value() &&
        !BoundLess(*it->second.start, b_hi)) {
      break;  // area starts at or beyond the predicate's upper cut
    }
    ResolvedArea ra;
    ra.area = &it->second;
    // Low edge strictly inside: this can only be the first covering area.
    ra.crack_low = need_lo && covering.empty() &&
                   (!it->second.start.has_value() ||
                    BoundLess(*it->second.start, b_lo));
    // High edge strictly inside: cut(b_hi) below this area's upper cut.
    auto next = std::next(it);
    const bool upper_unbounded =
        next == areas_.end() || !next->first.has_value();
    ra.crack_high = need_hi && (upper_unbounded ||
                                BoundLess(b_hi, *next->first));
    covering.push_back(ra);
  }
  return covering;
}

std::vector<const ChunkMapArea*> ChunkMap::Areas() const {
  std::vector<const ChunkMapArea*> out;
  out.reserve(areas_.size());
  for (const auto& [start, area] : areas_) out.push_back(&area);
  return out;
}

std::vector<ChunkMapArea*> ChunkMap::MutableAreas() {
  std::vector<ChunkMapArea*> out;
  out.reserve(areas_.size());
  for (auto& [start, area] : areas_) out.push_back(&area);
  return out;
}

CrackerIndex::Estimate ChunkMap::EstimateMatches(
    const RangePredicate& pred) const {
  // Assemble a directory-level histogram: each area is one piece bounded
  // by its start and its successor's start; interior splits refine the
  // boundary areas.
  CrackerIndex::Estimate total;
  const Bound pred_lo{pred.low, pred.low_inclusive};
  const Bound pred_hi{pred.high, !pred.high_inclusive};
  const bool lo_unbounded = pred.low == kMinValue && pred.low_inclusive;
  const bool hi_unbounded = pred.high == kMaxValue && pred.high_inclusive;
  for (auto it = areas_.begin(); it != areas_.end(); ++it) {
    const ChunkMapArea& area = it->second;
    auto next = std::next(it);
    const AreaStart upper = next == areas_.end() ? AreaStart{} : next->first;
    // Disjoint checks in cut space.
    if (!lo_unbounded && next != areas_.end() && upper.has_value() &&
        !BoundLess(pred_lo, *upper)) {
      continue;  // area entirely below the predicate
    }
    if (!hi_unbounded && area.start.has_value() &&
        !BoundLess(*area.start, pred_hi)) {
      continue;  // area entirely above
    }
    // Fully inside: the area's lower cut is at/after the predicate's lower
    // cut, and its upper cut at/before the predicate's upper cut.
    const bool low_inside = lo_unbounded || (area.start.has_value() &&
                                             !BoundLess(*area.start, pred_lo));
    const bool high_inside =
        hi_unbounded ||
        (next != areas_.end() && upper.has_value() &&
         !BoundLess(pred_hi, *upper));
    if (low_inside && high_inside) {
      total.lower_bound += area.size();
      total.upper_bound += area.size();
      total.interpolated += static_cast<double>(area.size());
    } else {
      const CrackerIndex::Estimate e =
          area.index.EstimateMatches(pred, area.size());
      total.lower_bound += e.lower_bound;
      total.upper_bound += e.upper_bound;
      total.interpolated += e.interpolated;
    }
  }
  return total;
}

size_t ChunkMap::total_rows() const {
  size_t n = 0;
  for (const auto& [start, area] : areas_) n += area.size();
  return n;
}

}  // namespace crackdb
