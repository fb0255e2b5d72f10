#include "cracking/crack.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "kernels/kernels.h"

namespace crackdb {

void CrackPairs::DropHead() {
  head.clear();
  head.shrink_to_fit();
  head_dropped = true;
}

void CrackPairs::RestoreHead(std::vector<Value> recovered) {
  assert(recovered.size() == tail.size());
  head = std::move(recovered);
  head_dropped = false;
}

size_t CrackInTwo(CrackPairs& store, size_t begin, size_t end,
                  const Bound& bound) {
  assert(!store.head_dropped);
  assert(begin <= end && end <= store.size());
  // Dispatched kernel (src/kernels/): the scalar arm is the historical
  // Hoare-style partition, SIMD arms are branch-free out-of-place passes
  // with the same split position and per-side contents.
  return begin + kernels::CrackInTwoPairs(store.head.data() + begin,
                                          store.tail.data() + begin,
                                          end - begin, bound);
}

std::pair<size_t, size_t> CrackInThree(CrackPairs& store, size_t begin,
                                       size_t end, const Bound& lo,
                                       const Bound& hi) {
  assert(!store.head_dropped);
  assert(begin <= end && end <= store.size());
  // Dispatched kernel; the scalar arm is the Dutch-national-flag partition
  // (the paper's crack-in-three from [7]).
  size_t mid_begin = 0;
  size_t hi_begin = 0;
  kernels::CrackInThreePairs(store.head.data() + begin,
                             store.tail.data() + begin, end - begin, lo, hi,
                             &mid_begin, &hi_begin);
  return {begin + mid_begin, begin + hi_begin};
}

std::pair<size_t, bool> EnsureSplit(CrackPairs& store, CrackerIndex& index,
                                    const Bound& bound) {
  if (std::optional<size_t> pos = index.FindSplit(bound)) {
    return {*pos, false};
  }
  const CrackerIndex::Piece piece = index.FindPiece(bound, store.size());
  const size_t split = CrackInTwo(store, piece.begin, piece.end, bound);
  index.AddSplit(bound, split);
  return {split, true};
}

CrackResult CrackOnPredicate(CrackPairs& store, CrackerIndex& index,
                             const RangePredicate& pred) {
  const size_t n = store.size();
  const bool need_lo = !(pred.low == kMinValue && pred.low_inclusive);
  const bool need_hi = !(pred.high == kMaxValue && pred.high_inclusive);
  const Bound b_lo{pred.low, pred.low_inclusive};
  const Bound b_hi{pred.high, !pred.high_inclusive};

  CrackResult result;
  if (!need_lo && !need_hi) {
    result.area = {0, n};
    return result;
  }
  if (need_lo && need_hi && !BoundLess(b_lo, b_hi)) {
    // Degenerate/empty predicate such as the open interval (v, v): still
    // deterministic — place the single lower split and report empty.
    auto [pos, cracked] = EnsureSplit(store, index, b_lo);
    result.area = {pos, pos};
    result.reorganized = cracked;
    return result;
  }

  if (need_lo && need_hi) {
    const bool lo_known = index.FindSplit(b_lo).has_value();
    const bool hi_known = index.FindSplit(b_hi).has_value();
    if (!lo_known && !hi_known) {
      const CrackerIndex::Piece piece_lo = index.FindPiece(b_lo, n);
      const CrackerIndex::Piece piece_hi = index.FindPiece(b_hi, n);
      // Same piece means same [begin, end) — comparing begin alone would
      // conflate an empty piece (a bound below all stored values) with the
      // non-empty piece starting at the same position, and crack-in-three
      // over the empty range would then register both splits at its begin.
      if (piece_lo.begin == piece_hi.begin && piece_lo.end == piece_hi.end) {
        // Both new bounds fall into the same piece: single-pass
        // crack-in-three (paper [7]).
        auto [mid_begin, hi_begin] =
            CrackInThree(store, piece_lo.begin, piece_lo.end, b_lo, b_hi);
        index.AddSplit(b_lo, mid_begin);
        index.AddSplit(b_hi, hi_begin);
        result.area = {mid_begin, hi_begin};
        result.reorganized = true;
        return result;
      }
    }
  }

  size_t area_begin = 0;
  size_t area_end = n;
  if (need_lo) {
    auto [pos, cracked] = EnsureSplit(store, index, b_lo);
    area_begin = pos;
    result.reorganized |= cracked;
  }
  if (need_hi) {
    auto [pos, cracked] = EnsureSplit(store, index, b_hi);
    area_end = pos;
    result.reorganized |= cracked;
  }
  if (area_end < area_begin) area_end = area_begin;
  result.area = {area_begin, area_end};
  return result;
}

PositionRange SortPiece(CrackPairs& store, CrackerIndex& index,
                        const std::optional<Bound>& piece_lower) {
  assert(!store.head_dropped);
  CrackerIndex::Piece piece;
  if (piece_lower.has_value()) {
    piece = index.FindPiece(*piece_lower, store.size());
  } else {
    piece = index.FindPiece(Bound{kMinValue, true}, store.size());
  }
  const size_t len = piece.end - piece.begin;
  if (len <= 1) return {piece.begin, piece.end};
  // Stable permutation sort: deterministic for identical head arrays, so
  // tape replay on sibling chunks reproduces the exact layout.
  std::vector<uint32_t> perm(len);
  std::iota(perm.begin(), perm.end(), 0u);
  const Value* head = store.head.data() + piece.begin;
  std::stable_sort(perm.begin(), perm.end(),
                   [head](uint32_t a, uint32_t b) { return head[a] < head[b]; });
  std::vector<Value> new_head(len);
  std::vector<Value> new_tail(len);
  for (size_t i = 0; i < len; ++i) {
    new_head[i] = store.head[piece.begin + perm[i]];
    new_tail[i] = store.tail[piece.begin + perm[i]];
  }
  const auto dst = static_cast<std::ptrdiff_t>(piece.begin);
  std::copy(new_head.begin(), new_head.end(), store.head.begin() + dst);
  std::copy(new_tail.begin(), new_tail.end(), store.tail.begin() + dst);
  return {piece.begin, piece.end};
}

PositionRange PeekArea(const CrackerIndex& index, const RangePredicate& pred,
                       size_t store_size) {
  return index.FindArea(pred, store_size);
}

bool CheckCrackInvariant(const CrackPairs& store, const CrackerIndex& index) {
  if (store.head_dropped) return true;  // nothing checkable without a head
  for (const CrackerIndex::Piece& p : index.Pieces(store.size())) {
    for (size_t i = p.begin; i < p.end; ++i) {
      const Value v = store.head[i];
      if (p.has_lower && !SatisfiesBound(p.lower, v)) return false;
      if (p.has_upper && SatisfiesBound(p.upper, v)) return false;
    }
  }
  return true;
}

}  // namespace crackdb
