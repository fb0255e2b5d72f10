#include "updates/ripple.h"

#include <cassert>

namespace crackdb {

void RippleInsert(CrackPairs& store, CrackerIndex& index, Value head_value,
                  Value tail_value) {
  assert(!store.head_dropped);
  const size_t old_size = store.size();
  store.PushBack(0, 0);  // hole at position old_size
  // Walk the splits above the value from the top: the piece starting at
  // each donates its first entry to the hole at its end, effectively
  // shifting by one, and its split moves up. The hole always sits at the
  // end of the piece being visited, so an empty piece moves its entry onto
  // itself. Splits of empty pieces can sit at the target piece's end with
  // bounds the new value satisfies; those are not above the value and stay.
  size_t hole = old_size;
  auto fill_from_piece_starting_at = [&](size_t piece_begin) {
    store.MoveEntry(piece_begin, hole);
    hole = piece_begin;
  };
  index.ShiftSplitsAbove(Bound{head_value, true}, +1,
                         CrackerIndex::Order::kDescending,
                         fill_from_piece_starting_at);
  store.SetEntry(hole, head_value, tail_value);
}

void RippleDeleteAt(CrackPairs& store, CrackerIndex& index, size_t pos) {
  assert(!store.head_dropped);
  const size_t old_size = store.size();
  assert(pos < old_size);
  // Walk the splits above the deleted value upwards: the piece ending at
  // each (first the one holding `pos`) donates its last entry to the hole,
  // and its upper split moves down. The last piece ends at the store end.
  // Past the first piece the hole sits just before the piece being
  // visited, so an empty piece moves its entry onto itself.
  size_t hole = pos;
  auto fill_from_piece_ending_at = [&](size_t piece_end) {
    store.MoveEntry(piece_end - 1, hole);
    hole = piece_end - 1;
  };
  index.ShiftSplitsAbove(Bound{store.head[pos], true}, -1,
                         CrackerIndex::Order::kAscending,
                         fill_from_piece_ending_at);
  fill_from_piece_ending_at(old_size);
  assert(hole == old_size - 1);
  store.PopBack();
}

std::optional<size_t> FindEntry(const CrackPairs& store,
                                const CrackerIndex& index, Value head_value,
                                Value tail_value) {
  const CrackerIndex::Piece piece =
      index.FindPiece(Bound{head_value, true}, store.size());
  for (size_t i = piece.begin; i < piece.end; ++i) {
    if (store.tail[i] == tail_value && store.head[i] == head_value) return i;
  }
  return std::nullopt;
}

}  // namespace crackdb
