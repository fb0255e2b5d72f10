#ifndef CRACKDB_CRACKING_CRACKER_INDEX_H_
#define CRACKDB_CRACKING_CRACKER_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace crackdb {

/// Comparison over split bounds. A bound `b` names the *threshold of an
/// upper piece*: entries at and beyond the split position satisfy
/// `v >= b.value` when `b.inclusive`, else `v > b.value`. Consequently
/// (v, inclusive) orders before (v, exclusive) at equal values.
inline bool BoundLess(const Bound& a, const Bound& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.inclusive && !b.inclusive;
}

/// Whether `v` belongs to the upper side of split bound `b`.
inline bool SatisfiesBound(const Bound& b, Value v) {
  return b.inclusive ? v >= b.value : v > b.value;
}

/// The cracker index: an AVL tree over split bounds, each node recording
/// the position where the corresponding upper piece starts in the cracked
/// store (paper Section 2.2). Between two adjacent splits lies one *piece*
/// whose value range is known exactly — which is why the paper can read the
/// index as a self-organizing histogram (Section 3.3).
///
/// Nodes live in a per-index segmented arena (blocks of 8, 16, 32, ...
/// nodes that never move) and link to each other by 32-bit ids; positions
/// are 32-bit too, since no store outgrows the 32-bit `Key` space. Every
/// query- and update-path operation costs O(log P + pieces it touches) for
/// P splits; only `Pieces()` and `LiveSplits()` walk the whole tree.
///
/// Nodes support *lazy deletion* (Section 4.1, "Storage Management"): when
/// a chunk or map is dropped its splits are only marked deleted, so that a
/// later recreation replaying the same crack history revives them without
/// re-allocating tree structure.
class CrackerIndex {
 public:
  /// One piece of the cracked store: positions [begin, end). `lower` /
  /// `upper` are the split bounds delimiting it; when `has_lower` is false
  /// the piece extends from the start of the store (no lower split), and
  /// likewise for `has_upper`.
  struct Piece {
    size_t begin = 0;
    size_t end = 0;
    Bound lower;  // valid iff has_lower; entries satisfy this bound
    Bound upper;  // valid iff has_upper; entries do NOT satisfy it
    bool has_lower = false;
    bool has_upper = false;
  };

  /// Result-size estimate derived from the index (self-organizing
  /// histogram): [lower_bound, upper_bound] plus an interpolated estimate.
  struct Estimate {
    size_t lower_bound = 0;
    size_t upper_bound = 0;
    double interpolated = 0;
  };

  /// Walk order of `ShiftSplitsAbove`.
  enum class Order { kAscending, kDescending };

  /// AVL node (24 bytes); public only so implementation helpers can name
  /// it. Deliberately without member initializers: arena blocks are
  /// allocated uninitialized and `Arena::New` writes every field.
  struct Node {
    Value value;     // split bound value
    uint32_t pos;    // first position of the upper piece
    uint32_t left;   // child id, kNil when absent
    uint32_t right;  // child id, kNil when absent
    uint8_t height;  // AVL height of this subtree
    bool inclusive;  // split bound inclusiveness
    bool deleted;    // lazily deleted
    bool any_live;   // some node of this subtree, itself included, is live

    Bound bound() const { return Bound{value, inclusive}; }
  };

  static constexpr uint32_t kNil = UINT32_MAX;

  /// Segmented node storage: block k holds 8 << k nodes, so the arena
  /// never copies a node and its slack is below the node count. Ids are
  /// dense in allocation order.
  class Arena {
   public:
    Node& operator[](uint32_t id) { return blocks_[Block(id)][Offset(id)]; }
    const Node& operator[](uint32_t id) const {
      return blocks_[Block(id)][Offset(id)];
    }
    uint32_t New(const Bound& bound, uint32_t pos);
    uint32_t size() const { return size_; }
    void Clear();

   private:
    static constexpr uint32_t kFirstBlock = 8;
    static size_t Block(uint32_t id) {
      return static_cast<size_t>(std::bit_width(id / kFirstBlock + 1)) - 1;
    }
    static size_t Offset(uint32_t id) {
      return id + kFirstBlock - (size_t{kFirstBlock} << Block(id));
    }

    std::vector<std::unique_ptr<Node[]>> blocks_;
    uint32_t size_ = 0;
  };

  CrackerIndex() = default;
  CrackerIndex(CrackerIndex&& other) noexcept;
  CrackerIndex& operator=(CrackerIndex&& other) noexcept;
  CrackerIndex(const CrackerIndex&) = delete;
  CrackerIndex& operator=(const CrackerIndex&) = delete;

  void Clear();
  bool empty() const { return num_live_ == 0; }

  /// Number of live (non-lazily-deleted) splits.
  size_t num_splits() const { return num_live_; }

  /// Registers that the upper piece for `bound` starts at `pos`. If a
  /// lazily-deleted node with this bound exists it is revived in place.
  void AddSplit(const Bound& bound, size_t pos);

  /// Position of the live split with exactly this bound, if present.
  std::optional<size_t> FindSplit(const Bound& bound) const;

  /// The piece into which `bound` falls, i.e., the gap between the greatest
  /// live split <= bound and the smallest live split > bound.
  /// `store_size` caps the final piece.
  Piece FindPiece(const Bound& bound, size_t store_size) const;

  /// Contiguous area of pieces that can contain values matching `pred`.
  /// (Values strictly below pred.low's bound are excluded on the left,
  /// values beyond pred.high's on the right, to split precision.)
  PositionRange FindArea(const RangePredicate& pred, size_t store_size) const;

  /// All pieces, in value order. Deleted splits are invisible. Walks the
  /// whole index: for invariant checks, the cracker join and policies, not
  /// for per-query or per-update paths.
  std::vector<Piece> Pieces(size_t store_size) const;

  /// Self-organizing histogram: bounds and an interpolated estimate of the
  /// number of tuples matching `pred` (paper Section 3.3, including the
  /// boundary-piece interpolation refinement). Four descents: the pieces
  /// between the two boundary pieces count whole.
  Estimate EstimateMatches(const RangePredicate& pred, size_t store_size) const;

  /// Walks every live split whose bound is strictly greater (in cut order)
  /// than `threshold`, in `order`; calls `visit(pos)` with the split's
  /// position and then moves that position by `delta`. This is the Ripple
  /// algorithm's single pass (updates/ripple.h): the visitor moves one
  /// entry per piece while the index shifts the pieces above the updated
  /// value. O(log P + visited splits).
  template <typename Visit>
  void ShiftSplitsAbove(const Bound& threshold, ptrdiff_t delta, Order order,
                        Visit&& visit) {
    ShiftAbove(root_, threshold, delta, order, visit);
  }

  /// All live splits in cut order as (bound, position) pairs. Chunk
  /// creation clones an area's index through this so that replayed cracks
  /// see identical index states (the precondition for layout determinism).
  std::vector<std::pair<Bound, size_t>> LiveSplits() const;

  /// Exact deep copy of the live splits (lazily-deleted nodes are not
  /// carried over), built balanced in one pass.
  CrackerIndex CloneLive() const;

  /// Lazily deletes every split (dropping a chunk/map). The structure is
  /// retained; AddSplit revives matching nodes.
  void MarkAllDeleted();

  /// Total node count including lazily deleted ones (for tests/metrics).
  size_t num_nodes() const { return nodes_.size(); }

 private:
  template <typename Visit>
  void ShiftAbove(uint32_t id, const Bound& threshold, ptrdiff_t delta,
                  Order order, Visit& visit);
  template <typename Visit>
  void ShiftAll(uint32_t id, ptrdiff_t delta, Order order, Visit& visit);
  template <typename Visit>
  void ShiftNode(Node& n, ptrdiff_t delta, Visit& visit);

  Arena nodes_;
  uint32_t root_ = kNil;
  uint32_t num_live_ = 0;
};

/// Narrows a store position to the index's 32-bit representation; aborts
/// on a position past 2^32 - 1, which no store can reach (Key is 32-bit).
uint32_t NarrowPosition(size_t pos);

template <typename Visit>
void CrackerIndex::ShiftNode(Node& n, ptrdiff_t delta, Visit& visit) {
  if (n.deleted) return;
  visit(static_cast<size_t>(n.pos));
  n.pos = NarrowPosition(
      static_cast<size_t>(static_cast<ptrdiff_t>(n.pos) + delta));
}

template <typename Visit>
void CrackerIndex::ShiftAll(uint32_t id, ptrdiff_t delta, Order order,
                            Visit& visit) {
  const bool asc = order == Order::kAscending;
  while (id != kNil && nodes_[id].any_live) {
    Node& n = nodes_[id];
    ShiftAll(asc ? n.left : n.right, delta, order, visit);
    ShiftNode(n, delta, visit);
    id = asc ? n.right : n.left;
  }
}

template <typename Visit>
void CrackerIndex::ShiftAbove(uint32_t id, const Bound& threshold,
                              ptrdiff_t delta, Order order, Visit& visit) {
  // Descend to the first node above the threshold; every node passed on
  // the way down that lies above it splits the walk into its left part
  // (which may straddle the threshold) and itself plus its right subtree
  // (entirely above). Subtrees without live splits are skipped.
  while (id != kNil && nodes_[id].any_live) {
    Node& n = nodes_[id];
    if (!BoundLess(threshold, n.bound())) {
      id = n.right;
      continue;
    }
    if (order == Order::kAscending) {
      ShiftAbove(n.left, threshold, delta, order, visit);
      ShiftNode(n, delta, visit);
      ShiftAll(n.right, delta, order, visit);
    } else {
      ShiftAll(n.right, delta, order, visit);
      ShiftNode(n, delta, visit);
      ShiftAbove(n.left, threshold, delta, order, visit);
    }
    return;
  }
}

}  // namespace crackdb

#endif  // CRACKDB_CRACKING_CRACKER_INDEX_H_
