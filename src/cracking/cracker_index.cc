#include "cracking/cracker_index.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace crackdb {

uint32_t NarrowPosition(size_t pos) {
  if (pos > UINT32_MAX) {
    std::fprintf(stderr, "crackdb: store position %zu exceeds 32 bits\n",
                 pos);
    std::abort();
  }
  return static_cast<uint32_t>(pos);
}

uint32_t CrackerIndex::Arena::New(const Bound& bound, uint32_t pos) {
  const uint32_t id = size_++;
  const size_t block = Block(id);
  if (block == blocks_.size()) {
    blocks_.push_back(
        std::make_unique_for_overwrite<Node[]>(size_t{kFirstBlock} << block));
  }
  Node& n = (*this)[id];
  n.value = bound.value;
  n.pos = pos;
  n.left = kNil;
  n.right = kNil;
  n.height = 1;
  n.inclusive = bound.inclusive;
  n.deleted = false;
  n.any_live = true;
  return id;
}

void CrackerIndex::Arena::Clear() {
  blocks_.clear();
  size_ = 0;
}

namespace {

using Node = CrackerIndex::Node;
using Arena = CrackerIndex::Arena;
constexpr uint32_t kNil = CrackerIndex::kNil;

int HeightOf(const Arena& a, uint32_t id) {
  return id == kNil ? 0 : a[id].height;
}

bool AnyLive(const Arena& a, uint32_t id) {
  return id != kNil && a[id].any_live;
}

/// Recomputes the node's height and live flag from its children.
void Update(Arena& a, uint32_t id) {
  Node& n = a[id];
  n.height = static_cast<uint8_t>(
      1 + std::max(HeightOf(a, n.left), HeightOf(a, n.right)));
  n.any_live = !n.deleted || AnyLive(a, n.left) || AnyLive(a, n.right);
}

void RotateRight(Arena& a, uint32_t& link) {
  const uint32_t n = link;
  const uint32_t l = a[n].left;
  a[n].left = a[l].right;
  Update(a, n);
  a[l].right = n;
  link = l;
  Update(a, l);
}

void RotateLeft(Arena& a, uint32_t& link) {
  const uint32_t n = link;
  const uint32_t r = a[n].right;
  a[n].right = a[r].left;
  Update(a, n);
  a[r].left = n;
  link = r;
  Update(a, r);
}

void Rebalance(Arena& a, uint32_t& link) {
  Update(a, link);
  Node& n = a[link];
  const int balance = HeightOf(a, n.left) - HeightOf(a, n.right);
  if (balance > 1) {
    if (HeightOf(a, a[n.left].left) < HeightOf(a, a[n.left].right)) {
      RotateLeft(a, n.left);
    }
    RotateRight(a, link);
  } else if (balance < -1) {
    if (HeightOf(a, a[n.right].right) < HeightOf(a, a[n.right].left)) {
      RotateRight(a, n.right);
    }
    RotateLeft(a, link);
  }
}

/// Inserts (or revives/updates) `bound` -> `pos` below `link`. Returns true
/// if a new node was allocated. Node memory never moves, so `link` may
/// point into a node while the arena grows.
bool Insert(Arena& a, uint32_t& link, const Bound& bound, uint32_t pos,
            bool* revived) {
  if (link == kNil) {
    link = a.New(bound, pos);
    return true;
  }
  Node& n = a[link];
  bool allocated = false;
  if (BoundLess(bound, n.bound())) {
    allocated = Insert(a, n.left, bound, pos, revived);
  } else if (BoundLess(n.bound(), bound)) {
    allocated = Insert(a, n.right, bound, pos, revived);
  } else {
    *revived = n.deleted;
    n.deleted = false;
    n.any_live = true;
    n.pos = pos;
    return false;
  }
  Rebalance(a, link);
  return allocated;
}

uint32_t Find(const Arena& a, uint32_t id, const Bound& bound) {
  while (id != kNil) {
    const Node& n = a[id];
    if (BoundLess(bound, n.bound())) {
      id = n.left;
    } else if (BoundLess(n.bound(), bound)) {
      id = n.right;
    } else {
      return id;
    }
  }
  return kNil;
}

/// Greatest live node of a subtree holding at least one.
uint32_t MaxLive(const Arena& a, uint32_t id) {
  while (true) {
    const Node& n = a[id];
    if (AnyLive(a, n.right)) {
      id = n.right;
    } else if (!n.deleted) {
      return id;
    } else {
      id = n.left;
    }
  }
}

/// Smallest live node of a subtree holding at least one.
uint32_t MinLive(const Arena& a, uint32_t id) {
  while (true) {
    const Node& n = a[id];
    if (AnyLive(a, n.left)) {
      id = n.left;
    } else if (!n.deleted) {
      return id;
    } else {
      id = n.right;
    }
  }
}

/// Greatest live node with node <= bound, or node < bound when `strict`.
/// A deleted node on the path hands the answer to its left subtree's
/// greatest live node, which is still above every earlier candidate.
uint32_t FloorNode(const Arena& a, uint32_t id, const Bound& bound,
                   bool strict) {
  uint32_t best = kNil;
  bool in_subtree = false;  // best names a subtree, not a node
  while (id != kNil) {
    const Node& n = a[id];
    const bool below = strict ? BoundLess(n.bound(), bound)
                              : !BoundLess(bound, n.bound());
    if (below) {
      if (!n.deleted) {
        best = id;
        in_subtree = false;
      } else if (AnyLive(a, n.left)) {
        best = n.left;
        in_subtree = true;
      }
      id = n.right;
    } else {
      id = n.left;
    }
  }
  return in_subtree ? MaxLive(a, best) : best;
}

/// Smallest live node with node >= bound, or node > bound when `strict`
/// (the mirror image of FloorNode).
uint32_t CeilNode(const Arena& a, uint32_t id, const Bound& bound,
                  bool strict) {
  uint32_t best = kNil;
  bool in_subtree = false;
  while (id != kNil) {
    const Node& n = a[id];
    const bool above = strict ? BoundLess(bound, n.bound())
                              : !BoundLess(n.bound(), bound);
    if (above) {
      if (!n.deleted) {
        best = id;
        in_subtree = false;
      } else if (AnyLive(a, n.right)) {
        best = n.right;
        in_subtree = true;
      }
      id = n.left;
    } else {
      id = n.right;
    }
  }
  return in_subtree ? MinLive(a, best) : best;
}

/// The piece between live splits `lower` and `upper` (kNil = none).
CrackerIndex::Piece MakePiece(const Arena& a, uint32_t lower, uint32_t upper,
                              size_t store_size) {
  CrackerIndex::Piece piece;
  piece.end = store_size;
  if (lower != kNil) {
    piece.begin = a[lower].pos;
    piece.lower = a[lower].bound();
    piece.has_lower = true;
  }
  if (upper != kNil) {
    piece.end = a[upper].pos;
    piece.upper = a[upper].bound();
    piece.has_upper = true;
  }
  return piece;
}

/// Calls fn(node) for every live node in cut order.
template <typename Fn>
void InOrderLive(const Arena& a, uint32_t id, Fn& fn) {
  while (AnyLive(a, id)) {
    const Node& n = a[id];
    InOrderLive(a, n.left, fn);
    if (!n.deleted) fn(n);
    id = n.right;
  }
}

/// Links the sorted splits [lo, hi) into a balanced subtree; returns its
/// root.
uint32_t BuildBalanced(Arena& a,
                       const std::vector<std::pair<Bound, size_t>>& splits,
                       size_t lo, size_t hi) {
  if (lo >= hi) return kNil;
  const size_t mid = lo + (hi - lo) / 2;
  const uint32_t id =
      a.New(splits[mid].first, NarrowPosition(splits[mid].second));
  const uint32_t left = BuildBalanced(a, splits, lo, mid);
  const uint32_t right = BuildBalanced(a, splits, mid + 1, hi);
  a[id].left = left;
  a[id].right = right;
  Update(a, id);
  return id;
}

}  // namespace

CrackerIndex::CrackerIndex(CrackerIndex&& other) noexcept
    : nodes_(std::exchange(other.nodes_, Arena{})),
      root_(std::exchange(other.root_, kNil)),
      num_live_(std::exchange(other.num_live_, 0)) {}

CrackerIndex& CrackerIndex::operator=(CrackerIndex&& other) noexcept {
  if (this != &other) {
    nodes_ = std::exchange(other.nodes_, Arena{});
    root_ = std::exchange(other.root_, kNil);
    num_live_ = std::exchange(other.num_live_, 0);
  }
  return *this;
}

void CrackerIndex::Clear() {
  nodes_.Clear();
  root_ = kNil;
  num_live_ = 0;
}

void CrackerIndex::AddSplit(const Bound& bound, size_t pos) {
  bool revived = false;
  const bool allocated =
      Insert(nodes_, root_, bound, NarrowPosition(pos), &revived);
  if (allocated || revived) ++num_live_;
}

std::optional<size_t> CrackerIndex::FindSplit(const Bound& bound) const {
  const uint32_t id = Find(nodes_, root_, bound);
  if (id == kNil || nodes_[id].deleted) return std::nullopt;
  return nodes_[id].pos;
}

CrackerIndex::Piece CrackerIndex::FindPiece(const Bound& bound,
                                            size_t store_size) const {
  return MakePiece(nodes_, FloorNode(nodes_, root_, bound, false),
                   CeilNode(nodes_, root_, bound, true), store_size);
}

PositionRange CrackerIndex::FindArea(const RangePredicate& pred,
                                     size_t store_size) const {
  // Lower edge: pieces entirely below the predicate start are excluded.
  // The tightest known start is the greatest split bound that admits no
  // value below pred's lower edge, i.e., floor of Bound{low, low_inclusive}.
  size_t begin = 0;
  if (pred.low != kMinValue) {
    const uint32_t lo =
        FloorNode(nodes_, root_, Bound{pred.low, pred.low_inclusive}, false);
    if (lo != kNil) begin = nodes_[lo].pos;
  }
  size_t end = store_size;
  if (pred.high != kMaxValue) {
    const uint32_t hi = CeilNode(
        nodes_, root_, Bound{pred.high, !pred.high_inclusive}, false);
    if (hi != kNil) end = nodes_[hi].pos;
  }
  if (begin > end) begin = end;
  return {begin, end};
}

std::vector<CrackerIndex::Piece> CrackerIndex::Pieces(
    size_t store_size) const {
  std::vector<Piece> pieces;
  pieces.reserve(num_live_ + 1);
  Piece current;
  auto visit = [&](const Node& n) {
    current.end = n.pos;
    current.upper = n.bound();
    current.has_upper = true;
    pieces.push_back(current);
    current = Piece{};
    current.begin = n.pos;
    current.lower = n.bound();
    current.has_lower = true;
  };
  InOrderLive(nodes_, root_, visit);
  current.end = store_size;
  current.has_upper = false;
  pieces.push_back(current);
  return pieces;
}

CrackerIndex::Estimate CrackerIndex::EstimateMatches(
    const RangePredicate& pred, size_t store_size) const {
  // Every split bound is a *cut point* in value space: Bound{v, inclusive}
  // cuts just below v, Bound{v, exclusive} just above it (BoundLess is the
  // cut order). A piece spans the half-open cut interval
  // [cut(lower), cut(upper)); the predicate spans
  // [cut{low, low_inclusive}, cut{high, !high_inclusive}).
  Estimate est;
  const Bound pred_lo{pred.low, pred.low_inclusive};
  const Bound pred_hi{pred.high, !pred.high_inclusive};
  const bool lo_unbounded = pred.low == kMinValue && pred.low_inclusive;
  const bool hi_unbounded = pred.high == kMaxValue && pred.high_inclusive;
  auto cut_leq = [](const Bound& a, const Bound& b) {
    return !BoundLess(b, a);
  };
  // Adds one piece the predicate may overlap.
  auto add_piece = [&](const Piece& p) {
    if (p.begin >= p.end) return;
    // Disjoint: piece entirely below pred (upper cut <= pred lower cut) or
    // entirely above (pred upper cut <= piece lower cut).
    if (!lo_unbounded && p.has_upper && cut_leq(p.upper, pred_lo)) return;
    if (!hi_unbounded && p.has_lower && cut_leq(pred_hi, p.lower)) return;
    const size_t sz = p.end - p.begin;
    est.upper_bound += sz;

    const bool low_inside =
        lo_unbounded || (p.has_lower && cut_leq(pred_lo, p.lower));
    const bool high_inside =
        hi_unbounded || (p.has_upper && cut_leq(p.upper, pred_hi));
    if (low_inside && high_inside) {
      est.lower_bound += sz;
      est.interpolated += static_cast<double>(sz);
      return;
    }
    // Boundary piece: interpolate the matching fraction assuming uniform
    // values within the piece's known value interval (Section 3.3 suggests
    // exactly this tightening).
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
  };

  // The pieces that can overlap the predicate form one run: from the piece
  // holding cut pred_lo (the first piece when unbounded) to the last piece
  // starting below cut pred_hi (the last piece when unbounded). Every piece
  // strictly inside the run lies fully inside the predicate, so only the
  // run's two ends need the per-piece test.
  const uint32_t first_lower =
      lo_unbounded ? kNil : FloorNode(nodes_, root_, pred_lo, false);
  const uint32_t first_upper =
      lo_unbounded ? CeilNode(nodes_, root_, Bound{kMinValue, true}, false)
                   : CeilNode(nodes_, root_, pred_lo, true);
  const uint32_t last_lower =
      hi_unbounded ? FloorNode(nodes_, root_, Bound{kMaxValue, false}, false)
                   : FloorNode(nodes_, root_, pred_hi, true);
  const uint32_t last_upper =
      hi_unbounded ? kNil : CeilNode(nodes_, root_, pred_hi, false);
  if (first_upper == last_upper) {
    add_piece(MakePiece(nodes_, first_lower, first_upper, store_size));
    return est;
  }
  // A piece is named by its upper split (kNil = the last piece): the run is
  // empty when its last piece comes before its first, which only a
  // degenerate predicate (pred_hi <= pred_lo) can cause.
  if (first_upper == kNil ||
      (last_upper != kNil &&
       BoundLess(nodes_[last_upper].bound(), nodes_[first_upper].bound()))) {
    return est;
  }
  const Piece first = MakePiece(nodes_, first_lower, first_upper, store_size);
  const Piece last = MakePiece(nodes_, last_lower, last_upper, store_size);
  add_piece(first);
  if (first.end < last.begin) {
    const size_t inner = last.begin - first.end;
    est.lower_bound += inner;
    est.upper_bound += inner;
    est.interpolated += static_cast<double>(inner);
  }
  add_piece(last);
  return est;
}

std::vector<std::pair<Bound, size_t>> CrackerIndex::LiveSplits() const {
  std::vector<std::pair<Bound, size_t>> splits;
  splits.reserve(num_live_);
  auto visit = [&](const Node& n) { splits.emplace_back(n.bound(), n.pos); };
  InOrderLive(nodes_, root_, visit);
  return splits;
}

CrackerIndex CrackerIndex::CloneLive() const {
  const std::vector<std::pair<Bound, size_t>> splits = LiveSplits();
  CrackerIndex clone;
  clone.root_ = BuildBalanced(clone.nodes_, splits, 0, splits.size());
  clone.num_live_ = static_cast<uint32_t>(splits.size());
  return clone;
}

void CrackerIndex::MarkAllDeleted() {
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    nodes_[id].deleted = true;
    nodes_[id].any_live = false;
  }
  num_live_ = 0;
}

}  // namespace crackdb
