#include "core/partial_sideways.h"

#include <algorithm>
#include <cassert>

#include "common/bitvector.h"
#include "kernels/kernels.h"

namespace crackdb {

PartialMapSet::PartialMapSet(const Relation& relation,
                             const std::string& head_attr,
                             StorageManager* manager,
                             const PartialConfig* config)
    : relation_(&relation),
      head_attr_(head_attr),
      manager_(manager),
      config_(config),
      chunk_map_(relation, head_attr) {}

PartialMap& PartialMapSet::GetOrCreateMap(const std::string& tail_attr) {
  auto it = maps_.find(tail_attr);
  if (it == maps_.end()) {
    it = maps_
             .emplace(tail_attr, std::make_unique<PartialMap>(
                                     *relation_, head_attr_, tail_attr))
             .first;
  }
  return *it->second;
}

bool PartialMapSet::HasMap(const std::string& tail_attr) const {
  return maps_.count(tail_attr) != 0;
}

MapChunk& PartialMapSet::ObtainChunk(PartialMap& map, ChunkMapArea& area) {
  if (MapChunk* existing = map.FindChunk(area.start)) {
    manager_->Pin(existing->sm_id);
    return *existing;
  }
  const size_t cost = 2 * area.size();
  manager_->EnsureRoom(cost);
  chunk_map_.FetchArea(area);
  MapChunk& chunk = map.CreateChunk(area);
  PartialMap* map_ptr = &map;
  ChunkMap* cm = &chunk_map_;
  const AreaStart start = area.start;
  chunk.sm_id = manager_->Register(cost, [map_ptr, cm, start]() {
    if (ChunkMapArea* a = cm->AreaByStart(start)) cm->ReleaseArea(*a);
    map_ptr->DropChunk(start);
  });
  manager_->Pin(chunk.sm_id);
  return chunk;
}

void PartialMapSet::ApplyHeadDropPolicies(MapChunk& chunk) {
  if (!config_->enable_head_drop || chunk.store.head_dropped) return;
  if (chunk.size() == 0) return;
  // Policy 1: every piece fits in the CPU cache (paper Section 4.1) — the
  // chunk is cracked finely enough that future cracks degrade to cheap
  // in-cache sorts.
  if (!chunk.index.empty()) {
    bool all_small = true;
    for (const CrackerIndex::Piece& p : chunk.index.Pieces(chunk.size())) {
      if (p.end - p.begin > config_->sort_piece_threshold) {
        all_small = false;
        break;
      }
    }
    if (all_small) {
      DropChunkHead(chunk);
      return;
    }
  }
  // Policy 2: not cracked recently — queries use its pieces "as is".
  if (chunk.accesses - chunk.last_crack_access >=
      config_->head_drop_idle_accesses) {
    DropChunkHead(chunk);
  }
}

void PartialMapSet::DropChunkHead(MapChunk& chunk) {
  chunk.store.DropHead();
  manager_->UpdateCost(chunk.sm_id, chunk.StorageHalfTuples());
}

PartialQueryResult PartialMapSet::Execute(const PartialQueryRequest& req) {
  // Working set of tail attributes: selections first, then projections.
  std::vector<std::string> attrs;
  auto add_attr = [&](const std::string& a) {
    if (a == head_attr_) return;
    if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
      attrs.push_back(a);
    }
  };
  for (const auto& [attr, pred] : req.tail_selections) add_attr(attr);
  for (const std::string& attr : req.projections) add_attr(attr);

  PartialQueryResult result;
  result.columns.resize(req.projections.size());

  const RangePredicate& pred = req.head_pred;
  const Bound b_lo{pred.low, pred.low_inclusive};
  const Bound b_hi{pred.high, !pred.high_inclusive};

  std::vector<ChunkMap::ResolvedArea> cover = chunk_map_.ResolveAreas(pred);

  for (const ChunkMap::ResolvedArea& ra : cover) {
    ChunkMapArea& area = *ra.area;
    const bool is_boundary = ra.crack_low || ra.crack_high;

    if (attrs.empty()) {
      // Head-only query: the chunk map's own (A,key) store answers it.
      if (is_boundary) {
        if (area.fetched) {
          chunk_map_.AlignArea(area);
          if (ra.crack_low && !area.index.FindSplit(b_lo).has_value()) {
            area.tape.AppendCrackBound(b_lo);
          }
          if (ra.crack_high && !area.index.FindSplit(b_hi).has_value()) {
            area.tape.AppendCrackBound(b_hi);
          }
          chunk_map_.AlignArea(area);
        } else {
          // No chunks derive from an unfetched area: crack in place.
          if (ra.crack_low) {
            ReplayTapeEntry(area.store, area.index,
                            TapeEntry::CrackBound(b_lo), 0);
          }
          if (ra.crack_high) {
            ReplayTapeEntry(area.store, area.index,
                            TapeEntry::CrackBound(b_hi), 0);
          }
        }
      }
      const PositionRange r =
          is_boundary ? area.index.FindArea(pred, area.size())
                      : PositionRange{0, area.size()};
      for (size_t pi = 0; pi < req.projections.size(); ++pi) {
        assert(req.projections[pi] == head_attr_);
        result.columns[pi].insert(result.columns[pi].end(),
                                  area.store.head.begin() + r.begin,
                                  area.store.head.begin() + r.end);
      }
      result.num_rows += r.size();
      continue;
    }

    // Chunk-wise processing (paper Section 4.1): obtain every needed chunk
    // for this area, align mutually, crack boundaries, run operators.
    std::vector<PartialMap*> chunk_owners;
    std::vector<MapChunk*> chunks;
    chunk_owners.reserve(attrs.size());
    chunks.reserve(attrs.size());
    for (const std::string& attr : attrs) {
      PartialMap& pm = GetOrCreateMap(attr);
      chunk_owners.push_back(&pm);
      chunks.push_back(&ObtainChunk(pm, area));
    }
    PartialMap& ref_map = *chunk_owners.front();
    MapChunk& ref = *chunks.front();

    // Partial alignment (paper Section 4.1): interior chunks only align up
    // to the highest cursor among the chunks this query uses; boundary
    // chunks can also stop early if the needed bound shows up on the way.
    size_t target = area.min_replay_cursor;  // updates are never skippable
    for (MapChunk* c : chunks) target = std::max(target, c->cursor);
    // Head recovery for a chunk the area store has overtaken uses the
    // rebuild path, which lands the chunk at the area's cursor. Fold that
    // cursor into the target so every sibling aligns to the same point and
    // recovery can never desynchronize the query's chunks.
    for (MapChunk* c : chunks) {
      if (c->store.head_dropped && area.h_cursor > c->cursor) {
        target = std::max(target, area.h_cursor);
      }
    }
    bool cracked_now = false;
    if (is_boundary) {
      ref_map.AlignChunk(ref, area, target);
      const bool miss_at_partial =
          (ra.crack_low && !ref.index.FindSplit(b_lo).has_value()) ||
          (ra.crack_high && !ref.index.FindSplit(b_hi).has_value());
      if (miss_at_partial) {
        ref_map.AlignChunk(ref, area, area.tape.size());
        const bool miss_lo =
            ra.crack_low && !ref.index.FindSplit(b_lo).has_value();
        const bool miss_hi =
            ra.crack_high && !ref.index.FindSplit(b_hi).has_value();
        if (miss_lo || miss_hi) {
          // Optionally sort cache-sized pieces before cracking them so the
          // head can be dropped later (Section 4.1).
          auto maybe_sort = [&](const Bound& b) {
            if (!config_->enable_head_drop) return;
            const CrackerIndex::Piece piece =
                ref.index.FindPiece(b, ref.size());
            const size_t len = piece.end - piece.begin;
            if (len > 1 && len <= config_->sort_piece_threshold) {
              area.tape.AppendSort(piece.has_lower
                                       ? std::optional<Bound>(piece.lower)
                                       : std::nullopt);
            }
          };
          if (miss_lo) {
            maybe_sort(b_lo);
            area.tape.AppendCrackBound(b_lo);
          }
          if (miss_hi) {
            maybe_sort(b_hi);
            area.tape.AppendCrackBound(b_hi);
          }
          ref_map.AlignChunk(ref, area, area.tape.size());
          cracked_now = true;
        }
        target = area.tape.size();
      }
    }
    for (size_t i = 0; i < chunks.size(); ++i) {
      chunk_owners[i]->AlignChunk(*chunks[i], area, target);
    }

    const PositionRange r = is_boundary
                                ? ref.index.FindArea(pred, ref.size())
                                : PositionRange{0, ref.size()};

    // Conjunctive bit-vector pipeline over the aligned chunk slices.
    BitVector bv;
    bool bv_valid = false;
    for (const auto& [attr, tail_pred] : req.tail_selections) {
      const size_t ai = static_cast<size_t>(
          std::find(attrs.begin(), attrs.end(), attr) - attrs.begin());
      const std::vector<Value>& tail = chunks[ai]->store.tail;
      // Bit i of bv corresponds to tail[r.begin + i]; run the kernel over
      // the shifted pointer to keep the indices aligned.
      if (!bv_valid) {
        bv = BitVector(r.size(), false);
        bv_valid = true;
        kernels::MatchBitmap(tail.data() + r.begin, 0, r.size(), tail_pred,
                             bv.word_data(), kernels::BitmapMode::kAssign);
      } else {
        kernels::MatchBitmap(tail.data() + r.begin, 0, r.size(), tail_pred,
                             bv.word_data(), kernels::BitmapMode::kAnd);
      }
    }

    // Gather projections.
    for (size_t pi = 0; pi < req.projections.size(); ++pi) {
      const std::string& proj = req.projections[pi];
      const std::vector<Value>* source = nullptr;
      if (proj == head_attr_) {
        if (ref.store.head_dropped) ref_map.RecoverHead(ref, area);
        source = &ref.store.head;
      } else {
        const size_t ai = static_cast<size_t>(
            std::find(attrs.begin(), attrs.end(), proj) - attrs.begin());
        source = &chunks[ai]->store.tail;
      }
      std::vector<Value>& out = result.columns[pi];
      if (!bv_valid) {
        out.insert(out.end(), source->begin() + r.begin,
                   source->begin() + r.end);
      } else {
        for (size_t i = 0; i < r.size(); ++i) {
          if (bv.Get(i)) out.push_back((*source)[r.begin + i]);
        }
      }
    }
    result.num_rows += bv_valid ? bv.Count() : r.size();

    // Access statistics and head-drop policies.
    for (MapChunk* c : chunks) {
      ++c->accesses;
      if (cracked_now) c->last_crack_access = c->accesses;
      manager_->RecordAccess(c->sm_id);
      ApplyHeadDropPolicies(*c);
      manager_->UpdateCost(c->sm_id, c->StorageHalfTuples());
    }
  }

  // End of query: nothing stays pinned, and the budget is re-enforced —
  // a query whose working set transiently exceeded T (pinned chunks are
  // never evicted mid-query) sheds the excess now.
  manager_->UnpinAll();
  manager_->EnsureRoom(0);
  return result;
}

CrackerIndex::Estimate PartialMapSet::EstimateMatches(
    const RangePredicate& pred) {
  return chunk_map_.EstimateMatches(pred);
}

size_t PartialMapSet::StorageHalfTuples() const {
  size_t total = 0;
  for (const auto& [attr, map] : maps_) total += map->StorageHalfTuples();
  return total;
}

}  // namespace crackdb
