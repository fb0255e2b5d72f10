#include "core/map_set.h"

#include <cassert>

#include "updates/ripple.h"

namespace crackdb {

MapSet::MapSet(const Relation& relation, const std::string& head_attr)
    : relation_(&relation),
      head_attr_(head_attr),
      pending_(relation, relation.ColumnOrdinal(head_attr)) {
  const Column& head = relation.column(head_attr);
  const size_t n = head.size();
  snapshot_head_.reserve(relation.num_live_rows());
  snapshot_keys_.reserve(relation.num_live_rows());
  for (size_t i = 0; i < n; ++i) {
    if (relation.IsDeleted(static_cast<Key>(i))) continue;
    snapshot_head_.push_back(head[i]);
    snapshot_keys_.push_back(static_cast<Key>(i));
  }
  key_map_ = BuildFromSnapshot(kKeyMapAttr);
}

std::unique_ptr<CrackerMap> MapSet::BuildFromSnapshot(
    const std::string& tail_attr) const {
  auto map = std::make_unique<CrackerMap>(tail_attr);
  const size_t n = snapshot_head_.size();
  map->store().head = snapshot_head_;  // bulk copy of the head column
  std::vector<Value>& tail_out = map->store().tail;
  tail_out.resize(n);
  if (tail_attr == kKeyMapAttr) {
    for (size_t i = 0; i < n; ++i) {
      tail_out[i] = static_cast<Value>(snapshot_keys_[i]);
    }
  } else {
    const Column& tail = relation_->column(tail_attr);
    for (size_t i = 0; i < n; ++i) {
      tail_out[i] = tail[snapshot_keys_[i]];
    }
  }
  return map;
}

bool MapSet::HasMap(const std::string& tail_attr) const {
  return maps_.count(tail_attr) != 0;
}

CrackerMap& MapSet::GetOrCreateMap(const std::string& tail_attr,
                                   bool* created) {
  auto it = maps_.find(tail_attr);
  if (it != maps_.end()) {
    if (created != nullptr) *created = false;
    return *it->second;
  }
  if (created != nullptr) *created = true;
  auto map = BuildFromSnapshot(tail_attr);
  CrackerMap& ref = *map;
  maps_.emplace(tail_attr, std::move(map));
  return ref;
}

void MapSet::DropMap(const std::string& tail_attr) { maps_.erase(tail_attr); }

Value MapSet::TailValueForKey(const CrackerMap& map, Key key) const {
  if (map.tail_attr() == kKeyMapAttr) return static_cast<Value>(key);
  return relation_->column(map.tail_attr())[key];
}

void MapSet::AlignTo(CrackerMap& map, size_t target_cursor) {
  assert(target_cursor <= tape_.size());
  while (map.cursor() < target_cursor) {
    const TapeEntry& entry = tape_.at(map.cursor());
    const Value insert_tail = entry.kind() == TapeEntry::Kind::kInsert
                                  ? TailValueForKey(map, entry.key())
                                  : 0;
    ReplayTapeEntry(map.store(), map.index(), entry, insert_tail);
    map.set_cursor(map.cursor() + 1);
  }
}

void MapSet::Align(CrackerMap& map) { AlignTo(map, tape_.size()); }

void MapSet::PullUpdates(const RangePredicate& pred) {
  pending_.Pull();
  if (pending_.pending_count() == 0) return;
  const std::vector<PendingUpdate> batch = pending_.ExtractMatching(pred);
  for (const PendingUpdate& u : batch) {
    if (u.kind == UpdateEvent::Kind::kInsert) {
      // Logged once; every map (including M_A,key) applies it during its
      // own alignment, resolving the tail value through the base columns.
      tape_.AppendInsert(u.key, u.head_value);
    } else {
      // Deletions need an aligned position: bring M_A,key to the tape end,
      // locate the key, then log position + key (Section 3.5).
      Align(*key_map_);
      const std::optional<size_t> pos =
          FindEntry(key_map_->store(), key_map_->index(), u.head_value,
                    static_cast<Value>(u.key));
      if (!pos.has_value()) continue;  // row never reached this set
      tape_.AppendDelete(*pos, u.key, u.head_value);
      Align(*key_map_);  // apply the delete we just logged
    }
  }
}

PositionRange MapSet::SidewaysSelect(CrackerMap& map,
                                     const RangePredicate& pred) {
  PullUpdates(pred);
  Align(map);
  const CrackResult result = CrackOnPredicate(map.store(), map.index(), pred);
  if (result.reorganized) {
    tape_.AppendCrack(pred);
  }
  map.set_cursor(tape_.size());
  map.RecordAccess();
  return result.area;
}

CrackerIndex::Estimate MapSet::EstimateMatches(
    const RangePredicate& pred) const {
  // Pick the most aligned map: largest cursor = smallest distance to the
  // tape end = most accurate histogram (Section 3.3).
  const CrackerMap* best = key_map_.get();
  for (const auto& [attr, map] : maps_) {
    if (best == nullptr || map->cursor() > best->cursor()) best = map.get();
  }
  if (best == nullptr || best->index().empty()) {
    CrackerIndex::Estimate est;
    est.lower_bound = 0;
    est.upper_bound = snapshot_head_.size();
    est.interpolated = static_cast<double>(est.upper_bound);
    return est;
  }
  return best->index().EstimateMatches(pred, best->size());
}

size_t MapSet::MapStorageTuples() const {
  size_t total = 0;
  for (const auto& [attr, map] : maps_) total += map->StorageTuples();
  return total;
}

std::vector<std::string> MapSet::MapNames() const {
  std::vector<std::string> names;
  names.reserve(maps_.size());
  for (const auto& [attr, map] : maps_) names.push_back(attr);
  return names;
}

}  // namespace crackdb
