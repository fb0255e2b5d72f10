// Answer verification, kept outside every timed region: a PlainEngine over
// a mirror relation that receives the same writes as the database.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "engine/plain_engine.h"
#include "engine/query.h"
#include "storage/relation.h"
#include "workloads.h"

namespace perfbench {

/// Order-insensitive fingerprint of a query answer: the row multiset for
/// Materialize, the scalar for Count/Sum.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;

  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const crackdb::ExecuteResult& result);

/// One applied write, as the database acknowledged it.
struct WriteRecord {
  bool insert = false;
  crackdb::Key key = crackdb::kInvalidKey;  // database global key
  uint32_t row = 0;  // insert: row index in the client's insert_values
};

class Mirror {
 public:
  /// Copies `source` (the relation the table was registered from).
  explicit Mirror(const crackdb::Relation& source);

  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  /// Replays one of `client`'s writes. Keys are dense in insertion order
  /// in both the database and the mirror, so an insert must get the key
  /// the database gave it. Returns false if the write cannot be mirrored.
  bool Apply(const WriteRecord& w, const ClientInputs& client);

  Digest Answer(const crackdb::Query& query);

  size_t live_rows() const { return relation_.num_live_rows(); }

 private:
  crackdb::Relation relation_;
  std::unique_ptr<crackdb::PlainEngine> engine_;
};

}  // namespace perfbench
