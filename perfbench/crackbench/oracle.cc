#include "oracle.h"

#include <span>
#include <vector>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  return x ^ (x >> 33);
}

uint64_t HashValues(std::span<const uint64_t> values) {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (uint64_t v : values) h = Mix(h ^ v) + 0x9E3779B97F4A7C15ull;
  return h;
}

}  // namespace

Digest DigestOf(const crackdb::ExecuteResult& result) {
  Digest d;
  if (result.kind != crackdb::ConsumeKind::kMaterialize &&
      result.kind != crackdb::ConsumeKind::kForEach) {
    d.count = result.count;
    if (result.kind == crackdb::ConsumeKind::kAggregate) {
      d.hash = result.aggregate_valid
                   ? Mix(static_cast<uint64_t>(result.aggregate))
                   : 1;
    }
    return d;
  }
  const crackdb::QueryResult& rows = result.rows;
  d.count = rows.num_rows;
  std::vector<uint64_t> row(rows.columns.size());
  for (size_t r = 0; r < rows.num_rows; ++r) {
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      row[c] = static_cast<uint64_t>(rows.columns[c][r]);
    }
    d.hash += HashValues(row);  // a sum: insensitive to row order
  }
  return d;
}

Mirror::Mirror(const crackdb::Relation& source)
    : relation_(source.name() + "_mirror") {
  for (const std::string& name : source.column_names()) {
    relation_.AddColumn(name);
  }
  std::vector<crackdb::Value> row(source.num_columns());
  for (size_t r = 0; r < source.num_rows(); ++r) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = source.column(c)[r];
    relation_.BulkLoadRow(row);
  }
  engine_ = std::make_unique<crackdb::PlainEngine>(relation_);
}

bool Mirror::Apply(const WriteRecord& w, const ClientInputs& client) {
  if (w.insert) {
    const size_t attrs = relation_.num_columns();
    const std::span<const crackdb::Value> row(
        client.insert_values.data() + static_cast<size_t>(w.row) * attrs,
        attrs);
    return relation_.AppendRow(row) == w.key;
  }
  if (w.key >= relation_.num_rows() || relation_.IsDeleted(w.key)) {
    return false;
  }
  relation_.DeleteRow(w.key);
  return true;
}

Digest Mirror::Answer(const crackdb::Query& query) {
  return DigestOf(engine_->Execute(query.spec, query.consume));
}

}  // namespace perfbench
