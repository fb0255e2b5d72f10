// Codec-layer contract (storage/codec.h): ChooseCodec picks by the
// documented stats thresholds; every codec round-trips bit-for-bit
// (including wrapping INT64_MIN-based FOR frames); and the encoded-domain
// query entry points (count/select/fold/filtered-fold/gather-fold) agree
// with a direct oracle over the raw values for every predicate shape.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace crackdb {
namespace {

using kernels::FoldOp;

/// A config with a low row floor so small test columns are eligible.
CompressionConfig TestConfig() {
  CompressionConfig config;
  config.enabled = true;
  config.min_rows = 8;
  return config;
}

std::vector<Value> Uniform(Rng* rng, size_t n, Value lo, Value hi) {
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(lo, hi);
  return v;
}

/// `distinct` values drawn uniformly — dictionary-shaped when distinct is
/// far below n, with values spread wide so FOR would need many bits.
std::vector<Value> LowCardinality(Rng* rng, size_t n, size_t distinct) {
  std::vector<Value> alphabet(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    alphabet[i] = static_cast<Value>(i) * 1'000'000'007;
  }
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = alphabet[static_cast<size_t>(
        rng->Uniform(0, static_cast<Value>(distinct) - 1))];
  }
  return v;
}

/// Long runs (average length ~len) over a small domain.
std::vector<Value> Runs(Rng* rng, size_t n, size_t len, Value domain) {
  std::vector<Value> v(n);
  Value level = rng->Uniform(1, domain);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(1.0 / static_cast<double>(len))) {
      level = rng->Uniform(1, domain);
    }
    v[i] = level;
  }
  return v;
}

/// Predicate shapes mirrored from kernel_test's oracle matrix.
std::vector<RangePredicate> Predicates(Value lo, Value hi) {
  // Unsigned: the full-domain range [kMinValue, kMaxValue] overflows Value.
  const uint64_t third_span =
      (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 3;
  const Value third =
      static_cast<Value>(static_cast<uint64_t>(lo) + third_span);
  const Value two_thirds =
      static_cast<Value>(static_cast<uint64_t>(lo) + 2 * third_span);
  return {
      RangePredicate::Closed(third, two_thirds),
      RangePredicate::Open(third, two_thirds),
      RangePredicate::HalfOpen(third, two_thirds),
      RangePredicate::Point(third),
      RangePredicate{},                    // everything
      RangePredicate::Open(third, third),  // empty interval
      RangePredicate{kMinValue, third, true, true},
      RangePredicate{third, kMaxValue, true, true},
      RangePredicate{kMinValue, kMaxValue, false, false},
  };
}

struct OracleResult {
  size_t count = 0;
  std::vector<Key> keys;
  Value sum = 0;  // wrapping mod 2^64, like the kernels
  Value min = 0;
  Value max = 0;
  bool valid = false;
};

OracleResult Oracle(const std::vector<Value>& values,
                    const RangePredicate& pred, Key base) {
  OracleResult r;
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!pred.Matches(values[i])) continue;
    ++r.count;
    r.keys.push_back(base + static_cast<Key>(i));
    sum += static_cast<uint64_t>(values[i]);
    if (!r.valid) {
      r.min = r.max = values[i];
      r.valid = true;
    } else {
      r.min = std::min(r.min, values[i]);
      r.max = std::max(r.max, values[i]);
    }
  }
  r.sum = static_cast<Value>(sum);
  return r;
}

/// Encodes with `kind` (asserting success) and checks the full encoded
/// query surface against the raw oracle.
void CheckEncodedAgainstOracle(const std::vector<Value>& values,
                               CodecKind kind) {
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumn(values, kind, &enc)) << CodecName(kind);
  ASSERT_EQ(enc.kind, kind);
  ASSERT_EQ(enc.n, values.size());

  // Round trip, bulk and random access.
  EXPECT_EQ(DecodeColumn(enc), values) << CodecName(kind);
  Rng rng(13);
  for (int probe = 0; probe < 64 && !values.empty(); ++probe) {
    const size_t i = static_cast<size_t>(
        rng.Uniform(0, static_cast<Value>(values.size()) - 1));
    ASSERT_EQ(DecodeAt(enc, i), values[i]) << CodecName(kind) << " i=" << i;
  }

  const auto [lo_it, hi_it] =
      std::minmax_element(values.begin(), values.end());
  const Value lo = values.empty() ? 0 : *lo_it;
  const Value hi = values.empty() ? 0 : *hi_it;
  for (const RangePredicate& pred : Predicates(lo, hi)) {
    const OracleResult want = Oracle(values, pred, 100);
    EXPECT_EQ(EncodedCount(enc, pred), want.count) << CodecName(kind);

    std::vector<Key> keys;
    EncodedSelect(enc, pred, 100, &keys);
    EXPECT_EQ(keys, want.keys) << CodecName(kind);

    const struct {
      FoldOp op;
      Value expected;
    } folds[] = {{FoldOp::kSum, want.sum},
                 {FoldOp::kMin, want.min},
                 {FoldOp::kMax, want.max}};
    for (const auto& fold : folds) {
      Value acc = 123;
      bool valid = false;
      const size_t matched =
          EncodedFoldFiltered(enc, pred, fold.op, &acc, &valid);
      EXPECT_EQ(matched, want.count) << CodecName(kind);
      EXPECT_EQ(valid, want.valid) << CodecName(kind);
      if (want.valid) {
        EXPECT_EQ(acc, fold.expected)
            << CodecName(kind) << " op=" << static_cast<int>(fold.op);
      } else {
        EXPECT_EQ(acc, 123);  // untouched when nothing matches
      }
    }

    // Gather-fold over the oracle's selection vector (rebased to 0).
    std::vector<Key> positions = want.keys;
    for (Key& k : positions) k -= 100;
    Value acc = 123;
    bool valid = false;
    EncodedGatherFold(enc, positions, FoldOp::kSum, &acc, &valid);
    EXPECT_EQ(valid, want.valid) << CodecName(kind);
    if (want.valid) {
      EXPECT_EQ(acc, want.sum) << CodecName(kind);
    }
  }

  // Unfiltered fold equals the everything-predicate fold.
  const OracleResult all = Oracle(values, RangePredicate{}, 0);
  Value acc = 123;
  bool valid = false;
  EncodedFold(enc, FoldOp::kSum, &acc, &valid);
  EXPECT_EQ(valid, all.valid);
  if (all.valid) {
    EXPECT_EQ(acc, all.sum);
  }
}

// ---------------------------------------------------------------------------
// ChooseCodec: the stats thresholds
// ---------------------------------------------------------------------------

TEST(ChooseCodecTest, SmallColumnsStayRaw) {
  Rng rng(5);
  CompressionConfig config;  // default min_rows = 1024
  const std::vector<Value> v = Uniform(&rng, 1023, 1, 100);
  EXPECT_EQ(ChooseCodec(v, config), CodecKind::kRaw);
}

TEST(ChooseCodecTest, LongRunsPickRle) {
  Rng rng(6);
  const std::vector<Value> v = Runs(&rng, 4096, 64, 1'000'000);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kRle);
}

TEST(ChooseCodecTest, LowCardinalityPicksDict) {
  Rng rng(7);
  // 16 distinct values spread over a >32-bit range: dict, never FOR, and
  // shuffled so runs are short.
  const std::vector<Value> v = LowCardinality(&rng, 4096, 16);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kDict);
}

TEST(ChooseCodecTest, NarrowRangePicksFor) {
  Rng rng(8);
  // High cardinality (beats the dict bound) but a range under 32 bits.
  const std::vector<Value> v = Uniform(&rng, 8192, 500'000, 16'000'000);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kFor);
}

TEST(ChooseCodecTest, WideHighCardinalityStaysRaw) {
  Rng rng(9);
  // Range needs > 32 bits and cardinality exceeds the dict bound.
  const std::vector<Value> v = Uniform(&rng, 8192, 1, Value{1} << 40);
  EXPECT_EQ(ChooseCodec(v, TestConfig()), CodecKind::kRaw);
}

// ---------------------------------------------------------------------------
// Round trips + encoded queries vs the raw oracle
// ---------------------------------------------------------------------------

TEST(CodecRoundTripTest, ForMatchesOracle) {
  Rng rng(17);
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(Uniform(&rng, n, -500, 12'345), CodecKind::kFor);
  }
}

TEST(CodecRoundTripTest, DictMatchesOracle) {
  Rng rng(19);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(LowCardinality(&rng, n, 16), CodecKind::kDict);
  }
}

TEST(CodecRoundTripTest, RleMatchesOracle) {
  Rng rng(23);
  for (size_t n : {size_t{1}, size_t{64}, size_t{1000}}) {
    CheckEncodedAgainstOracle(Runs(&rng, n, 8, 300), CodecKind::kRle);
  }
}

TEST(CodecRoundTripTest, AllEqualColumnEncodesUnderEveryCodec) {
  const std::vector<Value> v(256, 42);
  for (CodecKind kind :
       {CodecKind::kFor, CodecKind::kRle, CodecKind::kDict}) {
    CheckEncodedAgainstOracle(v, kind);
  }
}

TEST(CodecRoundTripTest, ExtremeValueFramesRoundTrip) {
  // FOR decodes as wrapping uint64 base + code, so INT64_MIN-based frames
  // must round-trip exactly.
  std::vector<Value> low = {kMinValue, kMinValue + 5, kMinValue + 100,
                            kMinValue, kMinValue + 63};
  CheckEncodedAgainstOracle(low, CodecKind::kFor);
  CheckEncodedAgainstOracle(low, CodecKind::kDict);
  std::vector<Value> high = {kMaxValue, kMaxValue - 3, kMaxValue - 1,
                             kMaxValue};
  CheckEncodedAgainstOracle(high, CodecKind::kFor);
  CheckEncodedAgainstOracle(high, CodecKind::kRle);
}

TEST(CodecRoundTripTest, ForRefusesFullDomainRange) {
  // kMinValue..kMaxValue spans 2^64 - 1: no 63-bit code frame fits, so the
  // encoder must refuse rather than truncate.
  const std::vector<Value> v = {kMinValue, kMaxValue, 0, -1};
  EncodedColumn enc;
  EXPECT_FALSE(EncodeColumn(v, CodecKind::kFor, &enc));
  // Dictionary has no range limit: same data encodes fine.
  CheckEncodedAgainstOracle(v, CodecKind::kDict);
}

TEST(CodecRoundTripTest, RawKindRefusesToEncode) {
  const std::vector<Value> v(64, 1);
  EncodedColumn enc;
  EXPECT_FALSE(EncodeColumn(v, CodecKind::kRaw, &enc));
}

TEST(CodecBytesTest, EncodedBytesBeatRawOnCompressibleShapes) {
  Rng rng(29);
  const size_t n = 8192;
  const struct {
    std::vector<Value> values;
    CodecKind kind;
  } cases[] = {
      {Uniform(&rng, n, 1, 65'000), CodecKind::kFor},    // 16-17 bit codes
      {LowCardinality(&rng, n, 16), CodecKind::kDict},   // 4-bit codes
      {Runs(&rng, n, 64, 1'000'000), CodecKind::kRle},   // ~n/64 runs
  };
  for (const auto& c : cases) {
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumn(c.values, c.kind, &enc));
    const size_t raw = c.values.size() * sizeof(Value);
    EXPECT_LT(EncodedBytes(enc) * 2, raw)
        << CodecName(c.kind) << ": expected at least 2x reduction";
  }
}

TEST(CodecBytesTest, CodecNamesAreStable) {
  EXPECT_STREQ(CodecName(CodecKind::kRaw), "raw");
  EXPECT_STREQ(CodecName(CodecKind::kFor), "for");
  EXPECT_STREQ(CodecName(CodecKind::kRle), "rle");
  EXPECT_STREQ(CodecName(CodecKind::kDict), "dict");
}

TEST(CodecRandomizedTest, RandomShapesRoundTripUnderChosenCodec) {
  Rng rng(31);
  CompressionConfig config = TestConfig();
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n =
        static_cast<size_t>(rng.Uniform(8, 2048));
    std::vector<Value> v;
    switch (trial % 3) {
      case 0:
        v = Uniform(&rng, n, -10'000, 10'000);
        break;
      case 1:
        v = LowCardinality(&rng, n, 1 + trial);
        break;
      default:
        v = Runs(&rng, n, 16, 500);
        break;
    }
    const CodecKind kind = ChooseCodec(v, config);
    if (kind == CodecKind::kRaw) continue;
    CheckEncodedAgainstOracle(v, kind);
  }
}

}  // namespace
}  // namespace crackdb
