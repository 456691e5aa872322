// Tests for the in-memory record kernels: sorting, partitioning by
// extended-key splitters, merging, and strided gather/scatter.  The radix
// sort and branch-free partition must match the comparison-sort and
// binary-search oracles (kernel_oracle.hpp) byte for byte.
#include "sort/kernels.hpp"

#include "kernel_oracle.hpp"
#include "sort/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

namespace fg::sort {
namespace {

/// Build a flat byte array of records with given keys (uids sequential).
std::vector<std::byte> make_records(const std::vector<std::uint64_t>& keys,
                                    std::uint32_t rec_bytes,
                                    std::uint64_t uid_base = 0) {
  std::vector<std::byte> data(keys.size() * rec_bytes);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::byte* p = data.data() + i * rec_bytes;
    set_key(p, keys[i]);
    set_uid(p, uid_base + i);
    for (std::uint32_t b = 16; b < rec_bytes; ++b) {
      p[b] = static_cast<std::byte>((i + b) & 0xff);
    }
  }
  return data;
}

std::vector<std::uint64_t> keys_of(std::span<const std::byte> data,
                                   std::uint32_t rec) {
  std::vector<std::uint64_t> k;
  for (std::size_t i = 0; i < data.size() / rec; ++i) {
    k.push_back(key_of(data.data() + i * rec));
  }
  return k;
}

/// The sort kernel's cache bound, in 16-byte pairs: arrays above it take
/// the MSD split first.
constexpr std::size_t kCachePairs = (std::size_t{1} << 20) / 16;

constexpr Distribution kAllDistributions[] = {
    Distribution::kUniform,  Distribution::kAllEqual,
    Distribution::kNormal,   Distribution::kPoisson,
    Distribution::kSorted,   Distribution::kReversed,
    Distribution::kNodeClustered};

std::string short_name(Distribution d) {
  switch (d) {
    case Distribution::kUniform: return "Uniform";
    case Distribution::kAllEqual: return "AllEqual";
    case Distribution::kNormal: return "Normal";
    case Distribution::kPoisson: return "Poisson";
    case Distribution::kSorted: return "Sorted";
    case Distribution::kReversed: return "Reversed";
    case Distribution::kNodeClustered: return "NodeClustered";
  }
  return "Unknown";
}

std::vector<std::byte> dist_records(Distribution d, std::size_t n,
                                    std::uint32_t rec, std::uint64_t seed = 11) {
  std::vector<std::byte> data(n * rec);
  for (std::size_t g = 0; g < n; ++g) {
    make_record(d, seed, g, n, std::span(data).subspan(g * rec, rec));
  }
  return data;
}

/// Index of the first record where two equally sized arrays differ, or
/// -1; keeps failure messages short for multi-megabyte inputs.
long first_mismatch(std::span<const std::byte> a, std::span<const std::byte> b,
                    std::uint32_t rec) {
  for (std::size_t i = 0; i < a.size() / rec; ++i) {
    if (std::memcmp(a.data() + i * rec, b.data() + i * rec, rec) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

class KernelsParam : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(RecordSizes, KernelsParam,
                         ::testing::Values(16u, 32u, 64u, 128u));

TEST_P(KernelsParam, SortOrdersByKey) {
  const std::uint32_t rec = GetParam();
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(500);
  for (auto& k : keys) k = rng.below(100);
  auto data = make_records(keys, rec);
  std::vector<std::byte> scratch(data.size());
  sort_records(data, rec, scratch);
  EXPECT_TRUE(is_sorted_records(data, rec));
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(keys_of(data, rec), sorted);
}

TEST_P(KernelsParam, SortPreservesRecordsIntact) {
  const std::uint32_t rec = GetParam();
  util::Xoshiro256 rng(2);
  std::vector<std::uint64_t> keys(200);
  for (auto& k : keys) k = rng.next();
  auto data = make_records(keys, rec);
  std::uint64_t sum_before = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    sum_before += record_fingerprint({data.data() + i * rec, rec});
  }
  std::vector<std::byte> scratch(data.size());
  sort_records(data, rec, scratch);
  std::uint64_t sum_after = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    sum_after += record_fingerprint({data.data() + i * rec, rec});
  }
  EXPECT_EQ(sum_before, sum_after);
}

TEST_P(KernelsParam, SortIsDeterministicUnderEqualKeys) {
  const std::uint32_t rec = GetParam();
  std::vector<std::uint64_t> keys(100, 42);  // all equal
  auto a = make_records(keys, rec);
  auto b = a;
  std::vector<std::byte> scratch(a.size());
  sort_records(a, rec, scratch);
  sort_records(b, rec, scratch);
  EXPECT_EQ(a, b);
  // Ties broken by mix64(uid): uids must be a permutation.
  std::vector<std::uint64_t> uids;
  for (std::size_t i = 0; i < keys.size(); ++i) uids.push_back(uid_of(a.data() + i * rec));
  std::sort(uids.begin(), uids.end());
  for (std::size_t i = 0; i < uids.size(); ++i) EXPECT_EQ(uids[i], i);
}

TEST(Kernels, SortEmptyAndSingle) {
  std::vector<std::byte> empty;
  std::vector<std::byte> scratch(16);
  sort_records(empty, 16, scratch);
  auto one = make_records({5}, 16);
  sort_records(one, 16, scratch);
  EXPECT_EQ(key_of(one.data()), 5u);
}

TEST(Kernels, SortRejectsBadArguments) {
  std::vector<std::byte> data(32);
  std::vector<std::byte> scratch(32);
  EXPECT_THROW(sort_records(data, 8, scratch), std::invalid_argument);
  std::vector<std::byte> odd(30);
  EXPECT_THROW(sort_records(odd, 16, scratch), std::invalid_argument);
  std::vector<std::byte> wide(64 * 4);
  std::vector<std::byte> small_scratch(16);
  EXPECT_THROW(sort_records(wide, 64, small_scratch), std::invalid_argument);
}

TEST(Kernels, SortRejectsTooSmallScratchAt16Bytes) {
  auto data = make_records({3, 1, 2, 0}, 16);
  const auto before = data;
  std::vector<std::byte> small_scratch(data.size() - 16);
  EXPECT_THROW(sort_records(data, 16, small_scratch), std::invalid_argument);
  EXPECT_EQ(data, before);
}

TEST(Kernels, PartitionOfRespectsBounds) {
  std::vector<ExtKey> splitters{{10, 0}, {20, 0}, {30, 0}};
  EXPECT_EQ(partition_of({5, 0}, splitters), 0u);
  EXPECT_EQ(partition_of({10, 0}, splitters), 0u);   // equal to splitter stays left
  EXPECT_EQ(partition_of({10, 1}, splitters), 1u);   // tie broken by extension
  EXPECT_EQ(partition_of({25, 0}, splitters), 2u);
  EXPECT_EQ(partition_of({99, 0}, splitters), 3u);
}

TEST(Kernels, PartitionOfMatchesOracleOnEqualKeySplitters) {
  // Runs of splitters sharing a key, at both ends and in the middle of
  // the list, for odd and even splitter counts.
  for (std::size_t m : {1u, 2u, 5u, 16u, 17u, 40u}) {
    std::vector<ExtKey> splitters;
    for (std::size_t j = 0; j < m; ++j) {
      splitters.push_back({(j / 3) * 10, j * 7});
    }
    for (std::uint64_t key = 0; key <= (m / 3) * 10 + 10; key += 5) {
      for (std::uint64_t tie : {0ull, 1ull, 7ull, 8ull, 50ull, ~0ull}) {
        const ExtKey k{key, tie};
        EXPECT_EQ(partition_of(k, splitters), oracle::partition_of(k, splitters))
            << "m=" << m << " key=" << key << " tie=" << tie;
      }
    }
  }
}

TEST(Kernels, PartitionRecordsGroupsContiguously) {
  util::Xoshiro256 rng(3);
  std::vector<std::uint64_t> keys(300);
  for (auto& k : keys) k = rng.below(1000);
  auto data = make_records(keys, 16);
  std::vector<ExtKey> splitters{{250, ~0ULL}, {500, ~0ULL}, {750, ~0ULL}};
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, splitters, out);
  ASSERT_EQ(counts.size(), 4u);
  std::uint64_t total = 0;
  std::size_t idx = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::uint32_t i = 0; i < counts[g]; ++i, ++idx) {
      const ExtKey k = ext_key_of(out.data() + idx * 16);
      EXPECT_EQ(partition_of(k, splitters), g);
    }
    total += counts[g];
  }
  EXPECT_EQ(total, keys.size());
}

TEST(Kernels, PartitionIsStableWithinGroups) {
  // Records of the same group keep their input order (stable partition).
  std::vector<std::uint64_t> keys{5, 15, 6, 16, 7, 17};
  auto data = make_records(keys, 16);
  std::vector<ExtKey> splitters{{10, ~0ULL}};
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, splitters, out);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(key_of(out.data()), 5u);
  EXPECT_EQ(key_of(out.data() + 16), 6u);
  EXPECT_EQ(key_of(out.data() + 32), 7u);
  EXPECT_EQ(key_of(out.data() + 48), 15u);
}

TEST(Kernels, PartitionWithNoSplittersIsIdentity) {
  auto data = make_records({3, 1, 2}, 16);
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, {}, out);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(out, data);
}

TEST(Kernels, MergeInterleavesSortedRuns) {
  auto a = make_records({1, 3, 5, 7}, 16, 0);
  auto b = make_records({2, 4, 6}, 16, 100);
  std::vector<std::byte> out(a.size() + b.size());
  merge_records(a, b, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Kernels, MergeHandlesEmptySides) {
  auto a = make_records({1, 2}, 16);
  std::vector<std::byte> empty;
  std::vector<std::byte> out(a.size());
  merge_records(a, empty, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2}));
  merge_records(empty, a, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Kernels, MergeWithDuplicatesKeepsAll) {
  auto a = make_records({1, 2, 2, 9}, 16, 0);
  auto b = make_records({2, 2, 3}, 16, 50);
  std::vector<std::byte> out(a.size() + b.size());
  merge_records(a, b, 16, out);
  EXPECT_TRUE(is_sorted_records(out, 16));
  EXPECT_EQ(out.size() / 16, 7u);
}

TEST(Kernels, MergeHeapOrdersEqualKeysByExtendedKey) {
  // Sorted runs cut from a heavily duplicated input in arbitrary order:
  // the k-way merge must reproduce the one global order by extended key.
  for (Distribution d : {Distribution::kPoisson, Distribution::kAllEqual,
                         Distribution::kUniform}) {
    constexpr std::uint32_t kRec = 24;
    const auto data = dist_records(d, 5000, kRec);
    std::vector<std::vector<std::byte>> runs;
    util::Xoshiro256 rng(5);
    for (std::size_t i = 0; i < 5000;) {
      const std::size_t len = std::min<std::size_t>(1 + rng.below(400), 5000 - i);
      runs.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(i * kRec),
                        data.begin() + static_cast<std::ptrdiff_t>((i + len) * kRec));
      std::vector<std::byte> scratch(runs.back().size());
      sort_records(runs.back(), kRec, scratch);
      i += len;
    }
    std::vector<std::size_t> pos(runs.size(), 0);
    MergeHeap heap([&](std::uint32_t v) {
      return util::mix64(uid_of(runs[v].data() + pos[v] * kRec));
    });
    for (std::uint32_t v = 0; v < runs.size(); ++v) {
      heap.push(key_of(runs[v].data()), v);
    }
    std::vector<std::byte> merged;
    while (!heap.empty()) {
      const std::uint32_t v = heap.top();
      const std::byte* rec = runs[v].data() + pos[v]++ * kRec;
      merged.insert(merged.end(), rec, rec + kRec);
      if (pos[v] * kRec == runs[v].size()) {
        heap.pop();
      } else {
        heap.replace_top(key_of(runs[v].data() + pos[v] * kRec));
      }
    }
    auto expect = data;
    std::vector<std::byte> scratch(expect.size());
    oracle::sort_records(expect, kRec, scratch);
    ASSERT_EQ(merged.size(), expect.size());
    EXPECT_EQ(first_mismatch(merged, expect, kRec), -1) << to_string(d);
  }
}

TEST(Kernels, GatherScatterRoundTrip) {
  auto data = make_records({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 16);
  std::vector<std::byte> packed(4 * 16);
  // Gather positions 1, 4, 7, 10.
  gather_strided(data, 16, 1, 3, 4, packed);
  EXPECT_EQ(keys_of(packed, 16), (std::vector<std::uint64_t>{1, 4, 7, 10}));
  // Scatter them back into a zeroed copy.
  std::vector<std::byte> out(data.size());
  scatter_strided(packed, 16, 1, 3, 4, out);
  EXPECT_EQ(key_of(out.data() + 4 * 16), 4u);
  EXPECT_EQ(key_of(out.data() + 10 * 16), 10u);
}

TEST(Kernels, IsSortedRecords) {
  auto sorted = make_records({1, 2, 2, 3}, 16);
  EXPECT_TRUE(is_sorted_records(sorted, 16));
  auto unsorted = make_records({2, 1}, 16);
  EXPECT_FALSE(is_sorted_records(unsorted, 16));
  std::vector<std::byte> empty;
  EXPECT_TRUE(is_sorted_records(empty, 16));
}

// ---------------------------------------------------------------------------
// Radix sort and branch-free partition against the oracles.

void expect_sort_matches_oracle(std::vector<std::byte> data,
                                std::uint32_t rec) {
  auto expect = data;
  std::vector<std::byte> scratch(data.size()), oracle_scratch(data.size());
  sort_records(data, rec, scratch);
  oracle::sort_records(expect, rec, oracle_scratch);
  ASSERT_EQ(data.size(), expect.size());
  EXPECT_EQ(first_mismatch(data, expect, rec), -1);
}

using SortOracleParams = std::tuple<Distribution, std::uint32_t, std::size_t>;
class SortMatchesOracle : public ::testing::TestWithParam<SortOracleParams> {};

INSTANTIATE_TEST_SUITE_P(
    AllInputs, SortMatchesOracle,
    ::testing::Combine(::testing::ValuesIn(kAllDistributions),
                       ::testing::Values(16u, 24u, 64u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{255},
                                         std::size_t{16} << 10,
                                         kCachePairs + 1,
                                         std::size_t{512} << 10)),
    [](const ::testing::TestParamInfo<SortOracleParams>& info) {
      return short_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "B_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(SortMatchesOracle, ByteIdentical) {
  const auto [dist, rec, n] = GetParam();
  expect_sort_matches_oracle(dist_records(dist, n, rec), rec);
}

TEST(Kernels, SortSkewedTopDigitRecursesMsd) {
  // Half the keys share a zero top byte, so after the first MSD split one
  // bucket is still far above the cache bound and splits again.
  util::Xoshiro256 rng(21);
  std::vector<std::uint64_t> keys(std::size_t{512} << 10);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i % 2 ? rng.next() : rng.next() >> 8;
  }
  for (std::uint32_t rec : {16u, 64u}) {
    expect_sort_matches_oracle(make_records(keys, rec), rec);
  }
}

TEST(Kernels, SortUnalignedSpansMatchAligned) {
  // 16-byte records normally sort in place as (key, uid) pairs; spans
  // that are not 8-byte aligned take the key-index path instead.
  auto aligned = dist_records(Distribution::kPoisson, 3000, 16);
  const std::size_t bytes = aligned.size();
  std::vector<std::byte> storage(bytes + 8), scratch(bytes + 8);
  std::byte* shifted = storage.data() + 4;
  std::memcpy(shifted, aligned.data(), bytes);
  sort_records({shifted, bytes}, 16, {scratch.data() + 4, bytes});
  std::vector<std::byte> aligned_scratch(bytes);
  sort_records(aligned, 16, aligned_scratch);
  EXPECT_EQ(std::memcmp(shifted, aligned.data(), bytes), 0);
}

using PartitionOracleParams =
    std::tuple<Distribution, std::uint32_t, std::size_t>;
class PartitionMatchesOracle
    : public ::testing::TestWithParam<PartitionOracleParams> {};

INSTANTIATE_TEST_SUITE_P(
    AllInputs, PartitionMatchesOracle,
    ::testing::Combine(::testing::ValuesIn(kAllDistributions),
                       ::testing::Values(16u, 24u, 64u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{15},
                                         std::size_t{40}, std::size_t{300})),
    [](const ::testing::TestParamInfo<PartitionOracleParams>& info) {
      return short_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "B_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(PartitionMatchesOracle, ByteIdentical) {
  const auto [dist, rec, m] = GetParam();
  constexpr std::size_t kRecords = 20000;
  const auto data = dist_records(dist, kRecords, rec);
  // Splitters are extended keys of records in the input, so records equal
  // to a splitter's key (and to the splitter itself) take the tie path.
  auto sorted = data;
  std::vector<std::byte> scratch(data.size());
  sort_records(sorted, rec, scratch);
  std::vector<ExtKey> splitters;
  for (std::size_t j = 1; j <= m; ++j) {
    splitters.push_back(
        ext_key_of(sorted.data() + (j * kRecords / (m + 1)) * rec));
  }
  std::vector<std::byte> out(data.size()), expect(data.size());
  const auto counts = partition_records(data, rec, splitters, out);
  const auto expect_counts =
      oracle::partition_records(data, rec, splitters, expect);
  EXPECT_EQ(counts, expect_counts);
  EXPECT_EQ(first_mismatch(out, expect, rec), -1);
  for (std::size_t i = 0; i < kRecords; i += 97) {
    const ExtKey k = ext_key_of(data.data() + i * rec);
    ASSERT_EQ(partition_of(k, splitters), oracle::partition_of(k, splitters));
  }
}

TEST(Record, KeyUidAccessors) {
  std::vector<std::byte> rec(16);
  set_key(rec.data(), 0x1122334455667788ULL);
  set_uid(rec.data(), 99);
  EXPECT_EQ(key_of(rec.data()), 0x1122334455667788ULL);
  EXPECT_EQ(uid_of(rec.data()), 99u);
}

TEST(Record, ExtKeyOrdering) {
  EXPECT_LT((ExtKey{1, 5}), (ExtKey{2, 0}));
  EXPECT_LT((ExtKey{1, 5}), (ExtKey{1, 6}));
  EXPECT_EQ((ExtKey{1, 5}), (ExtKey{1, 5}));
}

TEST(Record, FingerprintSensitiveToEveryByte) {
  std::vector<std::byte> rec(64, std::byte{0});
  const std::uint64_t base = record_fingerprint(rec);
  for (std::size_t i = 0; i < rec.size(); i += 7) {
    auto copy = rec;
    copy[i] = std::byte{1};
    EXPECT_NE(record_fingerprint(copy), base) << "byte " << i;
  }
}

TEST(Record, RecordSpanViews) {
  auto data = make_records({10, 20, 30}, 32);
  RecordSpan rs(data, 32);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_EQ(rs.key(1), 20u);
  EXPECT_EQ(rs.ext_key(2).key, 30u);
  rs.record(0)[0] = std::byte{0xff};
  EXPECT_EQ(data[0], std::byte{0xff});
}

}  // namespace
}  // namespace fg::sort
