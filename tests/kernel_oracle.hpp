// Reference implementations of the record kernels: the comparison sort and
// lower_bound classifier that sort_records and partition_records replaced.
// The tests require the production kernels to match these byte for byte,
// and bench_kernels times both.
#pragma once

#include "sort/record.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace fg::sort::oracle {

/// Sort records by extended key: std::sort on (key, mix64(uid)) pairs for
/// 16-byte records, a key-index std::sort and one gather for wider ones.
inline void sort_records(std::span<std::byte> data, std::uint32_t rec_bytes,
                         std::span<std::byte> scratch) {
  const std::size_t n = data.size() / rec_bytes;
  if (n <= 1) return;
  if (scratch.size() < data.size()) {
    throw std::invalid_argument("oracle::sort_records: scratch too small");
  }
  if (rec_bytes == 16) {
    struct Rec16 {
      std::uint64_t key;
      std::uint64_t uid;
    };
    auto* recs = reinterpret_cast<Rec16*>(data.data());
    std::sort(recs, recs + n, [](const Rec16& a, const Rec16& b) {
      if (a.key != b.key) return a.key < b.key;
      return util::mix64(a.uid) < util::mix64(b.uid);
    });
    return;
  }
  struct KeyIdx {
    ExtKey key;
    std::uint32_t idx;
  };
  std::vector<KeyIdx> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = {ext_key_of(data.data() + i * rec_bytes),
                static_cast<std::uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(scratch.data() + i * rec_bytes,
                data.data() + std::size_t{order[i].idx} * rec_bytes,
                rec_bytes);
  }
  std::memcpy(data.data(), scratch.data(), n * rec_bytes);
}

/// Number of splitters < k: the index of the first splitter >= k.
inline std::size_t partition_of(const ExtKey& k,
                                std::span<const ExtKey> splitters) {
  return static_cast<std::size_t>(
      std::lower_bound(splitters.begin(), splitters.end(), k) -
      splitters.begin());
}

/// Stable partition by binary search per record.
inline std::vector<std::uint32_t> partition_records(
    std::span<const std::byte> data, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::span<std::byte> out) {
  const std::size_t n = data.size() / rec_bytes;
  const std::size_t groups = splitters.size() + 1;
  std::vector<std::uint32_t> counts(groups, 0);
  std::vector<std::uint32_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::uint32_t>(
        oracle::partition_of(ext_key_of(data.data() + i * rec_bytes),
                             splitters));
    group_of[i] = g;
    ++counts[g];
  }
  std::vector<std::uint64_t> cursor(groups, 0);
  std::uint64_t acc = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    cursor[g] = acc;
    acc += counts[g];
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + cursor[group_of[i]]++ * rec_bytes,
                data.data() + i * rec_bytes, rec_bytes);
  }
  return counts;
}

}  // namespace fg::sort::oracle
