#include "sort/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace fg::sort {

namespace {

void check_args(std::size_t bytes, std::uint32_t rec_bytes) {
  if (rec_bytes < kMinRecordBytes) {
    throw std::invalid_argument("fg::sort: record size must be >= 16 bytes");
  }
  if (bytes % rec_bytes != 0) {
    throw std::invalid_argument(
        "fg::sort: byte range is not a whole number of records");
  }
}

// ---------------------------------------------------------------------------
// Radix sort of (key, payload) pairs.
//
// A 16-byte record is exactly such a pair (key, uid), so it sorts in place;
// wider records sort a (key, index) array and are gathered once.  The key
// sort need not be stable: every run of equal keys is afterwards sorted by
// its tie value mix64(uid), which makes the result the unique order by
// extended key, byte for byte what a comparison sort on ExtKey produces.

struct Pair {
  std::uint64_t key;
  std::uint64_t val;
};
static_assert(sizeof(Pair) == 16);

/// Arrays up to this size are sorted LSD (least significant digit first):
/// source and destination of every scatter stay cache-resident.  Larger
/// arrays first split MSD on their top varying digit until buckets fit.
/// A plain 8-pass LSD over a column of 8 MiB streams it through memory
/// eight times and loses to std::sort.
constexpr std::size_t kCacheBytes = std::size_t{1} << 20;
/// Below this many pairs, insertion sort beats building histograms.
constexpr std::size_t kSmallSort = 48;
constexpr unsigned kDigits = 8;  // 8-bit digits of a 64-bit key
constexpr std::size_t kRadix = 256;

inline unsigned digit(std::uint64_t key, unsigned d) noexcept {
  return static_cast<unsigned>(key >> (8 * d)) & 0xff;
}

void insertion_sort(Pair* a, std::size_t n) noexcept {
  for (std::size_t i = 1; i < n; ++i) {
    const Pair x = a[i];
    std::size_t j = i;
    for (; j > 0 && x.key < a[j - 1].key; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

/// LSD radix sort of a cache-resident array: one pre-pass builds all eight
/// digit histograms, then one scatter per digit that is not constant.
/// Returns the buffer (a or b) holding the result.
Pair* lsd_sort(Pair* a, Pair* b, std::size_t n) noexcept {
  std::uint32_t count[kDigits][kRadix] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = a[i].key;
    for (unsigned d = 0; d < kDigits; ++d) ++count[d][digit(k, d)];
  }
  const std::uint64_t first = a[0].key;
  Pair* src = a;
  Pair* dst = b;
  for (unsigned d = 0; d < kDigits; ++d) {
    if (count[d][digit(first, d)] == n) continue;  // constant digit
    Pair* bucket[kRadix];
    Pair* next = dst;
    for (std::size_t v = 0; v < kRadix; ++v) {
      bucket[v] = next;
      next += count[d][v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Pair x = src[i];
      *bucket[digit(x.key, d)]++ = x;
    }
    std::swap(src, dst);
  }
  return src;
}

/// Sort `n` pairs by key, whose digits above `top` are all equal.  An
/// array over the cache bound is scattered from `a` into `b` by its
/// highest varying digit; each bucket is then sorted from `b` and lands
/// back in `a`.  Returns the buffer (a or b) holding the result.
Pair* radix_sort(Pair* a, Pair* b, std::size_t n, int top) noexcept {
  if (n <= kSmallSort) {
    insertion_sort(a, n);
    return a;
  }
  if (n * sizeof(Pair) <= kCacheBytes) return lsd_sort(a, b, n);

  std::size_t count[kRadix];
  for (;; --top) {
    if (top < 0) return a;  // all keys equal
    std::fill(std::begin(count), std::end(count), std::size_t{0});
    const auto d = static_cast<unsigned>(top);
    for (std::size_t i = 0; i < n; ++i) ++count[digit(a[i].key, d)];
    if (count[digit(a[0].key, d)] != n) break;
  }
  const auto d = static_cast<unsigned>(top);
  std::size_t start[kRadix + 1];
  start[0] = 0;
  for (std::size_t v = 0; v < kRadix; ++v) start[v + 1] = start[v] + count[v];
  {
    std::size_t pos[kRadix];
    std::copy(start, start + kRadix, pos);
    for (std::size_t i = 0; i < n; ++i) b[pos[digit(a[i].key, d)]++] = a[i];
  }
  for (std::size_t v = 0; v < kRadix; ++v) {
    const std::size_t s = start[v], m = count[v];
    const Pair* r = radix_sort(b + s, a + s, m, top - 1);
    if (r != a + s) std::memcpy(a + s, r, m * sizeof(Pair));
  }
  return a;
}

/// After the key sort, order every run of equal keys by `tie_of(pair)`.
/// The run's key slot temporarily holds the tie so the same radix kernel
/// sorts it; `tmp` is scratch of at least `n` pairs.
template <class TieOf>
void sort_ties(Pair* a, Pair* tmp, std::size_t n, TieOf tie_of) {
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && a[j].key == a[i].key) ++j;
    const std::size_t m = j - i;
    if (m > 1) {
      Pair* run = a + i;
      const std::uint64_t key = run[0].key;
      for (std::size_t r = 0; r < m; ++r) run[r].key = tie_of(run[r]);
      const Pair* sorted = radix_sort(run, tmp + i, m, kDigits - 1);
      if (sorted != run) std::memcpy(run, sorted, m * sizeof(Pair));
      for (std::size_t r = 0; r < m; ++r) run[r].key = key;
    }
    i = j;
  }
}

/// Sort pairs by extended key (key, tie_of(pair)); `tmp` holds at least
/// `n` pairs.  Returns the buffer (a or tmp) holding the result.
template <class TieOf>
Pair* sort_by_ext_key(Pair* a, Pair* tmp, std::size_t n, TieOf tie_of) {
  Pair* sorted = radix_sort(a, tmp, n, kDigits - 1);
  sort_ties(sorted, sorted == a ? tmp : a, n, tie_of);
  return sorted;
}

bool aligned_for_pairs(const std::byte* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(Pair) == 0;
}

// ---------------------------------------------------------------------------
// Partition classification.

/// Number of splitter keys below `key`: an implicit search tree over the
/// sorted splitters, descended with conditional moves instead of branches.
std::size_t count_keys_below(std::uint64_t key,
                             std::span<const ExtKey> splitters) noexcept {
  if (splitters.empty()) return 0;
  const ExtKey* base = splitters.data();
  for (std::size_t len = splitters.size(); len > 1;) {
    const std::size_t half = len / 2;
    base = base[half].key < key ? base + half : base;
    len -= half;
  }
  return static_cast<std::size_t>(base - splitters.data()) + (base->key < key);
}

/// The number of splitters below the extended key (key, tie_of()).  The
/// tie is computed only when a splitter has exactly this key; splitters
/// are sorted by extended key, so those are contiguous from the count of
/// smaller keys.
template <class TieOf>
std::size_t classify(std::uint64_t key, TieOf tie_of,
                     std::span<const ExtKey> splitters) {
  std::size_t g = count_keys_below(key, splitters);
  if (g < splitters.size() && splitters[g].key == key) [[unlikely]] {
    const std::uint64_t tie = tie_of();
    while (g < splitters.size() && splitters[g].key == key &&
           splitters[g].tie < tie) {
      ++g;
    }
  }
  return g;
}

/// Two passes: classify every record into a narrow group id and count the
/// groups, then scatter each record to its group's cursor (stable).
template <class Group, std::uint32_t kFixedBytes>
std::vector<std::uint32_t> classify_and_scatter(
    const std::byte* in, std::size_t n, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::byte* out) {
  const std::uint32_t rec = kFixedBytes != 0 ? kFixedBytes : rec_bytes;
  std::vector<std::uint32_t> counts(splitters.size() + 1, 0);
  const std::unique_ptr<Group[]> group(new Group[n]);
  for (std::size_t i = 0; i < n; ++i) {
    const std::byte* p = in + i * rec;
    const auto g = static_cast<Group>(classify(
        key_of(p), [p] { return util::mix64(uid_of(p)); }, splitters));
    group[i] = g;
    ++counts[g];
  }
  std::vector<std::byte*> cursor(counts.size());
  std::byte* next = out;
  for (std::size_t g = 0; g < counts.size(); ++g) {
    cursor[g] = next;
    next += std::size_t{counts[g]} * rec;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::byte*& dst = cursor[group[i]];
    std::memcpy(dst, in + i * rec, rec);
    dst += rec;
  }
  return counts;
}

template <class Group>
std::vector<std::uint32_t> partition_with(const std::byte* in, std::size_t n,
                                          std::uint32_t rec_bytes,
                                          std::span<const ExtKey> splitters,
                                          std::byte* out) {
  if (rec_bytes == sizeof(Pair)) {
    return classify_and_scatter<Group, sizeof(Pair)>(in, n, rec_bytes,
                                                     splitters, out);
  }
  return classify_and_scatter<Group, 0>(in, n, rec_bytes, splitters, out);
}

}  // namespace

void sort_records(std::span<std::byte> data, std::uint32_t rec_bytes,
                  std::span<std::byte> scratch) {
  check_args(data.size(), rec_bytes);
  if (scratch.size() < data.size()) {
    throw std::invalid_argument("fg::sort::sort_records: scratch too small");
  }
  const std::size_t n = data.size() / rec_bytes;
  if (n <= 1) return;

  if (rec_bytes == sizeof(Pair) && aligned_for_pairs(data.data()) &&
      aligned_for_pairs(scratch.data())) {
    auto* recs = reinterpret_cast<Pair*>(data.data());
    const Pair* sorted =
        sort_by_ext_key(recs, reinterpret_cast<Pair*>(scratch.data()), n,
                        [](const Pair& p) { return util::mix64(p.val); });
    if (sorted != recs) std::memcpy(recs, sorted, n * sizeof(Pair));
    return;
  }

  // Key-index sort, then one gather pass: wide records move exactly once.
  const std::unique_ptr<Pair[]> pairs(new Pair[2 * n]);
  for (std::size_t i = 0; i < n; ++i) {
    pairs[i] = {key_of(data.data() + i * rec_bytes), i};
  }
  const Pair* sorted =
      sort_by_ext_key(pairs.get(), pairs.get() + n, n, [&](const Pair& p) {
        return util::mix64(uid_of(data.data() + p.val * rec_bytes));
      });
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(scratch.data() + i * rec_bytes,
                data.data() + sorted[i].val * rec_bytes, rec_bytes);
  }
  std::memcpy(data.data(), scratch.data(), n * rec_bytes);
}

std::size_t partition_of(const ExtKey& k, std::span<const ExtKey> splitters) {
  return classify(k.key, [&k] { return k.tie; }, splitters);
}

std::vector<std::uint32_t> partition_records(
    std::span<const std::byte> data, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::span<std::byte> out) {
  check_args(data.size(), rec_bytes);
  if (out.size() < data.size()) {
    throw std::invalid_argument("fg::sort::partition_records: out too small");
  }
  const std::size_t n = data.size() / rec_bytes;
  if (splitters.size() < 0x100) {
    return partition_with<std::uint8_t>(data.data(), n, rec_bytes, splitters,
                                        out.data());
  }
  return partition_with<std::uint32_t>(data.data(), n, rec_bytes, splitters,
                                       out.data());
}

void merge_records(std::span<const std::byte> a, std::span<const std::byte> b,
                   std::uint32_t rec_bytes, std::span<std::byte> out) {
  check_args(a.size(), rec_bytes);
  check_args(b.size(), rec_bytes);
  if (out.size() < a.size() + b.size()) {
    throw std::invalid_argument("fg::sort::merge_records: out too small");
  }
  std::size_t ia = 0, ib = 0, io = 0;
  const std::size_t na = a.size() / rec_bytes, nb = b.size() / rec_bytes;
  while (ia < na && ib < nb) {
    const std::byte* pa = a.data() + ia * rec_bytes;
    const std::byte* pb = b.data() + ib * rec_bytes;
    if (key_of(pb) < key_of(pa)) {
      std::memcpy(out.data() + io++ * rec_bytes, pb, rec_bytes);
      ++ib;
    } else {
      std::memcpy(out.data() + io++ * rec_bytes, pa, rec_bytes);
      ++ia;
    }
  }
  if (ia < na) {
    std::memcpy(out.data() + io * rec_bytes, a.data() + ia * rec_bytes,
                (na - ia) * rec_bytes);
    io += na - ia;
  }
  if (ib < nb) {
    std::memcpy(out.data() + io * rec_bytes, b.data() + ib * rec_bytes,
                (nb - ib) * rec_bytes);
  }
}

void gather_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                    std::size_t start, std::size_t stride, std::size_t count,
                    std::span<std::byte> out) {
  assert(out.size() >= count * rec_bytes);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * rec_bytes,
                in.data() + (start + i * stride) * rec_bytes, rec_bytes);
  }
}

void scatter_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                     std::size_t start, std::size_t stride, std::size_t count,
                     std::span<std::byte> out) {
  assert(in.size() >= count * rec_bytes);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + (start + i * stride) * rec_bytes,
                in.data() + i * rec_bytes, rec_bytes);
  }
}

bool is_sorted_records(std::span<const std::byte> data,
                       std::uint32_t rec_bytes) {
  check_args(data.size(), rec_bytes);
  const std::size_t n = data.size() / rec_bytes;
  for (std::size_t i = 1; i < n; ++i) {
    if (key_of(data.data() + i * rec_bytes) <
        key_of(data.data() + (i - 1) * rec_bytes)) {
      return false;
    }
  }
  return true;
}

}  // namespace fg::sort
