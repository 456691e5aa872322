// In-memory record kernels used by the pipeline stages: sorting a buffer
// of records, partitioning by splitters, merging sorted runs, and the
// scatter/gather helpers csort's strided permutations need.  All kernels
// are synchronous, CPU-only, and operate on raw byte ranges so the same
// code serves 16- and 64-byte records (or any size >= 16).
#pragma once

#include "sort/record.hpp"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace fg::sort {

/// Sort `n = data.size()/rec_bytes` records in place by extended key
/// (key, mix64(uid)), so the result is a pure function of the record set.
/// A radix sort: 16-byte records sort directly, wider ones through a
/// (key, index) array and one gather, so they move exactly once.
/// `scratch` must be at least data.size() bytes for every record size (it
/// is the radix ping-pong buffer or the gather target); otherwise throws
/// std::invalid_argument.
void sort_records(std::span<std::byte> data, std::uint32_t rec_bytes,
                  std::span<std::byte> scratch);

/// Stable-partition records into `splitters.size() + 1` groups by
/// extended key: group i gets records with splitter[i-1] < ext <=
/// splitter[i] (in the usual upper-bound sense).  `splitters` must be
/// sorted.  Writes the permuted records to `out` (same size as data) and
/// returns the record count per group.
std::vector<std::uint32_t> partition_records(
    std::span<const std::byte> data, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::span<std::byte> out);

/// Partition index (0..splitters.size()) a record with extended key `k`
/// belongs to: the number of splitters strictly less than `k`.
std::size_t partition_of(const ExtKey& k, std::span<const ExtKey> splitters);

/// Merge two sorted record ranges by key into `out` (sized for both).
void merge_records(std::span<const std::byte> a, std::span<const std::byte> b,
                   std::uint32_t rec_bytes, std::span<std::byte> out);

/// The selection heap of a k-way merge over sorted runs: one entry per
/// unfinished run, holding the key of the run's head record, smallest
/// extended key on top.  `tie_of(run)` returns mix64(uid) of that head
/// record; it is called only when two keys are equal, so equal keys leave
/// in extended-key order whatever order the runs were formed in.
/// Advancing the top run is one sift-down, not a pop and a push.
template <class TieOf>
class MergeHeap {
 public:
  explicit MergeHeap(TieOf tie_of) : tie_of_(std::move(tie_of)) {}

  bool empty() const noexcept { return heap_.empty(); }
  /// The run whose head record is smallest.
  std::uint32_t top() const noexcept { return heap_.front().run; }

  void push(std::uint64_t key, std::uint32_t run) {
    std::size_t i = heap_.size();
    heap_.push_back({key, run});
    const Entry x = heap_[i];
    while (i > 0 && less(x, heap_[(i - 1) / 2])) {
      heap_[i] = heap_[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    heap_[i] = x;
  }
  /// The top run advanced to a head record with sort key `key`.
  void replace_top(std::uint64_t key) { sift_down({key, top()}); }
  /// The top run is exhausted.
  void pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint32_t run;
  };

  bool less(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return tie_of_(a.run) < tie_of_(b.run);
  }

  void sift_down(const Entry x) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && less(heap_[c + 1], heap_[c])) ++c;
      if (!less(heap_[c], x)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = x;
  }

  TieOf tie_of_;
  std::vector<Entry> heap_;
};

/// Gather records at positions start, start+stride, ... from `in` into a
/// contiguous prefix of `out` (`count` records).
void gather_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                    std::size_t start, std::size_t stride, std::size_t count,
                    std::span<std::byte> out);

/// Scatter `count` contiguous records from `in` to positions start,
/// start+stride, ... of `out`.
void scatter_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                     std::size_t start, std::size_t stride, std::size_t count,
                     std::span<std::byte> out);

/// True if the records are sorted by key (non-decreasing).
bool is_sorted_records(std::span<const std::byte> data,
                       std::uint32_t rec_bytes);

}  // namespace fg::sort
