// Shared declarations of the fgbench binary: the metric table every run
// reports into, the layer probes, and the span analysis of a traced run.
#pragma once

#include "obs/session.hpp"
#include "pdm/disk.hpp"
#include "sort/distributions.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace fgbench {

/// Median of a non-empty sample (mean of the middle two when even).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : (v[m - 1] + v[m]) / 2;
}

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
};

/// The end-to-end metrics (printed with --trace 0).
const std::vector<MetricDef>& end_to_end_defs();
/// The per-layer metrics (printed with --trace 1), every name on every
/// workload; a metric a workload has no instance of reads 0.
const std::vector<MetricDef>& per_layer_defs();

/// Values keyed by a fixed definition list: set() refuses names outside
/// the list, so a metric name can never depend on run geometry.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs);
  bool has(const std::string& name) const;
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  double get(const std::string& name) const;
  const std::vector<MetricDef>& defs() const noexcept { return defs_; }

 private:
  std::size_t index(const std::string& name) const;
  const std::vector<MetricDef>& defs_;
  std::vector<double> values_;
};

// -- layer probes (probes.cpp) ------------------------------------------

/// Records per second (millions) of the three record kernels over one
/// 256 KiB pipeline buffer of the workload's width and key distribution.
struct KernelRates {
  double sort_mrec_s{0};
  double partition_mrec_s{0};
  double merge_mrec_s{0};
};
KernelRates probe_kernels(std::uint32_t rec_bytes, fg::sort::Distribution dist,
                          std::uint64_t seed, std::uint64_t total_records);

/// Nanoseconds per token hop, producer thread to consumer thread.
double probe_channel_hop_ns(bool spsc);

/// Nanoseconds per buffer through a two-stage no-op map pipeline.
double probe_executor_ns(bool tasks);

/// Sequential MB/s (1e6 B) with 256 KiB operations on one disk of the
/// given backend, over a file of `file_bytes`.
struct DiskRates {
  double read_mb_s{0};
  double write_mb_s{0};
};
DiskRates probe_disk(const std::filesystem::path& root,
                     fg::pdm::DiskBackend backend, std::uint64_t file_bytes);

/// Last-level cache size in bytes (sysfs), or 32 MiB when unknown.
std::uint64_t llc_bytes();

struct FabricRates {
  double p2p_mb_s{0};       ///< 256 KiB messages, one sender, one receiver
  double rtt_us{0};         ///< 64 B ping-pong round trip
  double alltoall_mb_s{0};  ///< 4 nodes, 64 KiB blocks, bytes between nodes
};
FabricRates probe_fabric();

// -- traced-run analysis (trace.cpp) ------------------------------------

/// Fold one traced sort's spans into the per-(pass, stage) core metrics,
/// pdm.read_s / pdm.write_s, and the latency percentiles.  `call_begin_ns`
/// is the sort call's start relative to the collector epoch and
/// `phase_seconds` its sampling time followed by each pass time; a ring
/// belongs to the pass whose window holds its first span.  Returns the
/// number of (pass, stage) pairs that were seen but have no metric name.
int fold_trace(fg::obs::Session& session, std::uint64_t call_begin_ns,
               const std::vector<double>& phase_seconds, MetricSet& out);

}  // namespace fgbench
