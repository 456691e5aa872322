// The fixed metric tables.  BENCHMARK.json lists exactly these names and
// units; `fgbench --list-metrics` prints them.
#include "bench.hpp"

#include <stdexcept>

namespace fgbench {
namespace {

// Every (pass, stage) pair dsort and csort run, source and sink excluded.
// dsort: p1 read/permute/send | receive/sort/write; p2 read-run/merge/send
// | receive/write.  csort: read/sort/permute/communicate/write in p1 and
// p2, read/sort/communicate/write in p3.
struct PassStages {
  int pass;
  std::vector<const char*> stages;
};
const PassStages kPassStages[] = {
    {1, {"read", "permute", "send", "receive", "sort", "write", "communicate"}},
    {2, {"read", "read-run", "merge", "send", "receive", "write", "sort",
         "permute", "communicate"}},
    {3, {"read", "sort", "communicate", "write"}},
};

}  // namespace

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"throughput_mb_s", "MB/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const auto add = [&d](std::string name, const char* unit,
                          const char* better) {
      d.push_back({std::move(name), unit, better});
    };
    // sort: phase times, CPU, kernel probes, per-pass ceiling.
    for (const char* n : {"sort.sampling_s", "sort.pass1_s", "sort.pass2_s",
                          "sort.pass3_s", "sort.cpu_s", "apps.cpu_s"}) {
      add(n, "s", "lower");
    }
    for (const char* k : {"sort_records", "partition_records",
                          "merge_records"}) {
      add(std::string("sort.") + k + ".mrec_s", "Mrec/s", "higher");
    }
    for (const char* p : {"p1", "p2", "p3"}) {
      add(std::string("sort.") + p + ".ceiling_frac", "frac", "higher");
    }
    // core: per (pass, stage) self time and waits, rounds, probes.
    for (const PassStages& ps : kPassStages) {
      for (const char* stage : ps.stages) {
        const std::string stem =
            "core.p" + std::to_string(ps.pass) + "." + stage + ".";
        for (const char* f : {"cpu_s", "disk_wait_s", "fabric_wait_s",
                              "accept_s"}) {
          add(stem + f, "s", "lower");
        }
      }
    }
    add("core.round_latency_us.p50", "us", "lower");
    add("core.round_latency_us.p99", "us", "lower");
    add("core.channel_hop_ns.spsc", "ns", "lower");
    add("core.channel_hop_ns.mpmc", "ns", "lower");
    add("core.executor_ns_per_buffer.threads", "ns", "lower");
    add("core.executor_ns_per_buffer.tasks", "ns", "lower");
    // pdm: counters, span time, probes.
    add("pdm.bytes_read", "bytes", "lower");
    add("pdm.bytes_written", "bytes", "lower");
    add("pdm.read_ops", "count", "lower");
    add("pdm.write_ops", "count", "lower");
    add("pdm.retries", "count", "lower");
    add("pdm.read_s", "s", "lower");
    add("pdm.write_s", "s", "lower");
    add("pdm.seq_read_mb_s", "MB/s", "higher");
    add("pdm.seq_write_mb_s", "MB/s", "higher");
    // comm: counters, latency, probes.
    add("comm.bytes_sent", "bytes", "lower");
    add("comm.messages_sent", "count", "lower");
    add("comm.recv_us.p50", "us", "lower");
    add("comm.recv_us.p99", "us", "lower");
    add("comm.send_us.p50", "us", "lower");
    add("comm.send_us.p99", "us", "lower");
    add("comm.p2p_mb_s", "MB/s", "higher");
    add("comm.rtt_us", "us", "lower");
    add("comm.alltoall_mb_s", "MB/s", "higher");
    // obs.
    add("obs.trace_overhead_frac", "frac", "lower");
    add("obs.spans_dropped", "count", "lower");
    return d;
  }();
  return defs;
}

MetricSet::MetricSet(const std::vector<MetricDef>& defs)
    : defs_(defs), values_(defs.size(), 0.0) {}

bool MetricSet::has(const std::string& name) const {
  for (const MetricDef& d : defs_) {
    if (d.name == name) return true;
  }
  return false;
}

std::size_t MetricSet::index(const std::string& name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return i;
  }
  throw std::logic_error("fgbench: unknown metric '" + name + "'");
}

void MetricSet::set(const std::string& name, double value) {
  values_[index(name)] = value;
}

void MetricSet::add(const std::string& name, double value) {
  values_[index(name)] += value;
}

double MetricSet::get(const std::string& name) const {
  return values_[index(name)];
}

}  // namespace fgbench
