// Per-stage timing statistics, collected by every worker, and the per-run
// report that bundles them with the queue counters.  These are the
// numbers FG's overlap story is judged by: a well-overlapped pipeline
// shows most stages spending their time blocked (yielding) while exactly
// one high-latency operation per resource is in flight.
#pragma once

#include "core/channel.hpp"
#include "util/latency.hpp"
#include "util/retry.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fg::util {
class JsonWriter;
}  // namespace fg::util

namespace fg {

struct StageStats {
  std::string stage;         ///< stage name ("source"/"sink" included)
  std::string pipelines;     ///< comma-separated member pipeline names
  std::uint64_t buffers{0};  ///< buffers processed (emitted, for sources)
  util::Duration working{};  ///< time inside the stage function
  util::Duration accept_blocked{};  ///< time blocked waiting to accept
  util::Duration convey_blocked{};  ///< time blocked waiting to convey

  double working_seconds() const { return util::to_seconds(working); }
  double accept_seconds() const { return util::to_seconds(accept_blocked); }
  double convey_seconds() const { return util::to_seconds(convey_blocked); }

  /// Zero the counters, keeping the identity labels.  The runtime calls
  /// this between runs of a rerunnable graph.
  void reset_counters() noexcept {
    buffers = 0;
    working = util::Duration{};
    accept_blocked = util::Duration{};
    convey_blocked = util::Duration{};
  }
};

/// Fold `from` into `into`, matching entries by (stage, pipelines) label
/// and summing their counters; unmatched entries are appended.  The sort
/// drivers use this to aggregate stats across nodes and passes into one
/// report.
inline void merge_stage_stats(std::vector<StageStats>& into,
                              const std::vector<StageStats>& from) {
  // (stage, pipelines) → index in `into`.  Stage names cannot contain a
  // NUL, so the joined key is unambiguous.  Appended entries keep their
  // first-seen order, matching the old O(n²) scan's behaviour.
  const auto key = [](const StageStats& s) {
    std::string k;
    k.reserve(s.stage.size() + 1 + s.pipelines.size());
    k += s.stage;
    k += '\0';
    k += s.pipelines;
    return k;
  };
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(into.size() + from.size());
  for (std::size_t i = 0; i < into.size(); ++i) index.emplace(key(into[i]), i);
  for (const StageStats& s : from) {
    const auto [it, inserted] = index.emplace(key(s), into.size());
    if (inserted) {
      into.push_back(s);
      continue;
    }
    StageStats& t = into[it->second];
    t.buffers += s.buffers;
    t.working += s.working;
    t.accept_blocked += s.accept_blocked;
    t.convey_blocked += s.convey_blocked;
  }
}

/// Everything one completed run reports: per-worker StageStats, per-queue
/// counters, and the run's wall time.  Reset at the start of every run of
/// a rerunnable graph.
struct RunStats {
  std::vector<StageStats> stages;
  std::vector<QueueStats> queues;
  double wall_seconds{0.0};
  std::size_t runs_completed{0};  ///< how many times the graph has run
  /// Executor of the most recent run ("threads" or "tasks").
  std::string executor;

  // Fault/recovery counters.  The runtime itself does not fill these —
  // the driver that owns the disks and the fault injector aggregates them
  // (see fgsort) so one blob describes the whole run.
  util::RetryStats disk_retries;
  std::uint64_t faults_injected{0};

  /// Emit as one JSON object: {"wall_seconds":…,"stages":[…],"queues":[…],
  /// "disk_retries":{…},"faults_injected":…}.
  void write_json(util::JsonWriter& w) const;
};

/// Emit a vector of StageStats as a JSON array (shared by RunStats and
/// the sort drivers' aggregated reports).
void write_stage_stats_json(util::JsonWriter& w,
                            const std::vector<StageStats>& stages);

}  // namespace fg
