// Per-layer numbers from one traced run's spans.
//
// A stage's self time is its kStageWork spans minus the disk and fabric
// spans nested inside them on the same thread, so time blocked in a disk
// or fabric call counts as waiting, not as work.  Waits that emit no span
// of their own (IoHandle::wait on a ReadAhead slot, for one) stay in
// cpu_s.  Custom stages (dsort's k-way merge) emit no work spans; their
// busy time is the ring's span envelope minus its accept and convey waits,
// which is how the runtime itself computes their StageStats::working.
#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace fgbench {
namespace {

using fg::obs::SpanKind;
using fg::obs::SpanRecord;

bool is_disk(SpanKind k) {
  return k == SpanKind::kDiskRead || k == SpanKind::kDiskWrite ||
         k == SpanKind::kDiskRetry;
}

bool is_fabric(SpanKind k) {
  return k == SpanKind::kFabricSend || k == SpanKind::kFabricRecv ||
         k == SpanKind::kFabricCollective;
}

struct StageTimes {
  std::uint64_t cpu_ns{0};
  std::uint64_t disk_ns{0};
  std::uint64_t fabric_ns{0};
  std::uint64_t accept_ns{0};
};

StageTimes ring_times(const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> work;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kStageWork) work.push_back(&s);
  }
  std::sort(work.begin(), work.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->begin_ns < b->begin_ns;
            });
  StageTimes t;
  std::uint64_t work_ns = 0;
  for (const SpanRecord* w : work) work_ns += w->end_ns - w->begin_ns;
  std::uint64_t convey_ns = 0;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const SpanRecord& s : spans) {
    const std::uint64_t d = s.end_ns - s.begin_ns;
    lo = std::min(lo, s.begin_ns);
    hi = std::max(hi, s.end_ns);
    if (s.kind == SpanKind::kAcceptWait) t.accept_ns += d;
    if (s.kind == SpanKind::kConveyWait) convey_ns += d;
    if (!is_disk(s.kind) && !is_fabric(s.kind)) continue;
    if (!work.empty()) {
      // Only waits nested in a work span are taken out of its self time.
      auto it = std::upper_bound(
          work.begin(), work.end(), s.begin_ns,
          [](std::uint64_t b, const SpanRecord* w) { return b < w->begin_ns; });
      if (it == work.begin() || s.end_ns > (*std::prev(it))->end_ns) continue;
    }
    (is_disk(s.kind) ? t.disk_ns : t.fabric_ns) += d;
  }
  std::uint64_t busy = work_ns;
  if (work.empty() && hi > lo) {
    const std::uint64_t waits = t.accept_ns + convey_ns;
    busy = hi - lo > waits ? hi - lo - waits : 0;
  }
  const std::uint64_t nested = t.disk_ns + t.fabric_ns;
  t.cpu_ns = busy > nested ? busy - nested : 0;
  return t;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

int fold_trace(fg::obs::Session& session, std::uint64_t call_begin_ns,
               const std::vector<double>& phase_seconds, MetricSet& out) {
  // Pass windows, epoch-relative: phase 0 is sampling, then each pass.
  std::vector<std::uint64_t> pass_end;
  double t = static_cast<double>(call_begin_ns) * 1e-9;
  for (double s : phase_seconds) {
    t += s;
    pass_end.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  const int passes = static_cast<int>(phase_seconds.size()) - 1;

  int unnamed = 0;
  std::uint64_t read_ns = 0, write_ns = 0;
  for (const fg::obs::TrackSpans& track : session.spans().tracks()) {
    for (const SpanRecord& s : track.spans) {
      if (s.kind == SpanKind::kDiskRead) read_ns += s.end_ns - s.begin_ns;
      if (s.kind == SpanKind::kDiskWrite) write_ns += s.end_ns - s.begin_ns;
    }
    if (track.spans.empty() || track.name == "source" ||
        track.name == "sink") {
      continue;
    }
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    for (const SpanRecord& s : track.spans) first = std::min(first, s.begin_ns);
    int pass = 1;
    while (pass < passes && first >= pass_end[static_cast<std::size_t>(pass)])
      ++pass;
    const std::string stem =
        "core.p" + std::to_string(pass) + "." + track.name + ".";
    if (!out.has(stem + "cpu_s")) {
      std::fprintf(stderr, "fgbench: no metric for pass %d stage '%s'\n",
                   pass, track.name.c_str());
      ++unnamed;
      continue;
    }
    const StageTimes st = ring_times(track.spans);
    out.add(stem + "cpu_s", seconds(st.cpu_ns));
    out.add(stem + "disk_wait_s", seconds(st.disk_ns));
    out.add(stem + "fabric_wait_s", seconds(st.fabric_ns));
    out.add(stem + "accept_s", seconds(st.accept_ns));
  }
  out.set("pdm.read_s", seconds(read_ns));
  out.set("pdm.write_s", seconds(write_ns));

  fg::obs::Registry& reg = session.metrics();
  const auto pct = [&reg](const char* hist, double p) {
    return static_cast<double>(reg.histogram(hist).percentile(p));
  };
  out.set("core.round_latency_us.p50", pct("pipeline.round_latency_us", 50));
  out.set("core.round_latency_us.p99", pct("pipeline.round_latency_us", 99));
  out.set("comm.recv_us.p50", pct("fabric.recv_us", 50));
  out.set("comm.recv_us.p99", pct("fabric.recv_us", 99));
  out.set("comm.send_us.p50", pct("fabric.send_us", 50));
  out.set("comm.send_us.p99", pct("fabric.send_us", 99));
  return unnamed;
}

}  // namespace fgbench
