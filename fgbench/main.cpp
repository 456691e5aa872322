// fgbench: end-to-end and per-layer benchmark of the FG sorting and
// permutation programs on a 4-node simulated cluster with no injected
// latency.
//
//   fgbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//           [--rev LABEL]
//   fgbench --list-metrics
//
// Closed loop, one client: each repetition builds a fresh workspace and
// cluster, generates the input from the seed, runs the program, and
// verifies the output before the next repetition starts.  Repetitions run
// until S seconds have passed (at least three); the timings use those the
// host's other tenants did not disturb (see undisturbed()).  With --trace 1
// one more repetition runs with an obs::Session attached, followed by the
// layer probes.  The last line of standard output is the result object; the
// lines before it give the labels and every metric with its unit.
#include "bench.hpp"

#include "apps/ooc_permute.hpp"
#include "comm/cluster.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "sort/experiment.hpp"
#include "sort/record.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FGBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FGBENCH_SANITIZED 1
#endif
#endif

namespace fgbench {
namespace {

namespace fs = std::filesystem;
using fg::sort::Distribution;

constexpr int kNodes = 4;
constexpr std::size_t kMinReps = 3;
constexpr double kMaxWindowSeconds = 120;  // stay inside the 180 s limit
constexpr std::size_t kRingCapacity = 1u << 15;  // spans per traced thread
// Repetitions during which the hypervisor took more than this share of the
// machine's CPU time are left out of the timings (see undisturbed()).
constexpr double kMaxStealShare = 0.01;
// A fixed glibc mmap threshold: allocations of 1 MiB and up are always
// mapped and unmapped.  glibc's default raises the threshold after each
// free of a mapped chunk (up to 32 MiB), so csort's column buffers drift
// into the heap arenas, and peak RSS then varies by 10% between identical
// repetitions; with the threshold fixed it varies by well under 1%.
constexpr int kMmapThreshold = 1 << 20;

enum class Program { kDsort, kCsort, kPermute };

struct Workload {
  const char* name;
  Program program;
  std::uint32_t record_bytes;
  Distribution dist;
  fg::ExecutorKind executor;
  std::size_t task_workers;  ///< tasks executor only
  fg::pdm::DiskBackend disk;
  std::uint64_t input_bytes;
  std::uint32_t block_bytes;   ///< PDM striping block
  std::uint32_t buffer_bytes;  ///< pipeline buffer
};

constexpr std::uint32_t kKiB = 1 << 10;
constexpr std::uint64_t kMiB = 1 << 20;

// The sorts use fgsort's geometry: 64 KiB blocks, 256 KiB buffers.
// permute uses 256 KiB blocks and 1 MiB buffers.  It does no kernel work,
// so at fgsort's geometry it is bound by buffer and message hand-offs:
// one busy competing process cost it 33% of its throughput there, and 15%
// at this geometry.
const Workload kWorkloads[] = {
    {"dsort-u16", Program::kDsort, 16, Distribution::kUniform,
     fg::ExecutorKind::kThreadPerStage, 0, fg::pdm::DiskBackend::kNative,
     128 * kMiB, 64 * kKiB, 256 * kKiB},
    {"csort-u16", Program::kCsort, 16, Distribution::kUniform,
     fg::ExecutorKind::kThreadPerStage, 0, fg::pdm::DiskBackend::kNative,
     128 * kMiB, 64 * kKiB, 256 * kKiB},
    {"dsort-p64-tasks", Program::kDsort, 64, Distribution::kPoisson,
     fg::ExecutorKind::kTasks, 4, fg::pdm::DiskBackend::kUring, 128 * kMiB,
     64 * kKiB, 256 * kKiB},
    {"permute-shift", Program::kPermute, 16, Distribution::kUniform,
     fg::ExecutorKind::kThreadPerStage, 0, fg::pdm::DiskBackend::kNative,
     128 * kMiB, 256 * kKiB, 1024 * kKiB},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Options {
  const Workload* workload{nullptr};
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  fs::path root;
  std::string rev{"unknown"};
};

/// Merge buffers are one block and output buffers one pipeline buffer, as
/// in fgsort; N is csort-compatible so every sort runs the same input.
fg::sort::SortConfig sort_config(const Workload& w, std::uint64_t seed) {
  fg::sort::SortConfig c;
  c.nodes = kNodes;
  c.record_bytes = w.record_bytes;
  c.dist = w.dist;
  c.seed = seed;
  c.block_records = w.block_bytes / w.record_bytes;
  c.buffer_records = w.buffer_bytes / w.record_bytes;
  c.merge_buffer_records = w.block_bytes / w.record_bytes;
  c.out_buffer_records = w.buffer_bytes / w.record_bytes;
  c.records = fg::sort::csort_compatible_records(
      w.input_bytes / w.record_bytes, kNodes, c.block_records);
  c.compute_model = fg::sort::LatencyProfile::none().compute;
  c.runtime.executor = w.executor;
  c.runtime.task_workers = w.task_workers;
  return c;
}

fg::apps::PermuteConfig permute_config(const fg::sort::SortConfig& c) {
  fg::apps::PermuteConfig p;
  p.nodes = c.nodes;
  p.records = c.records;
  p.record_bytes = c.record_bytes;
  p.block_records = c.block_records;
  p.buffer_records = c.buffer_records;
  p.runtime = c.runtime;
  p.input_name = c.input_name;
  return p;
}

/// Shift amount for permute-shift, a function of the seed only.
std::uint64_t shift_of(std::uint64_t seed, std::uint64_t records) {
  return 1 + fg::util::mix64(seed) % (records - 1);
}

/// The check apps::verify_permutation makes (output[dest(g)] holds the
/// record whose uid is g, for every g) with sequential four-block reads
/// in place of its one read per record, which costs seconds per 128 MiB.
/// Returns the number of misplaced records.
std::uint64_t count_misplaced(fg::pdm::Workspace& ws,
                              const fg::apps::PermuteConfig& cfg,
                              const fg::apps::IndexMap& dest) {
  const std::uint64_t n = cfg.records;
  std::vector<std::uint64_t> want(n, n);  // position -> uid expected there
  for (std::uint64_t g = 0; g < n; ++g) {
    const std::uint64_t q = dest(g);
    if (q >= n) return n;
    want[q] = g;
  }
  const fg::pdm::StripeLayout layout(cfg.nodes, cfg.record_bytes,
                                     cfg.block_records);
  const std::uint64_t rec = cfg.record_bytes;
  const std::uint64_t rpb = cfg.block_records;
  const std::uint64_t chunk = 4 * rpb;
  std::vector<std::byte> buf(chunk * rec);
  std::uint64_t misplaced = 0;
  for (int node = 0; node < cfg.nodes; ++node) {
    fg::pdm::Disk& disk = ws.disk(node);
    fg::pdm::File f = disk.open(cfg.output_name);
    const std::uint64_t local = layout.node_records(node, n);
    if (disk.size(f) != local * rec) return n;
    for (std::uint64_t i = 0; i < local; i += chunk) {
      const std::uint64_t m = std::min(chunk, local - i);
      disk.read_exact(f, i * rec, std::span(buf).first(m * rec));
      for (std::uint64_t j = 0; j < m; ++j) {
        const std::uint64_t li = i + j;
        const std::uint64_t q =
            ((li / rpb) * static_cast<std::uint64_t>(cfg.nodes) +
             static_cast<std::uint64_t>(node)) * rpb + li % rpb;
        if (fg::sort::uid_of(buf.data() + j * rec) != want[q]) ++misplaced;
      }
    }
    disk.close(f);
  }
  return misplaced;
}

// -- process accounting ------------------------------------------------

/// Reset the kernel's resident-set high-water mark (VmHWM) to the current
/// RSS, after handing freed heap back, so the next read covers one call.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb * 1024 / 1e6;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Clock ticks the hypervisor took from this machine's CPUs (the steal
/// column of /proc/stat): time other tenants ran while this one waited.
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  return v[7];
}

// -- one repetition ----------------------------------------------------

struct Counters {
  std::uint64_t bytes_read{0}, bytes_written{0}, read_ops{0}, write_ops{0},
      retries{0}, bytes_sent{0}, messages_sent{0};
};

struct Rep {
  bool verified{false};
  double setup_s{0};
  double call_s{0};
  double cpu_s{0};
  double peak_rss_mb{0};
  double verify_s{0};
  double steal_share{0};  ///< CPU share stolen during setup and call
  std::vector<double> phases;  ///< sampling, then each pass (sorts only)
  Counters counters;
  fg::pdm::DiskBackend disk{};
  std::uint64_t call_begin_ns{0};  ///< relative to the session epoch
};

/// One repetition.  `library_check` adds apps::verify_permutation to
/// permute's verification (the sorts always use sort::verify_output).
Rep run_rep(const Workload& w, const Options& opt, fg::obs::Session* session,
            bool library_check) {
  const fg::sort::SortConfig base = sort_config(w, opt.seed);
  Rep rep;
  const std::uint64_t steal0 = steal_ticks();
  fg::util::Stopwatch setup;
  fg::pdm::Workspace ws(opt.root / "ws", kNodes, fg::util::LatencyModel::free(),
                        w.disk);
  fg::comm::SimCluster cluster(kNodes,
                               fg::sort::LatencyProfile::none().net);
  fg::sort::generate_input(ws, base);
  rep.setup_s = setup.elapsed_seconds();
  rep.disk = ws.backend();

  fg::sort::SortConfig cfg = base;
  cfg.obs = session;
  for (int i = 0; i < kNodes; ++i) ws.disk(i).reset_stats();
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const fg::util::TimePoint begin = fg::util::Clock::now();
  if (session != nullptr) {
    rep.call_begin_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            begin - session->spans().epoch())
            .count());
  }
  std::optional<fg::sort::SortResult> sorted;
  const fg::apps::PermuteConfig pcfg = permute_config(cfg);
  const fg::apps::IndexMap dest =
      fg::apps::cyclic_shift_map(cfg.records, shift_of(opt.seed, cfg.records));
  switch (w.program) {
    case Program::kDsort:
      sorted = fg::sort::run_dsort(cluster, ws, cfg);
      break;
    case Program::kCsort:
      sorted = fg::sort::run_csort(cluster, ws, cfg);
      break;
    case Program::kPermute:
      fg::apps::run_permute(cluster, ws, pcfg, dest);
      break;
  }
  rep.call_s = fg::util::to_seconds(fg::util::Clock::now() - begin);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.steal_share = static_cast<double>(steal_ticks() - steal0) /
                    static_cast<double>(sysconf(_SC_CLK_TCK)) /
                    std::thread::hardware_concurrency() /
                    (rep.setup_s + rep.call_s);
  rep.peak_rss_mb = peak_rss_mb();

  for (int i = 0; i < kNodes; ++i) {
    const fg::pdm::IoStats io = ws.disk(i).stats();
    rep.counters.bytes_read += io.bytes_read;
    rep.counters.bytes_written += io.bytes_written;
    rep.counters.read_ops += io.read_ops;
    rep.counters.write_ops += io.write_ops;
    rep.counters.retries += ws.disk(i).retry_stats().retries;
    const fg::comm::TrafficStats t = cluster.fabric().stats(i);
    rep.counters.bytes_sent += t.bytes_sent;
    rep.counters.messages_sent += t.messages_sent;
  }
  fg::util::Stopwatch verify;
  if (sorted) {
    rep.phases.push_back(sorted->times.sampling);
    for (double p : sorted->times.passes) rep.phases.push_back(p);
    const fg::sort::VerifyResult v = fg::sort::verify_output(ws, cfg);
    rep.verified = v.ok() && v.records == cfg.records;
  } else {
    rep.verified = count_misplaced(ws, pcfg, dest) == 0 &&
                   (!library_check ||
                    fg::apps::verify_permutation(ws, pcfg, dest) == 0);
  }
  rep.verify_s = verify.elapsed_seconds();
  return rep;
}

/// The repetitions the timings use.  Other tenants of the host take CPU
/// time in bursts (the steal column of /proc/stat), and a repetition that
/// overlaps one runs up to twice as slow, so the timings keep those during
/// which at most kMaxStealShare of the CPU time was stolen; when fewer
/// than kMinReps qualify, the kMinReps least disturbed.
std::vector<Rep> undisturbed(std::vector<Rep> reps) {
  std::stable_sort(reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
    return a.steal_share < b.steal_share;
  });
  std::size_t keep = 0;
  while (keep < reps.size() && reps[keep].steal_share <= kMaxStealShare) ++keep;
  reps.resize(std::min(reps.size(), std::max(keep, kMinReps)));
  return reps;
}

bool same_bytes(const Counters& a, const Counters& b) {
  return a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.bytes_sent == b.bytes_sent;
}

// -- output ------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string metrics_json(const MetricSet& m) {
  std::string s = "{";
  for (const MetricDef& d : m.defs()) {
    if (s.size() > 1) s += ", ";
    s += "\"" + d.name + "\": {\"value\": " + number(m.get(d.name)) +
         ", \"unit\": \"" + d.unit + "\"}";
  }
  return s + "}";
}

void print_metrics(const MetricSet& m) {
  for (const MetricDef& d : m.defs()) {
    std::printf("%-40s %16s %s\n", d.name.c_str(),
                number(m.get(d.name)).c_str(), d.unit.c_str());
  }
}

std::string defs_json(const std::vector<MetricDef>& defs) {
  std::string s = "[";
  for (const MetricDef& d : defs) {
    if (s.size() > 1) s += ",\n  ";
    s += "{\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit +
         "\", \"better\": \"" + d.better + "\"}";
  }
  return s + "]";
}

// -- the run -------------------------------------------------------------

std::vector<double> column(const std::vector<Rep>& reps,
                           double (*get)(const Rep&)) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(get(r));
  return v;
}

double median_phase(const std::vector<Rep>& reps, std::size_t i) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    if (i < r.phases.size()) v.push_back(r.phases[i]);
  }
  return v.empty() ? 0 : median(v);
}

/// Slowest-layer bound on each sort pass divided by its measured time.
/// Each node moves its 1/P share: it reads and writes it once per pass at
/// the disk probe's rate, sends (P-1)/P of it at the p2p rate, and runs
/// the pass's kernels over it at their probe rates; nodes run in parallel.
void set_ceilings(const Workload& w, std::uint64_t records,
                  const std::vector<double>& pass_s, const KernelRates& k,
                  const DiskRates& d, const FabricRates& f, MetricSet& m) {
  const double share_bytes =
      static_cast<double>(records) * w.record_bytes / kNodes;
  const double share_mrec = static_cast<double>(records) / kNodes / 1e6;
  const double disk_s =
      share_bytes / 1e6 / d.read_mb_s + share_bytes / 1e6 / d.write_mb_s;
  const double fabric_s =
      share_bytes * (kNodes - 1) / kNodes / 1e6 / f.p2p_mb_s;
  const double sort_s = share_mrec / k.sort_mrec_s;
  const double merge_s = share_mrec / k.merge_mrec_s;
  std::vector<double> kernel_s;
  if (w.program == Program::kDsort) {
    kernel_s = {sort_s + share_mrec / k.partition_mrec_s, merge_s};
  } else {
    kernel_s = {sort_s, sort_s, sort_s + merge_s};
  }
  for (std::size_t p = 0; p < pass_s.size() && p < kernel_s.size(); ++p) {
    const double bound = std::max({disk_s, fabric_s, kernel_s[p]});
    if (pass_s[p] > 0) {
      m.set("sort.p" + std::to_string(p + 1) + ".ceiling_frac",
            bound / pass_s[p]);
    }
  }
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  const fg::sort::SortConfig cfg = sort_config(w, opt.seed);
  const std::uint64_t input_bytes = cfg.records * cfg.record_bytes;
  fs::create_directories(opt.root);

  std::vector<Rep> reps;
  int attempted = 0;
  int failed = 0;
  bool counts_repeat = true;
  std::optional<Counters> first_counts;
  // One repetition: verified always, kept for the timings when `timed`.
  const auto attempt = [&](bool timed) {
    const int n = ++attempted;
    try {
      Rep r = run_rep(w, opt, nullptr, !timed);
      if (!r.verified) {
        std::fprintf(stderr, "fgbench: repetition %d failed verification\n", n);
        ++failed;
        return;
      }
      if (!first_counts) first_counts = r.counters;
      if (!same_bytes(r.counters, *first_counts)) {
        std::fprintf(stderr,
                     "fgbench: repetition %d moved other byte counts than "
                     "an earlier repetition of the same seed\n",
                     n);
        counts_repeat = false;
        ++failed;
        return;
      }
      std::fprintf(stderr,
                   "fgbench: repetition %d%s: setup %.3f s, call %.3f s, "
                   "verify %.3f s, peak rss %.1f MB, steal %.1f%%\n",
                   n, timed ? "" : " (warm-up)", r.setup_s, r.call_s,
                   r.verify_s, r.peak_rss_mb, 100 * r.steal_share);
      if (timed) reps.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fgbench: repetition %d threw: %s\n", n, e.what());
      ++failed;
    }
  };
  // Warm-up: the first call in a process pays for cold heap arenas and
  // thread stacks.  It also carries permute's library check, which costs
  // seconds.
  attempt(false);
  const double seconds = std::min(opt.seconds, kMaxWindowSeconds);
  fg::util::Stopwatch window;
  const std::uint64_t steal0 = steal_ticks();
  while (window.elapsed_seconds() < seconds ||
         (reps.size() < kMinReps &&
          window.elapsed_seconds() < kMaxWindowSeconds)) {
    attempt(true);
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  const double steal_pct =
      100.0 * static_cast<double>(steal_ticks() - steal0) /
      static_cast<double>(sysconf(_SC_CLK_TCK)) / window.elapsed_seconds() /
      nproc;
  if (reps.empty()) {
    std::fprintf(stderr, "fgbench: every repetition failed\n");
    return 1;
  }
  const std::size_t samples = reps.size();
  reps = undisturbed(std::move(reps));

  const double call_median =
      median(column(reps, [](const Rep& r) { return r.call_s; }));
  std::printf(
      "{\"labels\": {\"workload\": \"%s\", \"rev\": \"%s\", \"nproc\": %u, "
      "\"build_type\": \"%s\", \"disk\": \"%s\", \"executor\": \"%s\", "
      "\"task_workers\": %zu, \"channels\": \"%s\", \"fabric\": \"sim\", "
      "\"latency\": \"none\", \"nodes\": %d, \"seed\": %llu, "
      "\"input_bytes\": %llu, \"records\": %llu, \"record_bytes\": %u, "
      "\"mmap_threshold\": %d, \"samples\": %zu, \"undisturbed\": %zu, "
      "\"steal_pct\": %.2f}}\n",
      w.name, opt.rev.c_str(), nproc,
      FGBENCH_BUILD_TYPE, fg::pdm::to_string(reps[0].disk),
      fg::to_string(fg::resolve_executor(w.executor)), w.task_workers,
      fg::resolve_channels(fg::ChannelPolicy::kAuto) ==
              fg::ChannelPolicy::kMpmcOnly
          ? "mpmc"
          : "auto",
      kNodes, static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(input_bytes),
      static_cast<unsigned long long>(cfg.records), cfg.record_bytes,
      kMmapThreshold, samples, reps.size(), steal_pct);

  bool correct = failed == 0 && counts_repeat;
  std::string metrics;
  if (!opt.trace) {
    MetricSet m(end_to_end_defs());
    std::vector<double> mb_s;
    for (const Rep& r : reps) {
      mb_s.push_back(static_cast<double>(input_bytes) / 1e6 / r.call_s);
    }
    m.set("throughput_mb_s", median(mb_s));
    m.set("setup_s",
          median(column(reps, [](const Rep& r) { return r.setup_s; })));
    m.set("peak_rss_mb",
          median(column(reps, [](const Rep& r) { return r.peak_rss_mb; })));
    print_metrics(m);
    metrics = metrics_json(m);
  } else {
    MetricSet m(per_layer_defs());
    const bool sorts = w.program != Program::kPermute;
    std::vector<double> pass_s;
    if (sorts) {
      m.set("sort.sampling_s", median_phase(reps, 0));
      for (std::size_t p = 1; p <= 3; ++p) {
        pass_s.push_back(median_phase(reps, p));
        m.set("sort.pass" + std::to_string(p) + "_s", pass_s.back());
      }
    }
    m.set(sorts ? "sort.cpu_s" : "apps.cpu_s",
          median(column(reps, [](const Rep& r) { return r.cpu_s; })));
    const Counters& c = reps[0].counters;
    m.set("pdm.bytes_read", static_cast<double>(c.bytes_read));
    m.set("pdm.bytes_written", static_cast<double>(c.bytes_written));
    m.set("pdm.read_ops", static_cast<double>(c.read_ops));
    m.set("pdm.write_ops", static_cast<double>(c.write_ops));
    m.set("pdm.retries", static_cast<double>(c.retries));
    m.set("comm.bytes_sent", static_cast<double>(c.bytes_sent));
    m.set("comm.messages_sent", static_cast<double>(c.messages_sent));

    // The traced repetition: run_permute takes no session, so permute
    // reports counters and probes only.
    if (sorts) {
      fg::obs::Session session(kRingCapacity);
      try {
        const Rep traced = run_rep(w, opt, &session, false);
        ++attempted;
        session.finalize();
        const std::uint64_t dropped = session.spans().total_dropped();
        std::size_t largest = 0;
        for (const fg::obs::TrackSpans& t : session.spans().tracks()) {
          largest = std::max(largest, t.spans.size());
        }
        std::fprintf(stderr,
                     "fgbench: traced repetition: call %.3f s, %zu rings, "
                     "largest holds %zu of %zu spans\n",
                     traced.call_s, session.spans().ring_count(), largest,
                     kRingCapacity);
        m.set("obs.spans_dropped", static_cast<double>(dropped));
        m.set("obs.trace_overhead_frac",
              (traced.call_s - call_median) / call_median);
        if (fold_trace(session, traced.call_begin_ns, traced.phases, m) != 0) {
          correct = false;
        }
        if (!traced.verified || dropped != 0 ||
            !same_bytes(traced.counters, c)) {
          std::fprintf(stderr,
                       "fgbench: traced repetition failed (verified %d, "
                       "spans dropped %llu)\n",
                       traced.verified ? 1 : 0,
                       static_cast<unsigned long long>(dropped));
          ++failed;
          correct = false;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fgbench: traced repetition threw: %s\n",
                     e.what());
        ++attempted;
        ++failed;
        correct = false;
      }
    }

    // The apps layer on a sort workload: one verified permute-shift
    // repetition, run as a probe.
    if (sorts) {
      ++attempted;
      try {
        const Rep apps =
            run_rep(*find_workload("permute-shift"), opt, nullptr, false);
        m.set("apps.cpu_s", apps.cpu_s);
        if (!apps.verified) {
          std::fprintf(stderr, "fgbench: apps probe failed verification\n");
          ++failed;
          correct = false;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fgbench: apps probe threw: %s\n", e.what());
        ++failed;
        correct = false;
      }
    }

    const KernelRates k =
        probe_kernels(cfg.record_bytes, cfg.dist, opt.seed, cfg.records);
    m.set("sort.sort_records.mrec_s", k.sort_mrec_s);
    m.set("sort.partition_records.mrec_s", k.partition_mrec_s);
    m.set("sort.merge_records.mrec_s", k.merge_mrec_s);
    m.set("core.channel_hop_ns.spsc", probe_channel_hop_ns(true));
    m.set("core.channel_hop_ns.mpmc", probe_channel_hop_ns(false));
    m.set("core.executor_ns_per_buffer.threads", probe_executor_ns(false));
    m.set("core.executor_ns_per_buffer.tasks", probe_executor_ns(true));
    const DiskRates d = probe_disk(opt.root / "probe", w.disk,
                                   std::max<std::uint64_t>(4 * llc_bytes(),
                                                           64 * kMiB));
    m.set("pdm.seq_read_mb_s", d.read_mb_s);
    m.set("pdm.seq_write_mb_s", d.write_mb_s);
    const FabricRates f = probe_fabric();
    m.set("comm.p2p_mb_s", f.p2p_mb_s);
    m.set("comm.rtt_us", f.rtt_us);
    m.set("comm.alltoall_mb_s", f.alltoall_mb_s);
    if (sorts) set_ceilings(w, cfg.records, pass_s, k, d, f, m);
    print_metrics(m);
    metrics = metrics_json(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fgbench: %s\nusage: fgbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --root DIR [--rev LABEL]\n"
               "       fgbench --list-metrics\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_root = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = find_workload(value);
        if (opt.workload == nullptr) {
          usage(("unknown workload " + value).c_str());
        }
      } else if (flag == "--seed") {
        opt.seed = fg::util::parse_u64(value, "--seed");
      } else if (flag == "--seconds") {
        opt.seconds =
            static_cast<double>(fg::util::parse_u64(value, "--seconds"));
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--root") {
        opt.root = value;
        have_root = true;
      } else if (flag == "--rev") {
        opt.rev = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  if (opt.workload == nullptr || !have_root) {
    usage("--workload and --root are required");
  }
  return opt;
}

}  // namespace
}  // namespace fgbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    std::printf("{\"end_to_end\": %s,\n\"per_layer\": %s}\n",
                fgbench::defs_json(fgbench::end_to_end_defs()).c_str(),
                fgbench::defs_json(fgbench::per_layer_defs()).c_str());
    return 0;
  }
#ifdef FGBENCH_SANITIZED
  std::fprintf(stderr, "fgbench: refusing to record a sanitizer build\n");
  return 2;
#else
  try {
    const fgbench::Options opt = fgbench::parse(argc, argv);
    mallopt(M_MMAP_THRESHOLD, fgbench::kMmapThreshold);
    return fgbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgbench: %s\n", e.what());
    return 1;
  }
#endif
}
