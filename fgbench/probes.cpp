// Layer probes: each times one layer's public entry points in isolation,
// so a change to that layer shows here even where the end-to-end run
// hides it.  Every probe reports the median of several trials.
#include "bench.hpp"

#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "pdm/workspace.hpp"
#include "sort/kernels.hpp"
#include "util/timer.hpp"

#include <array>
#include <fstream>
#include <thread>

namespace fgbench {
namespace {

constexpr std::size_t kProbeBufferBytes = 256 * 1024;  // one pipeline buffer
constexpr double kKernelBudgetSeconds = 0.2;
constexpr int kKernelMinIterations = 9;
constexpr int kTrials = 3;

/// Median time of `op` over repeated runs, each after an untimed
/// `prepare`, until the budget and the minimum iteration count are met.
template <typename Prepare, typename Op>
double median_seconds(Prepare prepare, Op op) {
  std::vector<double> times;
  fg::util::Stopwatch budget;
  while (static_cast<int>(times.size()) < kKernelMinIterations ||
         budget.elapsed_seconds() < kKernelBudgetSeconds) {
    prepare();
    fg::util::Stopwatch sw;
    op();
    times.push_back(sw.elapsed_seconds());
  }
  return median(times);
}

template <typename Trial>
double median_of_trials(Trial trial) {
  std::vector<double> v;
  for (int i = 0; i < kTrials; ++i) v.push_back(trial());
  return median(v);
}

double hop_ns_per_op(fg::Channel& q, std::uint64_t tokens) {
  fg::Buffer buf(64, fg::PipelineId{0}, false);
  fg::util::Stopwatch wall;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < tokens; ++i) {
      q.push(fg::Token::of_buffer(&buf));
    }
    q.push(fg::Token::caboose(0));
  });
  for (;;) {
    const fg::Token t = q.pop();
    if (t.kind != fg::TokenKind::kBuffer) break;
  }
  const double seconds = wall.elapsed_seconds();
  producer.join();
  return seconds * 1e9 / static_cast<double>(tokens);
}

}  // namespace

KernelRates probe_kernels(std::uint32_t rec, fg::sort::Distribution dist,
                          std::uint64_t seed, std::uint64_t total_records) {
  const std::size_t n = kProbeBufferBytes / rec;
  const std::size_t bytes = n * rec;
  std::vector<std::byte> pristine(bytes), work(bytes), scratch(bytes),
      out(bytes);
  for (std::size_t g = 0; g < n; ++g) {
    fg::sort::make_record(dist, seed, g, total_records,
                          std::span(pristine).subspan(g * rec, rec));
  }
  // Three splitters at the buffer's quartiles: a 4-node partition.
  work = pristine;
  fg::sort::sort_records(work, rec, scratch);
  std::vector<fg::sort::ExtKey> splitters;
  for (std::size_t q = 1; q < 4; ++q) {
    splitters.push_back(fg::sort::ext_key_of(work.data() + (q * n / 4) * rec));
  }
  // Two independently sorted halves: the 2-way merge csort's pass 3 runs.
  std::vector<std::byte> halves = pristine;
  const std::size_t half = (n / 2) * rec;
  fg::sort::sort_records(std::span(halves).first(half), rec, scratch);
  fg::sort::sort_records(std::span(halves).subspan(half), rec, scratch);

  const double mrec = static_cast<double>(n) / 1e6;
  KernelRates r;
  r.sort_mrec_s = mrec / median_seconds(
      [&] { work = pristine; },
      [&] { fg::sort::sort_records(work, rec, scratch); });
  r.partition_mrec_s = mrec / median_seconds(
      [] {}, [&] {
        fg::sort::partition_records(pristine, rec, splitters, out);
      });
  r.merge_mrec_s = mrec / median_seconds(
      [] {}, [&] {
        fg::sort::merge_records(std::span(halves).first(half),
                                std::span(halves).subspan(half), rec, out);
      });
  return r;
}

double probe_channel_hop_ns(bool spsc) {
  // The channel sizing bench_buffers' queue_hop uses: a 64-token throttle,
  // the SPSC ring sized strictly above it as the plan layer would.
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kTokens = 1 << 18;
  return median_of_trials([&] {
    if (spsc) {
      fg::SpscChannel q(kCapacity * 4, kCapacity);
      return hop_ns_per_op(q, kTokens);
    }
    fg::BufferQueue q(kCapacity);
    return hop_ns_per_op(q, kTokens);
  });
}

double probe_executor_ns(bool tasks) {
  constexpr std::uint64_t kRounds = 1 << 15;
  return median_of_trials([&] {
    const auto noop = [](fg::Buffer&) { return fg::StageAction::kConvey; };
    fg::MapStage a("a", noop);
    fg::MapStage b("b", noop);
    fg::PipelineGraph graph;
    fg::PipelineConfig cfg;
    cfg.name = "noop";
    cfg.num_buffers = 4;
    cfg.buffer_bytes = 64;
    cfg.rounds = kRounds;
    fg::Pipeline& p = graph.add_pipeline(cfg);
    p.add_stage(a);
    p.add_stage(b);
    fg::RuntimeOptions opts;
    opts.executor =
        tasks ? fg::ExecutorKind::kTasks : fg::ExecutorKind::kThreadPerStage;
    opts.task_workers = 4;
    graph.set_runtime_options(opts);
    fg::util::Stopwatch sw;
    graph.run();
    return sw.elapsed_seconds() * 1e9 / static_cast<double>(kRounds);
  });
}

std::uint64_t llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::uint64_t v = 0;
  char suffix = 0;
  if (in >> v) {
    in >> suffix;
    if (suffix == 'K') v <<= 10;
    if (suffix == 'M') v <<= 20;
  }
  return v > 0 ? v : std::uint64_t{32} << 20;
}

DiskRates probe_disk(const std::filesystem::path& root,
                     fg::pdm::DiskBackend backend, std::uint64_t file_bytes) {
  // 256 KiB operations, four in flight on the async path the sort stages
  // use (ReadAhead / WriteBehind).
  constexpr std::size_t kOp = 256 * 1024;
  constexpr std::size_t kDepth = 4;
  fg::pdm::Workspace ws(root, 1, fg::util::LatencyModel::free(), backend);
  fg::pdm::Disk& disk = ws.disk(0);
  std::array<std::vector<std::byte>, kDepth> bufs;
  for (auto& b : bufs) b.assign(kOp, std::byte{0x5a});
  const std::uint64_t ops = file_bytes / kOp;
  const double mb = static_cast<double>(ops * kOp) / 1e6;

  const auto stream = [&](fg::pdm::File& f, bool write) {
    std::array<fg::pdm::IoHandle, kDepth> inflight;
    fg::util::Stopwatch sw;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::size_t slot = i % kDepth;
      if (inflight[slot].valid()) inflight[slot].wait();
      inflight[slot] = write ? disk.write_async(f, i * kOp, bufs[slot])
                             : disk.read_async(f, i * kOp, bufs[slot]);
    }
    for (auto& h : inflight) {
      if (h.valid()) h.wait();
    }
    disk.close(f);
    return mb / sw.elapsed_seconds();
  };
  DiskRates r;
  fg::pdm::File out = disk.create("seq");
  r.write_mb_s = stream(out, true);
  fg::pdm::File in = disk.open("seq");
  r.read_mb_s = stream(in, false);
  return r;
}

FabricRates probe_fabric() {
  using fg::comm::NodeId;
  FabricRates r;

  constexpr std::size_t kMsg = 256 * 1024;
  constexpr int kMsgs = 512;
  constexpr int kWindow = 32;  // acks bound what the mailbox holds
  r.p2p_mb_s = median_of_trials([&] {
    fg::comm::SimCluster cluster(2);
    fg::comm::Fabric& f = cluster.fabric();
    fg::util::Stopwatch sw;
    cluster.run([&](NodeId me) {
      std::vector<std::byte> buf(kMsg);
      std::byte ack[1] = {};
      for (int i = 1; i <= kMsgs; ++i) {
        if (me == 0) {
          f.send(0, 1, 1, buf);
          if (i % kWindow == 0) f.recv(0, 1, 2, ack);
        } else {
          f.recv(1, 0, 1, buf);
          if (i % kWindow == 0) f.send(1, 0, 2, ack);
        }
      }
    });
    return static_cast<double>(kMsgs * kMsg) / 1e6 / sw.elapsed_seconds();
  });

  constexpr int kPings = 20000;
  r.rtt_us = median_of_trials([&] {
    fg::comm::SimCluster cluster(2);
    fg::comm::Fabric& f = cluster.fabric();
    fg::util::Stopwatch sw;
    cluster.run([&](NodeId me) {
      std::byte msg[64] = {};
      for (int i = 0; i < kPings; ++i) {
        if (me == 0) {
          f.send(0, 1, 1, msg);
          f.recv(0, 1, 1, msg);
        } else {
          f.recv(1, 0, 1, msg);
          f.send(1, 0, 1, msg);
        }
      }
    });
    return sw.elapsed_seconds() * 1e6 / kPings;
  });

  constexpr int kNodes = 4;
  constexpr std::size_t kBlock = 64 * 1024;
  constexpr int kRounds = 64;
  r.alltoall_mb_s = median_of_trials([&] {
    fg::comm::SimCluster cluster(kNodes);
    fg::comm::Fabric& f = cluster.fabric();
    fg::util::Stopwatch sw;
    cluster.run([&](NodeId me) {
      std::vector<std::byte> send(kNodes * kBlock), recv(kNodes * kBlock);
      for (int i = 0; i < kRounds; ++i) f.alltoall(me, send, recv, kBlock);
    });
    const double between_nodes =
        static_cast<double>(kRounds) * kNodes * (kNodes - 1) * kBlock;
    return between_nodes / 1e6 / sw.elapsed_seconds();
  });
  return r;
}

}  // namespace fgbench
