#include "sort/ssort.hpp"

#include "sort/dataset.hpp"
#include "sort/kernels.hpp"
#include "sort/splitters.hpp"
#include "util/timer.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace fg::sort {

namespace {

// Same tag discipline as dsort, so the passes are directly comparable.
constexpr int kTagData = 200;
constexpr int kTagDone = 201;
constexpr int kTagOut = 202;
constexpr int kTagOutDone = 203;

struct Run {
  std::uint64_t offset;
  std::uint64_t count;
};

struct NodeState {
  std::vector<ExtKey> splitters;
  std::vector<Run> runs;
  std::uint64_t received_records{0};
};

}  // namespace

SortResult run_ssort(comm::Cluster& cluster, pdm::Workspace& ws,
                     const SortConfig& cfg) {
  if (cfg.nodes != cluster.size() || cfg.nodes != ws.nodes()) {
    throw std::invalid_argument(
        "fg::sort::run_ssort: cluster/workspace/config node counts differ");
  }
  const pdm::StripeLayout layout = layout_of(cfg);
  const std::uint32_t rec = cfg.record_bytes;
  const int p = cfg.nodes;
  comm::Fabric& fabric = cluster.fabric();

  std::vector<NodeState> states(static_cast<std::size_t>(p));
  SortResult result;
  result.records = cfg.records;

  // Phase 0: identical splitter selection.
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      pdm::Disk& disk = ws.disk(me);
      pdm::File input = disk.open(cfg.input_name);
      states[static_cast<std::size_t>(me)].splitters =
          select_splitters(fabric, me, disk, input, cfg);
      disk.close(input);
    });
    result.times.sampling = sw.elapsed_seconds();
  }

  // Pass 1, strictly sequential per node: read, partition, send, drain,
  // sort+write full runs.  One thread per node; every high-latency
  // operation blocks the whole program.
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      NodeState& st = states[static_cast<std::size_t>(me)];
      pdm::Disk& disk = ws.disk(me);
      pdm::File input = disk.open(cfg.input_name);
      pdm::File runs_file = disk.create("runs");

      const std::uint64_t local = layout.node_records(me, cfg.records);
      const std::size_t buf_bytes = cfg.buffer_records * rec;
      std::vector<std::byte> in_buf(buf_bytes), part_buf(buf_bytes);
      std::vector<std::byte> acc(buf_bytes);   // accumulates one run
      std::size_t acc_fill = 0;
      std::vector<std::byte> scratch(buf_bytes);
      std::vector<std::byte> msg(buf_bytes);
      std::uint64_t write_off = 0;
      int dones = 0;

      auto flush_run = [&](std::size_t bytes) {
        if (bytes == 0) return;
        sort_records({acc.data(), bytes}, rec, scratch);
        cfg.compute_model.charge(bytes);
        disk.write(runs_file, write_off * rec, {acc.data(), bytes});
        const std::uint64_t n = bytes / rec;
        st.runs.push_back(Run{write_off, n});
        st.received_records += n;
        write_off += n;
      };
      auto absorb = [&](std::span<const std::byte> data) {
        std::size_t off = 0;
        while (off < data.size()) {
          const std::size_t take =
              std::min(data.size() - off, buf_bytes - acc_fill);
          std::memcpy(acc.data() + acc_fill, data.data() + off, take);
          acc_fill += take;
          off += take;
          if (acc_fill == buf_bytes) {
            flush_run(acc_fill);
            acc_fill = 0;
          }
        }
      };
      auto drain = [&](bool block) {
        while (dones < p &&
               (block || fabric.probe(me, comm::kAnySource, comm::kAnyTag))) {
          const auto rr =
              fabric.recv(me, comm::kAnySource, comm::kAnyTag, msg);
          if (rr.tag == kTagDone) {
            ++dones;
            continue;
          }
          absorb({msg.data(), rr.bytes});
          if (!block) break;  // at most one message between other work
        }
      };

      std::uint64_t read_off = 0;
      while (read_off < local) {
        const std::uint64_t n =
            std::min<std::uint64_t>(cfg.buffer_records, local - read_off);
        disk.read_exact(input, read_off * rec, {in_buf.data(), n * rec});
        read_off += n;
        const auto counts = partition_records({in_buf.data(), n * rec}, rec,
                                              st.splitters, part_buf);
        std::uint64_t off = 0;
        for (int d = 0; d < p; ++d) {
          const std::uint32_t c = counts[static_cast<std::size_t>(d)];
          if (c != 0) {
            fabric.send(me, d, kTagData,
                        {part_buf.data() + off * rec, std::size_t{c} * rec});
            off += c;
          }
        }
        drain(/*block=*/false);
      }
      for (int d = 0; d < p; ++d) fabric.send(me, d, kTagDone, {});
      drain(/*block=*/true);
      flush_run(acc_fill);
      disk.close(runs_file);
      disk.close(input);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  // Pass 2, strictly sequential per node: k-way merge with on-demand
  // (blocking) run reads, send, drain, positioned writes.
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      NodeState& st = states[static_cast<std::size_t>(me)];
      pdm::Disk& disk = ws.disk(me);
      pdm::File runs_file = disk.open("runs");
      pdm::File out_file = disk.create(cfg.output_name);

      const auto counts = fabric.allgather_u64(me, st.received_records);
      std::uint64_t global_start = 0;
      for (int i = 0; i < me; ++i) {
        global_start += counts[static_cast<std::size_t>(i)];
      }

      const std::size_t k = st.runs.size();
      const std::size_t chunk = cfg.merge_buffer_records;
      std::vector<std::vector<std::byte>> cur(k);
      std::vector<std::size_t> pos(k, 0);       // index into cur[v]
      std::vector<std::uint64_t> consumed(k, 0);

      auto refill = [&](std::size_t v) {
        const Run& run = st.runs[v];
        const std::uint64_t rem = run.count - consumed[v];
        const std::uint64_t n = std::min<std::uint64_t>(chunk, rem);
        cur[v].resize(n * rec);
        if (n) {
          disk.read_exact(runs_file, (run.offset + consumed[v]) * rec, cur[v]);
          consumed[v] += n;
        }
        pos[v] = 0;
      };
      // Equal keys leave by their record's tie, not by run (runs form in
      // receive order), as in dsort's merge.
      MergeHeap heap([&](std::uint32_t v) {
        return util::mix64(uid_of(cur[v].data() + pos[v] * rec));
      });
      for (std::uint32_t v = 0; v < k; ++v) {
        refill(v);
        if (!cur[v].empty()) heap.push(key_of(cur[v].data()), v);
      }

      const std::size_t out_records = cfg.out_buffer_records;
      std::vector<std::byte> out(out_records * rec);
      std::vector<std::byte> msg(8 + std::size_t{cfg.block_records} * rec);
      std::size_t oi = 0;
      std::uint64_t emitted = 0;
      int dones = 0;

      auto write_incoming = [&](std::span<const std::byte> m) {
        std::uint64_t g;
        std::memcpy(&g, m.data(), 8);
        disk.write(out_file, layout.local_byte_offset(g),
                   {m.data() + 8, m.size() - 8});
      };
      auto drain = [&](bool block) {
        while (dones < p &&
               (block || fabric.probe(me, comm::kAnySource, comm::kAnyTag))) {
          const auto rr =
              fabric.recv(me, comm::kAnySource, comm::kAnyTag, msg);
          if (rr.tag == kTagOutDone) {
            ++dones;
            continue;
          }
          write_incoming({msg.data(), rr.bytes});
          if (!block) break;
        }
      };
      auto ship = [&](std::size_t records) {
        cfg.compute_model.charge(records * rec);  // the merge work
        std::uint64_t g = global_start + emitted;
        std::uint64_t done = 0;
        while (done < records) {
          const std::uint64_t c =
              std::min(layout.run_within_block(g), records - done);
          const int dst = layout.node_of(g);
          msg.resize(8 + c * rec);
          std::memcpy(msg.data(), &g, 8);
          std::memcpy(msg.data() + 8, out.data() + done * rec, c * rec);
          fabric.send(me, dst, kTagOut, msg);
          done += c;
          g += c;
        }
        emitted += records;
        msg.resize(8 + std::size_t{cfg.block_records} * rec);
      };

      while (!heap.empty()) {
        const std::uint32_t v = heap.top();
        std::memcpy(out.data() + oi * rec, cur[v].data() + pos[v] * rec, rec);
        ++oi;
        ++pos[v];
        if (pos[v] * rec >= cur[v].size()) {
          refill(v);
          if (cur[v].empty()) {
            heap.pop();
          } else {
            heap.replace_top(key_of(cur[v].data()));
          }
        } else {
          heap.replace_top(key_of(cur[v].data() + pos[v] * rec));
        }
        if (oi == out_records) {
          ship(oi);
          oi = 0;
          drain(/*block=*/false);
        }
      }
      if (oi) ship(oi);
      for (int d = 0; d < p; ++d) fabric.send(me, d, kTagOutDone, {});
      drain(/*block=*/true);
      disk.close(out_file);
      disk.close(runs_file);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  return result;
}

}  // namespace fg::sort
