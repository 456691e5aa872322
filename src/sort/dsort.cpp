#include "sort/dsort.hpp"

#include "core/fg.hpp"
#include "pdm/aio.hpp"
#include "sort/dataset.hpp"
#include "sort/kernels.hpp"
#include "sort/splitters.hpp"
#include "util/timer.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace fg::sort {

namespace {

// Application tags.  Pass 1 and pass 2 use distinct tags so a fast node
// starting pass 2 cannot confuse a slow node still finishing pass 1.
constexpr int kTagData = 200;      // pass 1: partition records
constexpr int kTagDone = 201;      // pass 1: sender finished
constexpr int kTagOut = 202;       // pass 2: striped output chunk
constexpr int kTagOutDone = 203;   // pass 2: sender finished

/// One sorted run on a node's disk: record offset within the runs file
/// and record count.
struct Run {
  std::uint64_t offset;
  std::uint64_t count;
};

/// Cross-phase per-node state, owned by the driver.
struct NodeState {
  std::vector<ExtKey> splitters;
  std::vector<Run> runs;
  std::uint64_t received_records{0};
};

/// The common stage of the intersecting pipelines in pass 2: a k-way
/// merge fed by the vertical (per-run) pipelines, emitting filled buffers
/// into the horizontal pipeline.  Each horizontal buffer is tagged with
/// the global record position its first record will occupy in the final
/// striped output.
class MergeStage final : public Stage {
 public:
  MergeStage(std::vector<Pipeline*> verticals, Pipeline& horizontal,
             std::uint64_t global_start, std::uint32_t rec_bytes,
             util::LatencyModel compute)
      : Stage("merge"),
        verticals_(std::move(verticals)),
        horizontal_(&horizontal),
        global_start_(global_start),
        rec_(rec_bytes),
        compute_(compute) {}

  void run(StageContext& ctx) override {
    struct Cursor {
      Buffer* b{nullptr};
      std::size_t i{0};
      std::size_t n{0};
    };
    const std::size_t k = verticals_.size();
    std::vector<Cursor> cur(k);

    // Equal keys leave by their record's tie, not by run: runs form in
    // receive order, so only the extended key makes the output a pure
    // function of the input.
    MergeHeap heap([&](std::uint32_t v) {
      return util::mix64(uid_of(cur[v].b->contents().data() + cur[v].i * rec_));
    });
    // Accept run v's next buffer; false once the run is exhausted.
    auto load = [&](std::uint32_t v) {
      Buffer* b = ctx.accept(*verticals_[v]);
      cur[v] = b != nullptr ? Cursor{b, 0, b->size() / rec_} : Cursor{};
      return b != nullptr;
    };
    for (std::uint32_t v = 0; v < k; ++v) {
      if (load(v)) heap.push(key_of(cur[v].b->contents().data()), v);
    }

    Buffer* out = ctx.accept(*horizontal_);
    std::uint64_t emitted = 0;
    std::size_t oi = 0;
    std::size_t ocap = out->capacity() / rec_;
    out->set_tag(global_start_);

    while (!heap.empty()) {
      const std::uint32_t v = heap.top();
      Cursor& c = cur[v];
      std::memcpy(out->data().data() + oi * rec_,
                  c.b->contents().data() + c.i * rec_, rec_);
      ++oi;
      ++c.i;
      if (c.i == c.n) {
        // Spent input buffer: convey it to its own vertical sink for
        // recycling, then accept the run's next buffer (if any).
        ctx.convey(c.b);
        if (load(v)) {
          heap.replace_top(key_of(c.b->contents().data()));
        } else {
          heap.pop();
        }
      } else {
        heap.replace_top(key_of(c.b->contents().data() + c.i * rec_));
      }
      if (oi == ocap) {
        out->set_size(oi * rec_);
        compute_.charge(out->size());
        ctx.convey(out);
        emitted += oi;
        out = ctx.accept(*horizontal_);
        out->set_tag(global_start_ + emitted);
        oi = 0;
        ocap = out->capacity() / rec_;
      }
    }
    if (oi > 0) {
      out->set_size(oi * rec_);
      compute_.charge(out->size());
      ctx.convey(out);
    } else {
      ctx.recycle(out);
    }
    ctx.close(*horizontal_);
  }

 private:
  std::vector<Pipeline*> verticals_;
  Pipeline* horizontal_;
  std::uint64_t global_start_;
  std::uint32_t rec_;
  util::LatencyModel compute_;
};

void check_config(const comm::Cluster& cluster, const pdm::Workspace& ws,
                  const SortConfig& cfg) {
  if (cfg.nodes != cluster.size() || cfg.nodes != ws.nodes()) {
    throw std::invalid_argument(
        "fg::sort::run_dsort: cluster/workspace/config node counts differ");
  }
  if (cfg.record_bytes < kMinRecordBytes) {
    throw std::invalid_argument("fg::sort::run_dsort: record_bytes too small");
  }
  if (cfg.buffer_records == 0 || cfg.merge_buffer_records == 0 ||
      cfg.out_buffer_records == 0) {
    throw std::invalid_argument("fg::sort::run_dsort: zero buffer size");
  }
}

void instrument_graph(PipelineGraph& graph, const SortConfig& cfg,
                      comm::Fabric& fabric) {
  graph.set_runtime_options(cfg.runtime);
  if (cfg.obs) graph.set_observability(cfg.obs);
  if (cfg.watchdog_ms == 0) return;
  graph.set_watchdog(std::chrono::milliseconds(cfg.watchdog_ms));
  // Stages of these graphs block inside fabric calls, which queue aborts
  // cannot wake; a stalled run must also abort the fabric to unwind.
  graph.set_abort_hook([&fabric] { fabric.abort(); });
}

}  // namespace

SortResult run_dsort(comm::Cluster& cluster, pdm::Workspace& ws,
                     const SortConfig& cfg) {
  check_config(cluster, ws, cfg);
  const pdm::StripeLayout layout = layout_of(cfg);
  const std::uint32_t rec = cfg.record_bytes;
  const int p = cfg.nodes;

  std::vector<NodeState> states(static_cast<std::size_t>(p));
  comm::Fabric& fabric = cluster.fabric();

  SortResult result;
  result.records = cfg.records;
  std::mutex stats_mutex;  // node lambdas run concurrently

  // ------------------------------------------------------------------
  // Phase 0: splitter selection by oversampling.
  // ------------------------------------------------------------------
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

  // ------------------------------------------------------------------
  // Pass 1: partition and distribute; write sorted runs.
  // ------------------------------------------------------------------
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      NodeState& st = states[static_cast<std::size_t>(me)];
      pdm::Disk& disk = ws.disk(me);
      pdm::File input = disk.open(cfg.input_name);
      pdm::File runs_file = disk.create("runs");

      PipelineGraph graph;
      PipelineConfig send_cfg;
      send_cfg.name = "send";
      send_cfg.num_buffers = cfg.num_buffers;
      send_cfg.buffer_bytes = cfg.buffer_records * rec;
      send_cfg.aux_buffers = true;
      PipelineConfig recv_cfg = send_cfg;
      recv_cfg.name = "receive";
      Pipeline& sp = graph.add_pipeline(send_cfg);
      Pipeline& rp = graph.add_pipeline(recv_cfg);

      // --- send pipeline: read -> permute -> send -----------------------
      // Read-ahead: the scan is strictly sequential, so keep the next
      // rounds' blocks in flight while this round is being partitioned.
      const std::uint64_t local_records = layout.node_records(me, cfg.records);
      pdm::ReadAhead read_ahead(
          disk, input, cfg.buffer_records * rec,
          [&](std::uint64_t round, std::uint64_t* offset, std::size_t* bytes) {
            const std::uint64_t start = round * cfg.buffer_records;
            if (start >= local_records) return false;
            const std::uint64_t n =
                std::min<std::uint64_t>(cfg.buffer_records,
                                        local_records - start);
            *offset = start * rec;
            *bytes = static_cast<std::size_t>(n * rec);
            return true;
          });
      MapStage read("read", [&](Buffer& b) {
        const std::size_t n = read_ahead.next(b.data());
        if (n == 0) return StageAction::kRecycleAndClose;
        b.set_size(n);
        return StageAction::kConvey;
      });

      // Partition-group counts travel beside the buffer from permute to
      // send (keyed by buffer identity; buffers are stable objects).
      std::mutex counts_mutex;
      std::unordered_map<Buffer*, std::vector<std::uint32_t>> counts_map;
      MapStage permute("permute", [&](Buffer& b) {
        auto counts = partition_records(b.contents(), rec, st.splitters,
                                        b.aux().first(b.size()));
        b.swap_aux();
        std::lock_guard<std::mutex> lock(counts_mutex);
        counts_map[&b] = std::move(counts);
        return StageAction::kConvey;
      });

      MapStage send(
          "send",
          [&, me](Buffer& b) {
            std::vector<std::uint32_t> counts;
            {
              std::lock_guard<std::mutex> lock(counts_mutex);
              auto it = counts_map.find(&b);
              counts = std::move(it->second);
              counts_map.erase(it);
            }
            const std::byte* ptr = b.contents().data();
            std::uint64_t off = 0;
            for (int d = 0; d < p; ++d) {
              const std::uint32_t c = counts[static_cast<std::size_t>(d)];
              if (c != 0) {
                fabric.send(me, d, kTagData, {ptr + off * rec, std::size_t{c} * rec});
                off += c;
              }
            }
            return StageAction::kConvey;
          },
          [&, me](PipelineId) {
            for (int d = 0; d < p; ++d) fabric.send(me, d, kTagDone, {});
          });

      sp.add_stage(read);
      sp.add_stage(permute);
      sp.add_stage(send);

      // --- receive pipeline: receive -> sort -> write --------------------
      int dones = 0;
      std::vector<std::byte> pending;
      std::size_t pending_off = 0;
      std::vector<std::byte> tmp(cfg.buffer_records * rec);
      MapStage receive("receive", [&, me](Buffer& b) {
        const std::size_t cap = b.capacity();
        std::size_t fill = 0;
        auto out = b.data();
        for (;;) {
          if (pending_off < pending.size()) {
            const std::size_t take =
                std::min(pending.size() - pending_off, cap - fill);
            std::memcpy(out.data() + fill, pending.data() + pending_off, take);
            fill += take;
            pending_off += take;
            if (fill == cap) break;
            continue;
          }
          if (dones == p) break;
          const comm::RecvResult rr =
              fabric.recv(me, comm::kAnySource, comm::kAnyTag, tmp);
          if (rr.tag == kTagDone) {
            ++dones;
            continue;
          }
          pending.assign(tmp.begin(),
                         tmp.begin() + static_cast<std::ptrdiff_t>(rr.bytes));
          pending_off = 0;
        }
        b.set_size(fill);
        const bool finished = dones == p && pending_off >= pending.size();
        if (finished) {
          return fill > 0 ? StageAction::kConveyAndClose
                          : StageAction::kRecycleAndClose;
        }
        return StageAction::kConvey;
      });

      MapStage sort_stage("sort", [&](Buffer& b) {
        sort_records(b.contents(), rec, b.aux());
        cfg.compute_model.charge(b.size());
        return StageAction::kConvey;
      });

      // Write-behind: stage the sorted run into a slot and let the I/O
      // workers write it while the next run is received and sorted.  The
      // flush hook is the checked barrier before the runs file closes.
      pdm::WriteBehind write_behind(disk, runs_file, cfg.buffer_records * rec);
      std::uint64_t write_off = 0;
      MapStage write(
          "write",
          [&](Buffer& b) {
            auto slot = write_behind.stage();
            std::memcpy(slot.data(), b.contents().data(), b.size());
            write_behind.submit(
                {pdm::WriteBehind::Piece{write_off * rec, 0, b.size()}});
            const std::uint64_t n = b.size() / rec;
            st.runs.push_back(Run{write_off, n});
            st.received_records += n;
            write_off += n;
            return StageAction::kConvey;
          },
          [&](PipelineId) { write_behind.drain(); });

      rp.add_stage(receive);
      rp.add_stage(sort_stage);
      rp.add_stage(write);

      instrument_graph(graph, cfg, fabric);
      graph.run();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        merge_stage_stats(result.stage_totals, graph.stats());
      }
      // Checked close: the runs file carries this pass's output, so a
      // buffered-write failure must surface here, not vanish in a dtor.
      disk.close(runs_file);
      disk.close(input);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  // ------------------------------------------------------------------
  // Pass 2: merge runs; load-balance and stripe the output.
  // ------------------------------------------------------------------
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      NodeState& st = states[static_cast<std::size_t>(me)];
      pdm::Disk& disk = ws.disk(me);
      pdm::File runs_file = disk.open("runs");
      pdm::File out_file = disk.create(cfg.output_name);

      // Load balancing: partition sizes differ across nodes, so compute
      // where this node's merged stream starts in the global output.
      const std::vector<std::uint64_t> counts =
          fabric.allgather_u64(me, st.received_records);
      std::uint64_t global_start = 0;
      for (int i = 0; i < me; ++i) {
        global_start += counts[static_cast<std::size_t>(i)];
      }

      PipelineGraph graph;

      // Vertical pipelines: one per sorted run, with a single *virtual*
      // read stage shared by all of them.  The buffer's pipeline id picks
      // the run to read from.
      const std::size_t k = st.runs.size();
      std::vector<Pipeline*> verticals;
      verticals.reserve(k);
      // One single-slot read-ahead per run: each run's scan is sequential
      // within the runs file, so its next block prefetches while the
      // merge drains the current one.
      std::vector<std::unique_ptr<pdm::ReadAhead>> run_ahead;
      run_ahead.reserve(k);
      for (std::size_t v = 0; v < k; ++v) {
        const Run run = st.runs[v];
        run_ahead.push_back(std::make_unique<pdm::ReadAhead>(
            disk, runs_file, cfg.merge_buffer_records * rec,
            [&, run](std::uint64_t round, std::uint64_t* offset,
                     std::size_t* bytes) {
              const std::uint64_t start = round * cfg.merge_buffer_records;
              if (start >= run.count) return false;
              const std::uint64_t n = std::min<std::uint64_t>(
                  cfg.merge_buffer_records, run.count - start);
              *offset = (run.offset + start) * rec;
              *bytes = static_cast<std::size_t>(n * rec);
              return true;
            },
            /*depth=*/1));
      }
      MapStage vread("read-run", [&](Buffer& b) {
        const auto run_index = static_cast<std::size_t>(b.pipeline());
        const std::size_t n = run_ahead[run_index]->next(b.data());
        if (n == 0) return StageAction::kRecycleAndClose;
        b.set_size(n);
        return StageAction::kConvey;
      });

      for (std::size_t v = 0; v < k; ++v) {
        PipelineConfig vc;
        vc.name = "run" + std::to_string(v);
        vc.num_buffers = cfg.merge_num_buffers;
        vc.buffer_bytes = cfg.merge_buffer_records * rec;
        Pipeline& pv = graph.add_pipeline(vc);
        pv.add_stage(vread, StageMode::kVirtual);
        verticals.push_back(&pv);
      }

      // Horizontal pipeline: merge (common stage) -> send.
      PipelineConfig hc;
      hc.name = "merged";
      hc.num_buffers = cfg.out_num_buffers;
      hc.buffer_bytes = cfg.out_buffer_records * rec;
      Pipeline& hp = graph.add_pipeline(hc);

      MergeStage merge(verticals, hp, global_start, rec, cfg.compute_model);
      for (Pipeline* pv : verticals) pv->add_stage(merge);
      hp.add_stage(merge);

      std::vector<std::byte> msg;
      MapStage hsend(
          "send",
          [&, me](Buffer& b) {
            std::uint64_t g = b.tag();
            const std::uint64_t n = b.size() / rec;
            const std::byte* ptr = b.contents().data();
            std::uint64_t done = 0;
            while (done < n) {
              // Longest chunk that stays within one striped block, i.e.
              // lands contiguously on one node's disk.
              const std::uint64_t c =
                  std::min(layout.run_within_block(g), n - done);
              const int dst = layout.node_of(g);
              msg.resize(8 + c * rec);
              std::memcpy(msg.data(), &g, 8);
              std::memcpy(msg.data() + 8, ptr + done * rec, c * rec);
              fabric.send(me, dst, kTagOut, msg);
              done += c;
              g += c;
            }
            return StageAction::kConvey;
          },
          [&, me](PipelineId) {
            for (int d = 0; d < p; ++d) fabric.send(me, d, kTagOutDone, {});
          });
      hp.add_stage(hsend);

      // Receive pipeline: receive -> write (positioned, local).
      PipelineConfig rc;
      rc.name = "receive";
      rc.num_buffers = cfg.out_num_buffers;
      rc.buffer_bytes = std::size_t{cfg.block_records} * rec;
      Pipeline& rp = graph.add_pipeline(rc);

      int dones = 0;
      std::vector<std::byte> tmp(8 + std::size_t{cfg.block_records} * rec);
      MapStage receive("receive", [&, me](Buffer& b) {
        for (;;) {
          if (dones == p) return StageAction::kRecycleAndClose;
          const comm::RecvResult rr =
              fabric.recv(me, comm::kAnySource, comm::kAnyTag, tmp);
          if (rr.tag == kTagOutDone) {
            ++dones;
            continue;
          }
          std::uint64_t g;
          std::memcpy(&g, tmp.data(), 8);
          const std::size_t bytes = rr.bytes - 8;
          std::memcpy(b.data().data(), tmp.data() + 8, bytes);
          b.set_size(bytes);
          b.set_tag(g);
          return StageAction::kConvey;
        }
      });

      pdm::WriteBehind write_behind(disk, out_file,
                                    std::size_t{cfg.block_records} * rec);
      MapStage write(
          "write",
          [&](Buffer& b) {
            auto slot = write_behind.stage();
            std::memcpy(slot.data(), b.contents().data(), b.size());
            write_behind.submit({pdm::WriteBehind::Piece{
                layout.local_byte_offset(b.tag()), 0, b.size()}});
            return StageAction::kConvey;
          },
          [&](PipelineId) { write_behind.drain(); });

      rp.add_stage(receive);
      rp.add_stage(write);

      instrument_graph(graph, cfg, fabric);
      graph.run();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        merge_stage_stats(result.stage_totals, graph.stats());
      }
      disk.close(out_file);
      disk.close(runs_file);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  return result;
}

}  // namespace fg::sort
