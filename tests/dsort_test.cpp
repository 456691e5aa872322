// End-to-end tests for dsort: parameterized sweeps over cluster size,
// record size, and key distribution; degenerate shapes; load-balancing
// and striping properties.
#include "comm/cluster.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace fg::sort {
namespace {

SortConfig small_config() {
  SortConfig cfg;
  cfg.nodes = 4;
  cfg.records = 8000;
  cfg.record_bytes = 16;
  cfg.block_records = 64;
  cfg.buffer_records = 256;
  cfg.num_buffers = 3;
  cfg.merge_buffer_records = 64;
  cfg.merge_num_buffers = 2;
  cfg.out_buffer_records = 256;
  cfg.oversample = 32;
  return cfg;
}

VerifyResult sort_and_verify(const SortConfig& cfg) {
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  const SortResult r = run_dsort(cluster, ws, cfg);
  EXPECT_EQ(r.records, cfg.records);
  EXPECT_EQ(r.times.passes.size(), 2u);  // two passes, as the paper says
  return verify_output(ws, cfg);
}

using Params = std::tuple<int, std::uint32_t, Distribution>;
class DsortSweep : public ::testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, DsortSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(16u, 64u),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kAllEqual,
                                         Distribution::kNormal,
                                         Distribution::kPoisson)));

TEST_P(DsortSweep, SortsCorrectly) {
  const auto [nodes, rec, dist] = GetParam();
  SortConfig cfg = small_config();
  cfg.nodes = nodes;
  cfg.record_bytes = rec;
  cfg.dist = dist;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.sorted);
  EXPECT_TRUE(v.permutation);
  EXPECT_EQ(v.records, cfg.records);
}

TEST(Dsort, UnbalancedDistributions) {
  for (Distribution d : {Distribution::kSorted, Distribution::kReversed,
                         Distribution::kNodeClustered}) {
    SortConfig cfg = small_config();
    cfg.dist = d;
    const VerifyResult v = sort_and_verify(cfg);
    EXPECT_TRUE(v.ok()) << to_string(d);
  }
}

TEST(Dsort, RecordCountNotMultipleOfAnything) {
  SortConfig cfg = small_config();
  cfg.records = 7919;  // prime
  cfg.block_records = 61;
  cfg.nodes = 3;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, TinyDataset) {
  SortConfig cfg = small_config();
  cfg.records = 17;
  cfg.block_records = 4;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, DatasetSmallerThanCluster) {
  SortConfig cfg = small_config();
  cfg.nodes = 6;
  cfg.records = 3;  // some nodes hold nothing
  cfg.block_records = 2;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, SingleBufferPools) {
  SortConfig cfg = small_config();
  cfg.num_buffers = 1;
  cfg.merge_num_buffers = 1;
  cfg.out_num_buffers = 1;
  cfg.records = 2000;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, ManyRunsPerNode) {
  // Small pass-1 buffers force many sorted runs, hence many vertical
  // pipelines in pass 2 — the virtual-stage machinery under load.
  SortConfig cfg = small_config();
  cfg.records = 12000;
  cfg.buffer_records = 64;  // ~47 runs per node
  cfg.merge_buffer_records = 32;
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, LargeBlocksRelativeToBuffers) {
  SortConfig cfg = small_config();
  cfg.block_records = 512;
  cfg.out_buffer_records = 128;  // output chunks smaller than a block
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.ok());
}

TEST(Dsort, MismatchedNodeCountsRejected) {
  SortConfig cfg = small_config();
  pdm::Workspace ws(2);
  comm::SimCluster cluster(4);
  EXPECT_THROW(run_dsort(cluster, ws, cfg), std::invalid_argument);
}

TEST(Dsort, BadRecordSizeRejected) {
  SortConfig cfg = small_config();
  cfg.record_bytes = 8;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  EXPECT_THROW(run_dsort(cluster, ws, cfg), std::invalid_argument);
}

TEST(Dsort, SamplingPhaseIsCheap) {
  SortConfig cfg = small_config();
  cfg.records = 20000;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  const SortResult r = run_dsort(cluster, ws, cfg);
  // The paper reports sampling as negligible; without injected latency it
  // must be well under the pass times' order of magnitude (allow slack
  // for scheduler noise on loaded machines).
  EXPECT_LT(r.times.sampling, 1.0);
  EXPECT_TRUE(verify_output(ws, cfg).ok());
}

TEST(Dsort, OutputFilesAreStripedShares) {
  SortConfig cfg = small_config();
  cfg.records = 10000;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  run_dsort(cluster, ws, cfg);
  const auto layout = layout_of(cfg);
  for (int n = 0; n < cfg.nodes; ++n) {
    pdm::File f = ws.disk(n).open(cfg.output_name);
    // Every node's output file holds exactly its striped share: the
    // load-balancing step equalizes the final distribution regardless of
    // pass-1 partition skew.
    EXPECT_EQ(ws.disk(n).size(f),
              layout.node_records(n, cfg.records) * cfg.record_bytes)
        << "node " << n;
  }
}

TEST(Dsort, RepeatedRunsAreDeterministic) {
  SortConfig cfg = small_config();
  cfg.records = 3000;
  const VerifyResult a = sort_and_verify(cfg);
  const VerifyResult b = sort_and_verify(cfg);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.records, b.records);
}

/// Run dsort under `executor` and return every node's output file,
/// concatenated in node order.
std::vector<std::byte> output_stripes(SortConfig cfg, ExecutorKind executor) {
  cfg.runtime.executor = executor;
  cfg.runtime.task_workers = 4;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  run_dsort(cluster, ws, cfg);
  EXPECT_TRUE(verify_output(ws, cfg).ok());
  std::vector<std::byte> all;
  for (int n = 0; n < cfg.nodes; ++n) {
    pdm::Disk& disk = ws.disk(n);
    pdm::File f = disk.open(cfg.output_name);
    std::vector<std::byte> bytes(disk.size(f));
    disk.read_exact(f, 0, bytes);
    disk.close(f);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  return all;
}

TEST(Dsort, DuplicateKeyOutputIsAPureFunctionOfInput) {
  // Pass-1 runs form in receive order, which varies from run to run and
  // between executors.  Records with equal keys must still land in the
  // same order: by extended key, not by the run they were merged from.
  for (Distribution d : {Distribution::kPoisson, Distribution::kAllEqual}) {
    SortConfig cfg = small_config();
    cfg.records = 40000;
    cfg.dist = d;
    const auto reference = output_stripes(cfg, ExecutorKind::kThreadPerStage);
    for (ExecutorKind ex : {ExecutorKind::kThreadPerStage, ExecutorKind::kTasks,
                            ExecutorKind::kThreadPerStage}) {
      EXPECT_TRUE(output_stripes(cfg, ex) == reference)
          << to_string(d) << " under " << to_string(ex);
    }
  }
}

}  // namespace
}  // namespace fg::sort
