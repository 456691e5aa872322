// Record-kernel microbenchmark: the radix sort_records and the branch-free
// partition_records against the comparison-sort and binary-search oracles
// they replaced (tests/kernel_oracle.hpp), at the shapes dsort and csort
// call them with: one 256 KiB pipeline buffer of 16-byte records (16 Ki),
// one 8 MiB csort column of 16-byte records (512 Ki), and 64-byte records
// in 4 Ki-record buffers.  Keys are uniform; the partition uses the three
// quartile splitters of a 4-node dsort.
//
//   bench_kernels                       google-benchmark tables
//   bench_kernels --gate=FILE [--rev=R] append one JSON line to FILE and
//                                       exit 1 unless every new kernel
//                                       beats its oracle at every size
#include "kernel_oracle.hpp"
#include "sort/distributions.hpp"
#include "sort/kernels.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Shape {
  const char* name;
  std::uint32_t rec;
  std::size_t records;
};

constexpr Shape kShapes[] = {
    {"16B_16Ki", 16, std::size_t{16} << 10},
    {"16B_512Ki", 16, std::size_t{512} << 10},
    {"64B_4Ki", 64, std::size_t{4} << 10},
};

/// One shape's input and working buffers.
struct Workload {
  explicit Workload(const Shape& s)
      : rec(s.rec),
        pristine(s.records * s.rec),
        work(pristine.size()),
        scratch(pristine.size()),
        out(pristine.size()) {
    for (std::size_t g = 0; g < s.records; ++g) {
      fg::sort::make_record(fg::sort::Distribution::kUniform, 7, g, s.records,
                            std::span(pristine).subspan(g * rec, rec));
    }
    work = pristine;
    fg::sort::oracle::sort_records(work, rec, scratch);
    for (std::size_t q = 1; q < 4; ++q) {
      splitters.push_back(
          fg::sort::ext_key_of(work.data() + (q * s.records / 4) * rec));
    }
  }

  std::uint32_t rec;
  std::vector<std::byte> pristine, work, scratch, out;
  std::vector<fg::sort::ExtKey> splitters;
};

using Kernel = std::function<void(Workload&)>;

struct KernelPair {
  const char* kernel;
  const char* algorithm;  ///< the new kernel
  const char* oracle;
  Kernel run_new;
  Kernel run_oracle;
  bool sorts;  ///< restore `work` from `pristine` before each call
};

const KernelPair kKernels[] = {
    {"sort_records", "radix", "std::sort",
     [](Workload& w) { fg::sort::sort_records(w.work, w.rec, w.scratch); },
     [](Workload& w) {
       fg::sort::oracle::sort_records(w.work, w.rec, w.scratch);
     },
     true},
    {"partition_records", "branch-free", "lower_bound",
     [](Workload& w) {
       fg::sort::partition_records(w.pristine, w.rec, w.splitters, w.out);
     },
     [](Workload& w) {
       fg::sort::oracle::partition_records(w.pristine, w.rec, w.splitters,
                                           w.out);
     },
     false},
};

/// Seconds for one call of `kernel`, excluding the input reset.
double time_once(Workload& w, const Kernel& kernel, bool sorts) {
  if (sorts) w.work = w.pristine;
  fg::util::Stopwatch sw;
  kernel(w);
  return sw.elapsed_seconds();
}

void BM_Kernel(benchmark::State& state, const Shape& shape,
               const KernelPair& k, bool oracle) {
  Workload w(shape);
  const Kernel& kernel = oracle ? k.run_oracle : k.run_new;
  for (auto _ : state) {
    state.SetIterationTime(time_once(w, kernel, k.sorts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.records));
}

// --gate=<path>: time every (kernel, shape) pair outside google-benchmark
// with the two implementations interleaved trial by trial, append one JSON
// line to <path>, and fail unless each new kernel's median beats its
// oracle's.
int run_gate(const std::string& path, const std::string& rev) {
  constexpr int kTrials = 15;
  fg::util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "kernels");
  w.kv("rev", rev);
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("trials", kTrials);
  w.kv("keys", "uniform");
  w.key("cases");
  w.begin_array();
  bool pass = true;
  for (const Shape& shape : kShapes) {
    Workload work(shape);
    for (const KernelPair& k : kKernels) {
      std::vector<double> t_new, t_oracle;
      for (int i = 0; i < kTrials; ++i) {
        t_oracle.push_back(time_once(work, k.run_oracle, k.sorts));
        t_new.push_back(time_once(work, k.run_new, k.sorts));
      }
      const auto median = [](std::vector<double>& v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
      };
      const double mrec = static_cast<double>(shape.records) / 1e6;
      const double new_rate = mrec / median(t_new);
      const double oracle_rate = mrec / median(t_oracle);
      const bool wins = new_rate > oracle_rate;
      pass = pass && wins;
      w.begin_object();
      w.kv("kernel", k.kernel);
      w.kv("record_bytes", shape.rec);
      w.kv("records", static_cast<std::uint64_t>(shape.records));
      w.kv("algorithm", k.algorithm);
      w.kv("mrec_s", new_rate);
      w.kv("oracle", k.oracle);
      w.kv("oracle_mrec_s", oracle_rate);
      w.kv("speedup", new_rate / oracle_rate);
      w.end_object();
      std::printf("kernel gate: %-17s %-9s %-11s %7.1f Mrec/s vs %-11s "
                  "%7.1f Mrec/s (%.2fx) -> %s\n",
                  k.kernel, shape.name, k.algorithm, new_rate, k.oracle,
                  oracle_rate, new_rate / oracle_rate, wins ? "PASS" : "FAIL");
    }
  }
  w.end_array();
  w.kv("new_beats_oracle", pass);
  w.end_object();
  std::ofstream out(path, std::ios::app);
  out << w.str() << "\n";
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gate, rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gate=", 7) == 0) gate = argv[i] + 7;
    if (std::strncmp(argv[i], "--rev=", 6) == 0) rev = argv[i] + 6;
  }
  if (!gate.empty()) return run_gate(gate, rev);
  for (const KernelPair& k : kKernels) {
    for (const Shape& shape : kShapes) {
      for (const bool oracle : {false, true}) {
        const std::string name = std::string(k.kernel) + "/" +
                                 (oracle ? k.oracle : k.algorithm) + "/" +
                                 shape.name;
        benchmark::RegisterBenchmark(
            name.c_str(), [&shape, &k, oracle](benchmark::State& s) {
              BM_Kernel(s, shape, k, oracle);
            })
            ->UseManualTime()
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
