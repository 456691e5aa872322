#include "obs/registry.hpp"

#include "util/json.hpp"

namespace fg::obs {

std::uint64_t Histogram::percentile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (static_cast<double>(seen) >= target) {
      // Upper bound of bucket b: 0 for b == 0, else 2^b - 1.
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    }
  }
  return (std::uint64_t{1} << (kBuckets - 1));
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, std::int64_t>> Registry::gauges_with_prefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, g] : gauges_) {
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      out.emplace_back(name, g->value());
    }
  }
  return out;
}

void Registry::write_json(util::JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g->value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.kv("count", h->count());
    w.kv("sum", h->sum());
    w.kv("p50", h->percentile(50));
    w.kv("p95", h->percentile(95));
    w.kv("p99", h->percentile(99));
    w.key("buckets");
    w.begin_array();
    // Sparse encoding: [bucket_index, count] pairs for non-empty buckets,
    // so a 64-bucket histogram with three populated buckets costs three
    // small arrays rather than 64 zeros.
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n == 0) continue;
      w.begin_array();
      w.value(std::uint64_t{b});
      w.value(n);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace fg::obs
