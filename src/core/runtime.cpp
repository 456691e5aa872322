// Runtime construction, option resolution, run orchestration, and
// reporting.  The stage tasks and their placements live in executor.cpp;
// shared state in runtime_impl.hpp.
#include "core/runtime_impl.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace fg {

const char* to_string(ExecutorKind k) noexcept {
  switch (k) {
    case ExecutorKind::kAuto: return "auto";
    case ExecutorKind::kThreadPerStage: return "threads";
    case ExecutorKind::kTasks: return "tasks";
  }
  return "?";
}

namespace {

/// The variable's value, or nullptr when it is unset or empty.
const char* env_value(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : nullptr;
}

[[noreturn]] void bad_env(const char* name, const char* expected,
                          std::string_view got) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected +
                              ", got '" + std::string(got) + "'");
}

}  // namespace

ExecutorKind resolve_executor(ExecutorKind k) {
  if (k != ExecutorKind::kAuto) return k;
  const char* env = env_value("FG_EXECUTOR");
  if (env == nullptr) return ExecutorKind::kThreadPerStage;
  const std::string_view v(env);
  if (v == "threads") return ExecutorKind::kThreadPerStage;
  if (v == "tasks") return ExecutorKind::kTasks;
  bad_env("FG_EXECUTOR", "'threads' or 'tasks'", v);
}

ChannelPolicy resolve_channels(ChannelPolicy p) {
  if (p != ChannelPolicy::kAuto) return p;
  const char* env = env_value("FG_CHANNELS");
  if (env == nullptr) return ChannelPolicy::kAuto;
  const std::string_view v(env);
  if (v == "auto") return ChannelPolicy::kAuto;
  if (v == "mpmc") return ChannelPolicy::kMpmcOnly;
  bad_env("FG_CHANNELS", "'auto' or 'mpmc'", v);
}

std::size_t resolve_task_workers(std::size_t n) {
  if (n != 0) return n;
  if (const char* env = env_value("FG_TASK_WORKERS")) {
    // The same bound fgsort's --workers enforces.
    return static_cast<std::size_t>(
        util::parse_u64(env, "FG_TASK_WORKERS", 1, 65536));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 2 ? hw : 2;
}

bool resolve_task_spans(bool enabled) noexcept {
  if (enabled) return true;
  const char* env = std::getenv("FG_TASK_SPANS");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

const char* to_string(ChannelKind k) noexcept {
  switch (k) {
    case ChannelKind::kMpmc: return "mpmc";
    case ChannelKind::kSpsc: return "spsc";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Construction: materialize queues, pools, and workers from the plan
// ---------------------------------------------------------------------------

GraphRuntime::GraphRuntime(const ExecutionPlan& plan, obs::Session* obs,
                           RuntimeOptions options)
    : plan_(&plan), obs_(obs) {
  executor_kind_ = resolve_executor(options.executor);
  executor_name_ = to_string(executor_kind_);
  task_workers_ = resolve_task_workers(options.task_workers);
  task_spans_ = resolve_task_spans(options.task_spans);
  const ChannelPolicy channels = resolve_channels(options.channels);

  queues_.reserve(plan.queues().size());
  for (std::uint32_t qi = 0; qi < plan.queues().size(); ++qi) {
    const PlannedQueue& pq = plan.queues()[qi];
    if (pq.kind == ChannelKind::kSpsc && channels == ChannelPolicy::kAuto) {
      queues_.push_back(
          std::make_unique<SpscChannel>(pq.spsc_bound, pq.capacity));
    } else {
      queues_.push_back(std::make_unique<BufferQueue>(pq.capacity));
    }
    queue_index_[queues_.back().get()] = qi;
  }

  if (obs != nullptr) {
    spans_ = &obs->spans();
    rounds_counter_ = &obs->metrics().counter("pipeline.rounds");
    round_latency_ =
        &obs->metrics().histogram("pipeline.round_latency_us");
    queue_gauges_.reserve(queues_.size());
    for (std::uint32_t qi = 0; qi < queues_.size(); ++qi) {
      queue_gauges_.push_back(&obs->metrics().gauge(
          "queue." + std::to_string(qi) + ".depth"));
    }
  }

  // Per-job memory quota: charge the full pool allocation (primary +
  // auxiliary blocks) before any buffer exists.  An overdrawn budget
  // throws util::QuotaExceeded out of the constructor — no threads have
  // been spawned yet, so the failed run needs no unwinding beyond the
  // reservation's own RAII release.
  if (options.pool_budget != nullptr) {
    std::uint64_t total = 0;
    for (const PlannedPool& spec : plan.pools()) {
      total += static_cast<std::uint64_t>(spec.num_buffers) *
               spec.buffer_bytes * (spec.aux ? 2 : 1);
    }
    pool_reservation_ =
        util::BudgetReservation(options.pool_budget, total, "buffer pools");
  }

  pools_.resize(plan.pools().size());
  for (PipelineId pid = 0; pid < plan.pools().size(); ++pid) {
    const PlannedPool& spec = plan.pools()[pid];
    auto& pool = pools_[pid];
    pool.reserve(spec.num_buffers);
    for (std::size_t i = 0; i < spec.num_buffers; ++i) {
      pool.push_back(std::make_unique<Buffer>(spec.buffer_bytes, pid,
                                              spec.aux));
    }
  }

  auto q = [&](QueueIndex i) {
    return i == kNoQueue ? nullptr : queues_[i].get();
  };
  workers_.reserve(plan.workers().size());
  for (std::uint32_t wi = 0; wi < plan.workers().size(); ++wi) {
    const PlannedWorker& spec = plan.workers()[wi];
    auto w = std::make_unique<RunWorker>();
    w->index = wi;
    w->spec = &spec;
    w->in = q(spec.in);
    for (const auto& [pid, qi] : spec.in_by_pid) w->in_by_pid[pid] = q(qi);
    for (const auto& [pid, qi] : spec.out) w->out[pid] = q(qi);
    if (spec.kind == WorkerKind::kSource) {
      for (PipelineId pid : spec.members) {
        // Piecewise init: SrcState holds atomics, so no aggregate copy.
        w->src[pid].target = plan.pools()[pid].rounds;
      }
    }
    w->stats.stage = spec.label;
    w->stats.pipelines = spec.pipelines;
    workers_.push_back(std::move(w));
  }
}

// run() always stops it, but guard against a runtime destroyed after a
// throw in run() itself.
GraphRuntime::~GraphRuntime() { stop_watchdog(); }

void GraphRuntime::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(err_mutex_);
  if (!first_error_) first_error_ = e;
}

void GraphRuntime::abort_all() {
  for (auto& q : queues_) q->abort();
  // Yielded tasks are not blocked in any channel op; the executor must
  // wake them so they observe the abort tokens and unwind.
  if (notifier_ != nullptr) notifier_->on_abort();
}

void GraphRuntime::fail(std::exception_ptr e) {
  record_error(e);
  abort_all();
  // Queue aborts cannot wake stages blocked in external substrates (e.g.
  // a fabric recv); the hook tears those down too.
  if (abort_hook_) abort_hook_();
}

// ---------------------------------------------------------------------------
// Traced queue operations and the stall watchdog
// ---------------------------------------------------------------------------

Token GraphRuntime::traced_pop(RunWorker& w, Channel* q) {
  const std::uint32_t qi = queue_index_.at(q);
  w.blocked_queue.store(qi, std::memory_order_relaxed);
  w.blocked_push.store(false, std::memory_order_relaxed);
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t depth = 0;
  const bool sample = ring != nullptr || !queue_gauges_.empty();
  Token t = q->pop(sample ? &depth : nullptr);
  w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (t.kind != TokenKind::kAbort && notifier_ != nullptr)
    notifier_->on_pop(qi);
  if (sample && t.kind != TokenKind::kAbort) {
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(depth));
    if (ring != nullptr)
      ring->sample(obs::SpanKind::kQueueDepth, qi, depth, util::Clock::now());
  }
  return t;
}

bool GraphRuntime::traced_push(RunWorker& w, Channel* q, Token t) {
  const std::uint32_t qi = queue_index_.at(q);
  w.blocked_queue.store(qi, std::memory_order_relaxed);
  w.blocked_push.store(true, std::memory_order_relaxed);
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t depth = 0;
  const bool sample = ring != nullptr || !queue_gauges_.empty();
  const bool ok = q->push(t, sample ? &depth : nullptr);
  w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (ok && notifier_ != nullptr) notifier_->on_push(qi);
  if (sample && ok) {
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(depth));
    if (ring != nullptr)
      ring->sample(obs::SpanKind::kQueueDepth, qi, depth, util::Clock::now());
  }
  return ok;
}

bool GraphRuntime::traced_try_pop(RunWorker& w, Channel* q, Token& out) {
  (void)w;  // blocked-queue diagnostics are published by the yield path
  if (!q->try_pop(out)) return false;
  const std::uint32_t qi = queue_index_.at(q);
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (out.kind != TokenKind::kAbort && notifier_ != nullptr)
    notifier_->on_pop(qi);
  if (out.kind != TokenKind::kAbort) {
    obs::SpanRing* const ring = obs::current_ring();
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(q->size()));
    if (ring != nullptr) {
      ring->sample(obs::SpanKind::kQueueDepth, qi, q->size(),
                   util::Clock::now());
    }
  }
  return true;
}

PushResult GraphRuntime::traced_try_push(RunWorker& w, Channel* q, Token t) {
  (void)w;  // blocked-queue diagnostics are published by the yield path
  const std::uint32_t qi = queue_index_.at(q);
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t depth = 0;
  const bool sample = ring != nullptr || !queue_gauges_.empty();
  const PushResult r = q->try_push(t, sample ? &depth : nullptr);
  if (r != PushResult::kAccepted) return r;
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (notifier_ != nullptr) notifier_->on_push(qi);
  if (sample) {
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(depth));
    if (ring != nullptr)
      ring->sample(obs::SpanKind::kQueueDepth, qi, depth, util::Clock::now());
  }
  return r;
}

std::string GraphRuntime::stall_report() const {
  std::string out = "fg::GraphRuntime: pipeline stalled: no queue progress "
                    "for " +
                    std::to_string(std::chrono::duration_cast<
                                       std::chrono::milliseconds>(
                                       watchdog_window_)
                                       .count()) +
                    " ms\n";
  for (const auto& w : workers_) {
    const std::uint32_t qi = w->blocked_queue.load(std::memory_order_relaxed);
    out += "  worker " + std::to_string(w->index) + " '" + w->spec->label +
           "': ";
    if (qi == kNoQueue) {
      out += "not blocked on a queue (working, or blocked in a stage body)";
    } else {
      out += w->blocked_push.load(std::memory_order_relaxed)
                 ? "blocked pushing to queue "
                 : "blocked popping from queue ";
      out += std::to_string(qi);
      const QueueStats qs = queues_[qi]->stats();
      out += " (depth " + std::to_string(queues_[qi]->size()) + "/" +
             std::to_string(qs.capacity) + ")";
    }
    out += "\n";
  }
  const std::vector<BufferAudit> audit = audit_buffers();
  for (PipelineId pid = 0; pid < audit.size(); ++pid) {
    const BufferAudit& a = audit[pid];
    out += "  pipeline " + std::to_string(pid) + " buffers: pool=" +
           std::to_string(a.pool) + " in_queues=" +
           std::to_string(a.in_queues) + " never_emitted=" +
           std::to_string(a.never_emitted) + " parked=" +
           std::to_string(a.parked) + " in_flight=" +
           std::to_string(a.pool - std::min(a.pool, a.accounted())) + "\n";
  }
  return out;
}

void GraphRuntime::watchdog_loop() {
  std::uint64_t last = progress_.load(std::memory_order_relaxed);
  util::TimePoint last_change = util::Clock::now();
  // Poll at a quarter of the window: fine enough that a stall is caught
  // within ~1.25 windows, coarse enough to be free.
  const util::Duration tick =
      std::max<util::Duration>(watchdog_window_ / 4,
                               std::chrono::milliseconds(1));
  std::unique_lock<std::mutex> lock(wd_mutex_);
  for (;;) {
    wd_cv_.wait_for(lock, tick, [&] { return wd_stop_; });
    if (wd_stop_) return;
    const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
    const util::TimePoint now = util::Clock::now();
    if (cur != last) {
      last = cur;
      last_change = now;
      continue;
    }
    if (now - last_change >= watchdog_window_) {
      fail(std::make_exception_ptr(PipelineStalled(stall_report())));
      return;  // one shot; the abort unwinds every worker
    }
  }
}

void GraphRuntime::start_watchdog() {
  if (watchdog_window_ > util::Duration::zero())
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
}

void GraphRuntime::stop_watchdog() {
  if (!watchdog_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_thread_.join();
}

// ---------------------------------------------------------------------------
// Run orchestration and reporting
// ---------------------------------------------------------------------------

void GraphRuntime::run() {
  if (ran_) {
    throw std::logic_error(
        "fg::GraphRuntime: a runtime executes its plan exactly once "
        "(PipelineGraph::run creates a fresh one per run)");
  }
  ran_ = true;
  util::Stopwatch sw;
  execute();
  wall_seconds_ = sw.elapsed_seconds();
  if (first_error_) std::rethrow_exception(first_error_);
}

std::vector<StageStats> GraphRuntime::stats() const {
  std::vector<StageStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->stats);
  return out;
}

std::vector<QueueStats> GraphRuntime::queue_stats() const {
  std::vector<QueueStats> out;
  out.reserve(queues_.size());
  for (const auto& q : queues_) out.push_back(q->stats());
  return out;
}

std::vector<BufferAudit> GraphRuntime::audit_buffers() const {
  std::vector<BufferAudit> out(pools_.size());
  for (PipelineId pid = 0; pid < pools_.size(); ++pid) {
    out[pid].pool = pools_[pid].size();
  }
  for (const auto& w : workers_) {
    for (const auto& [pid, st] : w->src) {
      const auto distinct = st.distinct.load(std::memory_order_relaxed);
      out[pid].never_emitted +=
          static_cast<std::size_t>(pools_[pid].size() - distinct);
      out[pid].parked +=
          static_cast<std::size_t>(st.parked.load(std::memory_order_relaxed));
    }
  }
  for (const auto& q : queues_) {
    q->for_each_resident([&](const Token& t) {
      if (t.kind == TokenKind::kBuffer && t.pipeline < out.size()) {
        out[t.pipeline].in_queues += 1;
      }
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

void write_stage_stats_json(util::JsonWriter& w,
                            const std::vector<StageStats>& stages) {
  w.begin_array();
  for (const StageStats& s : stages) {
    w.begin_object();
    w.kv("stage", s.stage);
    w.kv("pipelines", s.pipelines);
    w.kv("buffers", s.buffers);
    w.kv("working_s", s.working_seconds());
    w.kv("accept_blocked_s", s.accept_seconds());
    w.kv("convey_blocked_s", s.convey_seconds());
    w.end_object();
  }
  w.end_array();
}

void RunStats::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("wall_seconds", wall_seconds);
  w.kv("runs_completed", runs_completed);
  w.kv("executor", executor.empty() ? "threads" : executor);
  w.key("stages");
  write_stage_stats_json(w, stages);
  w.key("queues");
  w.begin_array();
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueStats& q = queues[i];
    w.begin_object();
    w.kv("index", i);
    w.kv("kind", to_string(q.kind));
    w.kv("capacity", q.capacity);
    w.kv("pushes", q.pushes);
    w.kv("pops", q.pops);
    w.kv("peak", q.peak);
    w.kv("forced", q.forced);
    w.end_object();
  }
  w.end_array();
  w.key("disk_retries");
  w.begin_object();
  w.kv("attempts", disk_retries.attempts);
  w.kv("retries", disk_retries.retries);
  w.kv("absorbed", disk_retries.absorbed);
  w.kv("exhausted", disk_retries.exhausted);
  w.end_object();
  w.kv("faults_injected", faults_injected);
  w.end_object();
}

}  // namespace fg
