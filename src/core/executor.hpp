// The executor layer: how planned workers become running code.
//
// GraphRuntime owns the run's *state* — channels, buffer pools, stats,
// the stall watchdog, abort propagation.  The stage rules live in one
// place, executor.cpp: every source, sink, map and replicated-map worker
// is a resumable task (SourceTask, SinkTask, MapTask, ReplMapTask) whose
// resume() runs until its accept would find an empty channel, its convey
// a full one, or a replica's caboose must wait for in-flight siblings,
// and then yields.  The QueueNotifier hook wakes a yielded task when the
// channel (or sibling) it waits on moves.  What differs between the two
// executors is only where the tasks run:
//
//  * kThreadPerStage — FG's historical model: one OS thread per task
//    (so one per planned worker, plus replicas).  The thread calls
//    resume() in a loop and sleeps on the task's state word while
//    yielded.  Simple and fair, but a graph with hundreds of pipelines
//    oversubscribes the machine.
//
//  * kTasks — a fixed pool of N workers with Chase–Lev work-stealing
//    deques; a woken task is pushed onto a deque instead of waking its
//    own thread, so thousands of pipelines share N cores.
//
// Custom stages keep their blocking StageContext contract and therefore
// get a dedicated thread each under both executors.
//
// Selection: RuntimeOptions on the graph/runtime, overridable from the
// environment (FG_EXECUTOR=threads|tasks, FG_TASK_WORKERS=N,
// FG_CHANNELS=auto|mpmc) so a whole test suite can be replayed under
// either executor without touching code — tools/ci.sh does exactly that.
// The variables are parsed strictly: an unknown name or a worker count
// outside [1, 65536] throws std::invalid_argument naming the variable.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fg::util {
class ByteBudget;
}  // namespace fg::util

namespace fg {

/// Where a run places its stage tasks.  kAuto resolves from the
/// FG_EXECUTOR environment variable (default: thread-per-stage).
enum class ExecutorKind : std::uint8_t { kAuto, kThreadPerStage, kTasks };

/// Channel selection policy.  kAuto lets the plan's analysis pick the
/// wait-free SPSC ring where it proved eligibility; kMpmcOnly forces the
/// blocking MPMC queue everywhere (the conformance/ablation setting).
/// kAuto also honours FG_CHANNELS=mpmc from the environment.
enum class ChannelPolicy : std::uint8_t { kAuto, kMpmcOnly };

/// Per-run execution options, set on PipelineGraph before run().
struct RuntimeOptions {
  ExecutorKind executor{ExecutorKind::kAuto};
  /// Task-pool width; 0 = FG_TASK_WORKERS or hardware_concurrency().
  /// Ignored by the thread-per-stage executor.
  std::size_t task_workers{0};
  ChannelPolicy channels{ChannelPolicy::kAuto};
  /// Emit per-worker `task-slice` spans from the task pool into extra
  /// `tasks:wN` trace tracks (one per pool worker).  Off by default so
  /// the default trace layout is identical under both executors; also
  /// enabled by FG_TASK_SPANS=1.  Ignored by the thread-per-stage
  /// executor.
  bool task_spans{false};
  /// Buffer-pool byte budget (util/budget.hpp).  When set, every run
  /// charges its pools' full allocation (primary + auxiliary blocks)
  /// against the budget at runtime construction and releases it at
  /// teardown; an overdrawn charge throws util::QuotaExceeded before any
  /// worker thread exists.  This is fgserve's per-job memory quota hook:
  /// all graphs a job builds share the job's budget.  Null = no quota.
  util::ByteBudget* pool_budget{nullptr};
};

/// Resolve kAuto against the environment (FG_EXECUTOR; unset or empty
/// means thread-per-stage).  Throws std::invalid_argument on any other
/// name than "threads" or "tasks".
ExecutorKind resolve_executor(ExecutorKind k);
/// Resolve kAuto against the environment (FG_CHANNELS; "auto" or
/// "mpmc", unset or empty means kAuto).  Throws std::invalid_argument on
/// any other name.
ChannelPolicy resolve_channels(ChannelPolicy p);
/// Resolve a zero worker count against FG_TASK_WORKERS (an integer in
/// [1, 65536], else std::invalid_argument), then hardware concurrency
/// (minimum 2).
std::size_t resolve_task_workers(std::size_t n);
/// Resolve the task-span opt-in against the environment (FG_TASK_SPANS).
bool resolve_task_spans(bool enabled) noexcept;

const char* to_string(ExecutorKind k) noexcept;

}  // namespace fg
