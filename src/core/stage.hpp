// Stages are the programmer-visible unit of work in FG.  The programmer
// writes straightforward synchronous code; FG maps each stage (or each
// *group* of virtual stages) to its own worker — a thread of its own by
// default — and moves buffers between stages through queues.
//
// Two flavours:
//
//  * MapStage — the common case: a function invoked once per buffer.  The
//    framework loop performs accept/convey/termination; the function just
//    transforms the buffer and says what to do with it (convey onward,
//    recycle to the source, optionally closing the pipeline).  MapStages
//    may be declared *virtual* when the same stage appears in many
//    pipelines: all copies then share one thread and one inbound queue.
//
//  * Custom Stage — full control via run(StageContext&): the stage
//    accepts buffers from named pipelines and conveys them explicitly.
//    This is what a *common stage* of intersecting pipelines (e.g. a
//    k-way merge) implements, since it must choose which pipeline to
//    accept from next.
#pragma once

#include "core/buffer.hpp"

#include <functional>
#include <string>

namespace fg {

class Pipeline;
class StageContext;

/// What a MapStage's function wants done with the buffer it just
/// processed.
enum class StageAction : std::uint8_t {
  kConvey,           ///< pass the buffer to the successor stage
  kRecycle,          ///< return the buffer directly to the source's pool
  kConveyAndClose,   ///< convey, then close this pipeline (no more input)
  kRecycleAndClose,  ///< recycle, then close this pipeline
};

/// Abstract pipeline stage.  Stage objects are created and owned by the
/// application; they must outlive the PipelineGraph::run() call that uses
/// them.  A stage object added to more than one pipeline is either a
/// *virtual* stage (if added with StageMode::kVirtual everywhere) or a
/// *common stage* of intersecting pipelines (custom stages only).
class Stage {
 public:
  explicit Stage(std::string name) : name_(std::move(name)) {}
  virtual ~Stage() = default;

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Custom stages override this.  MapStage provides its own override
  /// that runs the standard per-buffer loop.
  virtual void run(StageContext& ctx) = 0;

  /// True for MapStage; the graph uses this to validate wiring (a
  /// MapStage cannot be the common stage of intersecting pipelines).
  virtual bool is_map() const noexcept { return false; }

 private:
  std::string name_;
};

/// A stage defined by a per-buffer function.
class MapStage : public Stage {
 public:
  using Fn = std::function<StageAction(Buffer&)>;
  /// Called once per member pipeline when that pipeline's caboose passes
  /// through the stage (i.e. the stage has seen its last buffer on that
  /// pipeline).  A send stage uses this to tell remote receivers it is
  /// done; a write stage uses it to flush its file.
  using FlushFn = std::function<void(PipelineId)>;

  MapStage(std::string name, Fn fn, FlushFn flush = nullptr)
      : Stage(std::move(name)), fn_(std::move(fn)), flush_(std::move(flush)) {}

  bool is_map() const noexcept override { return true; }

  /// Invoke the per-buffer function (called by the framework loop).
  StageAction apply(Buffer& b) { return fn_(b); }

  /// Invoke the flush hook, if any (called by the framework just before
  /// forwarding a pipeline's caboose).
  void flush(PipelineId p) {
    if (flush_) flush_(p);
  }

  /// MapStage execution is driven by the runtime's map tasks
  /// (core/executor.cpp), not by run(); this override exists only to
  /// satisfy the interface.
  void run(StageContext&) override;

 private:
  Fn fn_;
  FlushFn flush_;
};

/// Handed to custom stages.  All operations are valid only during
/// PipelineGraph::run() and only from the stage's own thread.
class StageContext {
 public:
  virtual ~StageContext() = default;

  /// Accept the next buffer arriving on pipeline `p`.  Blocks until a
  /// buffer for `p` is available; returns nullptr once `p`'s caboose has
  /// arrived (the pipeline is exhausted at this stage).  Tokens for other
  /// member pipelines that arrive in the meantime are stashed and
  /// returned by their own accept calls.
  virtual Buffer* accept(const Pipeline& p) = 0;

  /// Convenience for single-pipeline custom stages.
  virtual Buffer* accept() = 0;

  /// Convey `b` to this stage's successor *within b's own pipeline*.
  virtual void convey(Buffer* b) = 0;

  /// Return `b` directly to its pipeline's source for re-emission.
  virtual void recycle(Buffer* b) = 0;

  /// Tell `p`'s source to stop emitting and send its caboose.
  virtual void close(const Pipeline& p) = 0;

  /// True once accept(p) has returned nullptr (caboose seen).
  virtual bool exhausted(const Pipeline& p) const = 0;
};

}  // namespace fg
