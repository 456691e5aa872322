// Custom stages: the blocking StageContext a custom stage's run() is
// handed, and the dedicated thread that drives it under both executors.
// Also home to park_token, the teardown-safe recycle every stage kind
// uses.  The source, sink and map rules live in executor.cpp.
#include "core/runtime_impl.hpp"

#include <stdexcept>

namespace fg {

// Recycle a buffer token to its source.  Falls back to force_push during
// teardown (an aborted queue refuses regular pushes) so every buffer
// stays accountable — nothing rests "nowhere" after an abort.
void GraphRuntime::park_token(RunWorker& w, Token t) {
  Channel* q = source_in(t.pipeline);
  if (!traced_push(w, q, t)) q->force_push(t);
}

// ---------------------------------------------------------------------------
// Custom-stage context
// ---------------------------------------------------------------------------

void GraphRuntime::Context::convey(Buffer* b) {
  auto it = w_.out.find(b->pipeline());
  if (it == w_.out.end()) {
    throw std::logic_error(
        "fg::StageContext::convey: buffer belongs to a pipeline that stage "
        "'" + w_.spec->stage->name() + "' is not a member of (buffers "
        "cannot jump between pipelines)");
  }
  held_.erase(b);
  // Capture before the push: a conveyed buffer may be recycled and
  // re-stamped by the source before the span below is emitted.
  const PipelineId pid = b->pipeline();
  const std::uint64_t round = b->round();
  const auto t0 = util::Clock::now();
  const bool ok = rt_.traced_push(w_, it->second, Token::of_buffer(b));
  const auto t1 = util::Clock::now();
  w_.stats.convey_blocked += t1 - t0;
  if (ring_ != nullptr) {
    ring_->emit(obs::SpanKind::kConveyWait, pid, round, t0, t1);
  }
  if (!ok) {
    rt_.park_token(w_, Token::of_buffer(b));
    throw AbortSignal{};
  }
}

void GraphRuntime::Context::recycle(Buffer* b) {
  held_.erase(b);
  rt_.park_token(w_, Token::of_buffer(b));
}

void GraphRuntime::Context::close(const Pipeline& p) {
  // An aborted queue refuses the close token; treat that like a refused
  // convey — unwind through AbortSignal (run_custom parks everything this
  // context still holds) instead of dropping the token silently.
  if (!rt_.traced_push(w_, rt_.source_in(p.id()), Token::close(p.id()))) {
    throw AbortSignal{};
  }
}

void GraphRuntime::Context::park_outstanding() {
  for (Buffer* b : held_) {
    rt_.park_token(w_, Token::of_buffer(b));
  }
  held_.clear();
  for (auto& [pid, dq] : stash_) {
    while (!dq.empty()) {
      rt_.park_token(w_, Token::of_buffer(dq.front()));
      dq.pop_front();
    }
  }
}

Buffer* GraphRuntime::Context::accept_pid(PipelineId pid) {
  auto sit = stash_.find(pid);
  if (sit != stash_.end() && !sit->second.empty()) {
    Buffer* b = sit->second.front();
    sit->second.pop_front();
    held_.insert(b);
    return b;
  }
  if (exhausted_.count(pid)) return nullptr;
  auto qit = w_.in_by_pid.find(pid);
  if (qit == w_.in_by_pid.end()) {
    throw std::logic_error(
        "fg::StageContext::accept: stage '" + w_.spec->stage->name() +
        "' is not a member of that pipeline");
  }
  Channel* q = qit->second;
  for (;;) {
    const auto t0 = util::Clock::now();
    Token t = rt_.traced_pop(w_, q);
    const auto t1 = util::Clock::now();
    w_.stats.accept_blocked += t1 - t0;
    if (ring_ != nullptr && t.kind != TokenKind::kAbort) {
      ring_->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                  t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
    switch (t.kind) {
      case TokenKind::kAbort:
        throw AbortSignal{};
      case TokenKind::kCaboose:
        exhausted_.insert(t.pipeline);
        if (t.pipeline == pid) return nullptr;
        break;
      case TokenKind::kBuffer:
        if (t.pipeline == pid) {
          held_.insert(t.buffer);
          return t.buffer;
        }
        ++w_.stats.buffers;  // counted when stashed, not when re-served
        stash_[t.pipeline].push_back(t.buffer);
        break;
      case TokenKind::kClose:
        break;  // not expected
    }
  }
}

void GraphRuntime::run_custom(RunWorker& w) {
  // The thread's span ring is published thread-locally so the substrates
  // (disk, fabric) the stage calls emit into the same track.
  obs::SpanRing* ring = nullptr;
  if (spans_ != nullptr) ring = &spans_->acquire(w.spec->label);
  obs::RingScope ambient(ring);
  Context ctx(*this, w);
  const auto t0 = util::Clock::now();
  try {
    w.spec->stage->run(ctx);
  } catch (const AbortSignal&) {
    // Unwinding after another worker's failure: nothing to record.
    ctx.park_outstanding();
    return;
  } catch (...) {
    ctx.park_outstanding();
    fail(std::current_exception());
    return;
  }
  // Working time = wall time minus time spent blocked in accept/convey.
  w.stats.working +=
      now_minus(t0) - w.stats.accept_blocked - w.stats.convey_blocked;
  ctx.park_outstanding();
  // Flush: every outbound port gets this stage's caboose.
  for (PipelineId pid : w.spec->members) {
    auto it = w.out.find(pid);
    if (it != w.out.end()) traced_push(w, it->second, Token::caboose(pid));
  }
}

}  // namespace fg
