#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "util/json.hpp"

namespace fg::obs {
namespace {

/// Occupancy aggregation for one thread track.
struct Track {
  std::string name;
  double busy{0};
  double accept{0};
  double convey{0};
  double first{std::numeric_limits<double>::infinity()};
  double last{0};
  bool has_work{false};
  bool has_any{false};
};

std::string format_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

bool is_chrome_trace(const util::Json& doc) {
  return doc.is_object() && doc.find("traceEvents") != nullptr;
}

std::vector<std::string> check_trace(const util::Json& doc) {
  std::vector<std::string> errors;
  const auto err = [&errors](std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  };

  if (!doc.is_object()) return {"top level is not an object"};
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return {"missing traceEvents array"};

  std::uint64_t dropped = 0;
  if (const util::Json* other = doc.find("otherData")) {
    if (const util::Json* d = other->find("dropped")) dropped = d->u64();
  }

  std::set<std::uint64_t> named_tids;
  std::set<std::uint64_t> used_tids;
  std::map<std::uint64_t, std::set<std::uint64_t>> rounds_by_pipeline;

  for (std::size_t i = 0; i < events->size(); ++i) {
    const util::Json& e = events->at(i);
    const std::string where = "event " + std::to_string(i);
    if (!e.is_object()) {
      err(where + ": not an object");
      continue;
    }
    const util::Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      err(where + ": missing ph");
      continue;
    }
    const util::Json* name = e.find("name");
    if (name == nullptr || !name->is_string()) {
      err(where + ": missing name");
      continue;
    }
    const util::Json* tid = e.find("tid");
    const util::Json* pid = e.find("pid");
    if (tid == nullptr || !tid->is_number() || pid == nullptr ||
        !pid->is_number()) {
      err(where + ": missing pid/tid");
      continue;
    }
    if (ph->string() == "M") {
      if (name->string() == "thread_name") {
        const util::Json* args = e.find("args");
        if (args == nullptr || args->find("name") == nullptr)
          err(where + ": thread_name without args.name");
        else
          named_tids.insert(tid->u64());
      }
      continue;
    }
    if (ph->string() == "C") {
      if (e.find("ts") == nullptr || !e.at("ts").is_number())
        err(where + ": counter event without numeric ts");
      used_tids.insert(tid->u64());
      continue;
    }
    if (ph->string() != "X") {
      err(where + ": unexpected phase '" + ph->string() + "'");
      continue;
    }
    used_tids.insert(tid->u64());
    const util::Json* ts = e.find("ts");
    const util::Json* dur = e.find("dur");
    if (ts == nullptr || !ts->is_number() || ts->number() < 0) {
      err(where + ": X event without non-negative ts");
      continue;
    }
    // A complete event whose duration is negative means a begin/end pair
    // was emitted out of order.
    if (dur == nullptr || !dur->is_number() || dur->number() < 0) {
      err(where + ": X event without non-negative dur (unpaired span?)");
      continue;
    }
    if (name->string() == "round") {
      const util::Json* args = e.find("args");
      if (args == nullptr || args->find("round") == nullptr ||
          args->find("pipeline") == nullptr) {
        err(where + ": round event without pipeline/round args");
        continue;
      }
      rounds_by_pipeline[args->at("pipeline").u64()].insert(
          args->at("round").u64());
    }
  }

  for (std::uint64_t tid : used_tids) {
    if (named_tids.count(tid) == 0)
      err("tid " + std::to_string(tid) + " has no thread_name metadata");
  }

  // Round ids are dense per pipeline: the sources allocate them with a
  // per-run counter starting at 0, so (unless the rings overflowed and
  // dropped spans) the distinct ids seen by sinks must be exactly
  // 0..max.  Multiple passes restart at 0, which keeps the union dense.
  if (dropped == 0) {
    for (const auto& [pipeline, rounds] : rounds_by_pipeline) {
      if (rounds.empty()) continue;
      const std::uint64_t max = *rounds.rbegin();
      if (*rounds.begin() != 0 || rounds.size() != max + 1) {
        err("pipeline " + std::to_string(pipeline) +
            ": round ids not dense (" + std::to_string(rounds.size()) +
            " distinct, max " + std::to_string(max) + ")");
      }
    }
  }
  return errors;
}

std::vector<std::string> check_stats(const util::Json& doc) {
  std::vector<std::string> errors;
  const auto err = [&errors](std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  };
  if (!doc.is_object()) return {"top level is not an object"};

  const auto check_stages = [&err](const util::Json& stages,
                                   const std::string& where) {
    if (!stages.is_array()) {
      err(where + ": stages is not an array");
      return;
    }
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const util::Json& s = stages.at(i);
      const std::string w = where + " stage " + std::to_string(i);
      for (const char* key : {"stage", "pipelines"}) {
        const util::Json* v = s.find(key);
        if (v == nullptr || !v->is_string()) err(w + ": missing " + key);
      }
      for (const char* key :
           {"working_s", "accept_blocked_s", "convey_blocked_s"}) {
        const util::Json* v = s.find(key);
        if (v == nullptr || !v->is_number() || v->number() < 0)
          err(w + ": missing non-negative " + key);
      }
    }
  };

  const auto check_metrics = [&err](const util::Json& metrics,
                                    const std::string& where) {
    const util::Json* hists = metrics.find("histograms");
    if (hists == nullptr) return;
    for (const auto& [name, h] : hists->object()) {
      const std::string w = where + " histogram " + name;
      const util::Json* count = h.find("count");
      const util::Json* buckets = h.find("buckets");
      if (count == nullptr || buckets == nullptr || !buckets->is_array()) {
        err(w + ": missing count/buckets");
        continue;
      }
      std::uint64_t total = 0;
      for (const util::Json& pair : buckets->array())
        total += pair.at(1).u64();
      if (total != count->u64())
        err(w + ": bucket sum " + std::to_string(total) + " != count " +
            std::to_string(count->u64()));
      const std::uint64_t p50 = h.at("p50").u64();
      const std::uint64_t p95 = h.at("p95").u64();
      const std::uint64_t p99 = h.at("p99").u64();
      if (p50 > p95 || p95 > p99) err(w + ": percentiles not monotone");
    }
  };

  if (const util::Json* programs = doc.find("programs")) {
    if (!programs->is_array()) return {"programs is not an array"};
    for (std::size_t i = 0; i < programs->size(); ++i) {
      const util::Json& p = programs->at(i);
      const std::string where = "program " + std::to_string(i);
      const util::Json* name = p.find("program");
      if (name == nullptr || !name->is_string()) err(where + ": missing name");
      if (const util::Json* stages = p.find("stages"))
        check_stages(*stages, where);
      if (const util::Json* metrics = p.find("metrics"))
        check_metrics(*metrics, where);
    }
  } else if (const util::Json* stages = doc.find("stages")) {
    check_stages(*stages, "run");
    if (const util::Json* metrics = doc.find("metrics"))
      check_metrics(*metrics, "run");
  } else {
    err("neither a trace, a stats blob, nor a RunStats object");
  }
  return errors;
}

OverlapReport analyze_trace(const util::Json& doc, std::size_t top_n) {
  OverlapReport r;
  r.source = "trace";
  if (const util::Json* other = doc.find("otherData")) {
    if (const util::Json* d = other->find("dropped")) r.dropped = d->u64();
  }

  const util::Json& events = doc.at("traceEvents");
  std::map<std::uint64_t, Track> tracks;
  struct StageEvent {
    std::uint64_t pipeline, round, tid;
    double ts, dur;
    std::string kind;
  };
  std::vector<StageEvent> stage_events;
  struct RoundSpan {
    SlowRound sr;
    double ts;
  };
  std::vector<RoundSpan> rounds;

  for (const util::Json& e : events.array()) {
    const std::string& ph = e.at("ph").string();
    const std::uint64_t tid = e.at("tid").u64();
    if (ph == "M") {
      if (e.at("name").string() == "thread_name")
        tracks[tid].name = e.at("args").at("name").string();
      continue;
    }
    if (ph != "X") continue;
    ++r.spans;
    const std::string& name = e.at("name").string();
    const double ts = e.at("ts").number() / 1e6;   // µs → s
    const double dur = e.at("dur").number() / 1e6;

    if (name == "round") {
      RoundSpan rs;
      rs.sr.pipeline = e.at("args").at("pipeline").u64();
      rs.sr.round = e.at("args").at("round").u64();
      rs.sr.latency_s = dur;
      rs.ts = ts;
      rounds.push_back(std::move(rs));
      continue;
    }

    Track& t = tracks[tid];
    t.has_any = true;
    t.first = std::min(t.first, ts);
    t.last = std::max(t.last, ts + dur);
    if (name == "work") {
      t.busy += dur;
      t.has_work = true;
    } else if (name == "accept-wait") {
      t.accept += dur;
    } else if (name == "convey-wait") {
      t.convey += dur;
    }

    // Stall candidates: spans during which the round's buffer is
    // actually held by the stage (being worked on, or waiting to be
    // pushed downstream).  Accept-waits are tagged with the round of the
    // buffer that *eventually* arrives — while the stage waited, the
    // buffer was elsewhere — so they never explain a round's latency.
    if (name == "work" || name == "convey-wait") {
      const util::Json& args = e.at("args");
      stage_events.push_back({args.at("pipeline").u64(),
                              args.at("round").u64(), tid, ts, dur, name});
    }
  }

  // Wall clock: the extent of all thread activity.
  double first = std::numeric_limits<double>::infinity();
  double last = 0;
  for (const auto& [tid, t] : tracks) {
    if (!t.has_any) continue;
    first = std::min(first, t.first);
    last = std::max(last, t.last);
  }
  r.wall_s = last > first ? last - first : 0;

  // Per-stage occupancy.  Threads that carry explicit work spans (map
  // stages, sources' emit loop is uninstrumented) report busy = Σ work;
  // custom stages have no per-buffer work hook, so busy falls back to
  // their active extent minus the waits recorded on the same track.
  std::map<std::string, StageOccupancy> stages;
  for (const auto& [tid, t] : tracks) {
    if (!t.has_any) continue;
    StageOccupancy& s = stages[t.name];
    s.stage = t.name;
    s.tracks += 1;
    const double busy =
        t.has_work ? t.busy
                   : std::max(0.0, (t.last - t.first) - t.accept - t.convey);
    s.busy_s += busy;
    s.accept_s += t.accept;
    s.convey_s += t.convey;
    r.critical_path_s = std::max(r.critical_path_s, busy);
  }
  for (auto& [name, s] : stages) {
    if (r.wall_s > 0 && s.tracks > 0)
      s.occupancy = s.busy_s / (r.wall_s * static_cast<double>(s.tracks));
    r.stages.push_back(s);
  }
  std::stable_sort(r.stages.begin(), r.stages.end(),
                   [](const StageOccupancy& a, const StageOccupancy& b) {
                     return a.occupancy > b.occupancy;
                   });
  if (!r.stages.empty()) {
    r.bottleneck = r.stages.front().stage;
    r.bottleneck_occupancy = r.stages.front().occupancy;
  }
  if (r.wall_s > 0) r.achieved_overlap = r.critical_path_s / r.wall_s;

  r.rounds = rounds.size();
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const RoundSpan& a, const RoundSpan& b) {
                     return a.sr.latency_s > b.sr.latency_s;
                   });
  if (rounds.size() > top_n) rounds.resize(top_n);
  for (RoundSpan& rs : rounds) {
    SlowRound& sr = rs.sr;
    // The stalling stage: the longest buffer-holding span tagged with
    // this round that overlaps the round's source→sink interval.  The
    // overlap filter matters because a round id is also carried by spans
    // from *after* the round finished (the source's wait for this buffer
    // to recycle), which are symptoms of backpressure, not this round's
    // stall.
    const StageEvent* worst = nullptr;
    for (const StageEvent& ev : stage_events) {
      if (ev.pipeline != sr.pipeline || ev.round != sr.round) continue;
      if (ev.ts >= rs.ts + sr.latency_s || ev.ts + ev.dur <= rs.ts) continue;
      if (worst == nullptr || ev.dur > worst->dur) worst = &ev;
    }
    if (worst != nullptr) {
      const auto tr = tracks.find(worst->tid);
      sr.stalled_stage = tr != tracks.end() ? tr->second.name : "?";
      sr.stalled_kind = worst->kind;
      sr.stalled_s = worst->dur;
    }
    r.slow_rounds.push_back(std::move(sr));
  }
  return r;
}

std::vector<OverlapReport> analyze_stats(const util::Json& doc) {
  std::vector<OverlapReport> out;

  const auto analyze_one = [](const util::Json& stages, double wall,
                              std::string source) {
    OverlapReport r;
    r.source = std::move(source);
    r.wall_s = wall;
    for (const util::Json& s : stages.array()) {
      StageOccupancy o;
      o.stage = s.at("stage").string();
      o.tracks = 1;
      o.busy_s = s.at("working_s").number();
      o.accept_s = s.at("accept_blocked_s").number();
      o.convey_s = s.at("convey_blocked_s").number();
      // Aggregated stats lose the thread count, so use the stage's own
      // timeline (busy + blocked ≈ thread-seconds) as the denominator;
      // this approximates the trace-mode busy/(wall × threads).
      const double total = o.busy_s + o.accept_s + o.convey_s;
      o.occupancy = total > 0 ? o.busy_s / total : 0;
      r.critical_path_s = std::max(r.critical_path_s, o.busy_s);
      r.stages.push_back(std::move(o));
    }
    std::stable_sort(r.stages.begin(), r.stages.end(),
                     [](const StageOccupancy& a, const StageOccupancy& b) {
                       return a.occupancy > b.occupancy;
                     });
    if (!r.stages.empty()) {
      r.bottleneck = r.stages.front().stage;
      r.bottleneck_occupancy = r.stages.front().occupancy;
    }
    if (r.wall_s > 0)
      r.achieved_overlap = std::min(1.0, r.critical_path_s / r.wall_s);
    return r;
  };

  if (const util::Json* programs = doc.find("programs")) {
    for (const util::Json& p : programs->array()) {
      double wall = 0;
      if (const util::Json* times = p.find("times")) {
        if (const util::Json* total = times->find("total_s"))
          wall = total->number();
      }
      if (const util::Json* stages = p.find("stages")) {
        OverlapReport r =
            analyze_one(*stages, wall, p.at("program").string());
        if (const util::Json* metrics = p.find("metrics")) {
          if (const util::Json* rounds = metrics->find("counters")) {
            if (const util::Json* n = rounds->find("pipeline.rounds"))
              r.rounds = n->u64();
          }
        }
        out.push_back(std::move(r));
      }
    }
  } else if (const util::Json* stages = doc.find("stages")) {
    double wall = 0;
    if (const util::Json* w = doc.find("wall_seconds")) wall = w->number();
    out.push_back(analyze_one(*stages, wall, "run"));
  }
  return out;
}

std::string render_report(const OverlapReport& r) {
  std::string out;
  out += "== overlap report (" + r.source + ") ==\n";
  out += "wall time          " + format_double(r.wall_s, 3) + " s\n";
  if (r.spans != 0 || r.dropped != 0) {
    out += "spans              " + std::to_string(r.spans) + " (" +
           std::to_string(r.dropped) + " dropped)\n";
  }
  if (r.rounds != 0)
    out += "rounds             " + std::to_string(r.rounds) + "\n";
  out += "critical path      " + format_double(r.critical_path_s, 3) +
         " s  (busiest thread's work; wall cannot beat this)\n";
  out += "achieved overlap   " + format_double(r.achieved_overlap, 2) +
         "  (critical path / wall; 1.00 = perfect)\n";
  out += "bottleneck         " +
         (r.bottleneck.empty() ? std::string("(none)") : r.bottleneck) +
         "  (occupancy " + format_double(r.bottleneck_occupancy, 2) + ")\n\n";

  out += "stage                threads    busy(s)  accept(s)  convey(s)"
         "  occupancy\n";
  for (const StageOccupancy& s : r.stages) {
    char line[160];
    std::snprintf(line, sizeof line, "%-20s %7zu %10.3f %10.3f %10.3f %10.2f\n",
                  s.stage.c_str(), s.tracks, s.busy_s, s.accept_s, s.convey_s,
                  s.occupancy);
    out += line;
  }

  if (!r.slow_rounds.empty()) {
    out += "\nslowest rounds:\n";
    for (const SlowRound& sr : r.slow_rounds) {
      char line[200];
      if (sr.stalled_stage.empty()) {
        std::snprintf(line, sizeof line,
                      "  pipeline %llu round %llu   %.3f s\n",
                      static_cast<unsigned long long>(sr.pipeline),
                      static_cast<unsigned long long>(sr.round),
                      sr.latency_s);
      } else {
        std::snprintf(line, sizeof line,
                      "  pipeline %llu round %llu   %.3f s   longest span: "
                      "%s (%s, %.3f s)\n",
                      static_cast<unsigned long long>(sr.pipeline),
                      static_cast<unsigned long long>(sr.round),
                      sr.latency_s, sr.stalled_stage.c_str(),
                      sr.stalled_kind.c_str(), sr.stalled_s);
      }
      out += line;
    }
  }
  return out;
}

void write_report_json(util::JsonWriter& w, const OverlapReport& r) {
  w.begin_object();
  w.kv("source", r.source);
  w.kv("wall_s", r.wall_s);
  w.kv("critical_path_s", r.critical_path_s);
  w.kv("achieved_overlap", r.achieved_overlap);
  w.kv("bottleneck", r.bottleneck);
  w.kv("bottleneck_occupancy", r.bottleneck_occupancy);
  w.kv("rounds", r.rounds);
  w.kv("spans", r.spans);
  w.kv("dropped", r.dropped);
  w.key("stages");
  w.begin_array();
  for (const StageOccupancy& s : r.stages) {
    w.begin_object();
    w.kv("stage", s.stage);
    w.kv("threads", std::uint64_t{s.tracks});
    w.kv("busy_s", s.busy_s);
    w.kv("accept_s", s.accept_s);
    w.kv("convey_s", s.convey_s);
    w.kv("occupancy", s.occupancy);
    w.end_object();
  }
  w.end_array();
  w.key("slow_rounds");
  w.begin_array();
  for (const SlowRound& sr : r.slow_rounds) {
    w.begin_object();
    w.kv("pipeline", sr.pipeline);
    w.kv("round", sr.round);
    w.kv("latency_s", sr.latency_s);
    w.kv("stalled_stage", sr.stalled_stage);
    w.kv("stalled_kind", sr.stalled_kind);
    w.kv("stalled_s", sr.stalled_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace fg::obs
