// fgtrace: validate and analyze FG observability blobs.
//
// Accepts either a Chrome-trace file written by `fgsort --trace-out` or a
// `--stats-json` blob; the two are distinguished by shape, so one tool
// handles both:
//
//   fgtrace --check run.json [more.json ...]   structural validation;
//                                              exit 1 on any problem
//   fgtrace report [--json] [--top N] FILE     occupancy/bottleneck report
//   fgtrace FILE                               shorthand for `report FILE`
//
// CI runs a small traced sort through `--check` so a malformed trace (an
// unpaired span, a missing thread name, a round-id gap) fails the build
// rather than silently producing an unreadable timeline.
#include "obs/analyze.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fgtrace: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::cerr <<
      "usage: fgtrace --check FILE [FILE...]\n"
      "       fgtrace report [--json] [--top N] [--label K=V ...] FILE\n"
      "       fgtrace FILE\n"
      "FILE is a Chrome-trace blob (fgsort --trace-out) or a --stats-json\n"
      "blob; the format is auto-detected.  --label attaches K=V pairs to\n"
      "the JSON report (e.g. which disk backend produced the run).\n";
  return 2;
}

int run_check(const std::vector<std::string>& files) {
  if (files.empty()) return usage();
  bool ok = true;
  for (const auto& path : files) {
    std::vector<std::string> problems;
    try {
      const fg::util::Json doc = fg::util::Json::parse(slurp(path));
      problems = fg::obs::is_chrome_trace(doc) ? fg::obs::check_trace(doc)
                                               : fg::obs::check_stats(doc);
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
    if (problems.empty()) {
      std::cout << path << ": ok\n";
    } else {
      ok = false;
      std::cout << path << ": " << problems.size() << " problem(s)\n";
      for (const auto& p : problems) std::cout << "  " << p << "\n";
    }
  }
  return ok ? 0 : 1;
}

int run_report(const std::string& path, bool json, std::size_t top_n,
               const std::vector<std::pair<std::string, std::string>>& labels) {
  const fg::util::Json doc = fg::util::Json::parse(slurp(path));
  std::vector<fg::obs::OverlapReport> reports;
  if (fg::obs::is_chrome_trace(doc)) {
    const auto problems = fg::obs::check_trace(doc);
    if (!problems.empty()) {
      std::cerr << "fgtrace: " << path << " is malformed ("
                << problems.front() << "); refusing to analyze\n";
      return 1;
    }
    reports.push_back(fg::obs::analyze_trace(doc, top_n));
  } else {
    reports = fg::obs::analyze_stats(doc);
  }
  if (reports.empty()) {
    std::cerr << "fgtrace: no analyzable runs in " << path << "\n";
    return 1;
  }
  if (json) {
    fg::util::JsonWriter w;
    w.begin_object();
    if (!labels.empty()) {
      w.key("labels");
      w.begin_object();
      for (const auto& [k, v] : labels) w.kv(k, v);
      w.end_object();
    }
    w.key("reports");
    w.begin_array();
    for (const auto& r : reports) fg::obs::write_report_json(w, r);
    w.end_array();
    w.end_object();
    std::cout << w.str() << "\n";
  } else {
    for (const auto& r : reports) std::cout << fg::obs::render_report(r);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "--check") {
      return run_check({args.begin() + 1, args.end()});
    }
    bool json = false;
    std::size_t top_n = 5;
    std::string file;
    std::vector<std::pair<std::string, std::string>> labels;
    std::size_t i = 0;
    if (args[0] == "report") ++i;
    for (; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else if (args[i] == "--top" && i + 1 < args.size()) {
        top_n = static_cast<std::size_t>(
            fg::util::parse_u64(args[++i], "--top", 1, 1000));
      } else if (args[i] == "--label" && i + 1 < args.size()) {
        const std::string kv = args[++i];
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cerr << "fgtrace: --label expects KEY=VALUE, got '" << kv
                    << "'\n";
          return 2;
        }
        labels.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      } else if (!args[i].empty() && args[i][0] == '-') {
        return usage();
      } else if (file.empty()) {
        file = args[i];
      } else {
        return usage();
      }
    }
    if (file.empty()) return usage();
    return run_report(file, json, top_n, labels);
  } catch (const std::exception& e) {
    std::cerr << "fgtrace: " << e.what() << "\n";
    return 1;
  }
}
