// The end-to-end benchmark of the AP classifier stack.
//
//   perfbench --workload serve_query|update_churn|engine_cold --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints human-readable progress, then as its LAST line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// its spans to DIR/trace-<workload>-<seed>.jsonl).  Exits 1 when any
// answer was wrong and 2 when the run could not be carried out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      if (!a.trace && std::strcmp(val, "0") != 0) return false;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && a.seconds >= 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Tracer tr(args.trace);
  perfbench::Report rep;
  try {
    if (args.workload == "serve_query")
      rep = perfbench::run_serve_query(args, tr);
    else if (args.workload == "update_churn")
      rep = perfbench::run_update_churn(args, tr);
    else if (args.workload == "engine_cold")
      rep = perfbench::run_engine_cold(args, tr);
    else
      throw std::runtime_error("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tr.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace: %zu spans -> %s\n", tr.size(), path.c_str());
    for (const auto& [layer, lt] : tr.self_times())
      std::printf("trace self time: %-10s %10.3f ms self of %10.3f ms (%llu spans)\n",
                  layer.c_str(), lt.self_ms, lt.total_ms,
                  static_cast<unsigned long long>(lt.spans));
  }
  std::printf("%s\n", rep.json().c_str());
  std::fflush(stdout);
  return rep.correct && rep.failed == 0 ? 0 : 1;
}
