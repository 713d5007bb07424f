// The repository's end-to-end benchmark driver. One run builds the set-up
// (TDGEN training set, v1 forest), runs one named workload for whole rounds
// of a fixed seeded operation sequence, checks the program's outputs, and
// prints one JSON result line. See README.md.
//
//   perfbench --workload optimize_cold --seed 1 --seconds 10 --trace 0

#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  void (*run)(const Args&, Env*, SpanRecorder*, Report*) = nullptr;
  if (args.workload == "optimize_cold") {
    run = RunOptimizeCold;
  } else if (args.workload == "serve_tenants") {
    run = RunServeTenants;
  } else if (args.workload == "execute_feedback") {
    run = RunExecuteFeedback;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("# host: %s\n", HostLine().c_str());
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d "
              "client_threads=%d optimize_threads=%d forest_threads=%d "
              "shards=%d platforms=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kClientThreads,
              kOptimizeThreads, kForestThreads, kShards, kPlatforms);

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  Env env;
  Report report;
  const robopt::Status ready = env.Init(spans);
  if (!ready.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", ready.ToString().c_str());
    return 1;
  }
  run(args, &env, spans, &report);
  for (const Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.Fail("metric " + metric.name + " is not finite");
    }
  }
  if (spans != nullptr && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (!recorder.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[perfbench] trace: %s (%zu spans)\n",
                   path.c_str(), recorder.spans().size());
    }
  }
  std::fflush(stdout);
  PrintResult(report);
  return report.correct ? 0 : 1;
}
