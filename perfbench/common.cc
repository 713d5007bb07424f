#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "ml/simd_dispatch.h"
#include "workloads/queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using robopt::OptimizerService;
using robopt::ServeOptions;
using robopt::Status;

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0.0 && args->seconds <= 600.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error =
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--trace-dir D]";
    return false;
  }
  return true;
}

void Report::Fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

Env::Env()
    : registry(robopt::PlatformRegistry::Default(kPlatforms)),
      schema(&registry),
      cost(&registry),
      tdgen_executor(&registry, &cost),
      base(schema.width()) {
  robopt::RegisterWorkloadKernels();
}

robopt::ServeOptions Env::BaseServeOptions() {
  ServeOptions options;
  options.background_retrain = false;
  options.num_shards = kShards;
  options.forest.num_trees = kForestTrees;
  options.forest.seed = kForestSeed;
  options.forest.num_threads = kForestThreads;
  options.optimize = BaseOptimizeOptions();
  return options;
}

robopt::OptimizeOptions Env::BaseOptimizeOptions() {
  robopt::OptimizeOptions options;
  options.num_threads = kOptimizeThreads;
  return options;
}

Status Env::Init(SpanRecorder* spans) {
  robopt::TdgenOptions options;
  options.plans_per_shape = kTdgenPlansPerShape;
  options.max_operators = kTdgenMaxOperators;
  options.seed = kTdgenSeed;
  {
    SpanRecorder::Scope span(spans, "tdgen.generate");
    const int64_t start = NowNs();
    robopt::Tdgen tdgen(&registry, &schema, &tdgen_executor, options);
    auto generated = tdgen.Generate(&tdgen_report);
    if (!generated.ok()) return generated.status();
    base = std::move(generated).value();
    tdgen_s = (NowNs() - start) / 1e9;
    span.set_count(static_cast<int64_t>(tdgen_report.jobs_total));
  }
  {
    SpanRecorder::Scope span(spans, "serve.create");
    const int64_t start = NowNs();
    auto made = OptimizerService::Create(&registry, &schema, base, nullptr,
                                         BaseServeOptions());
    if (!made.ok()) return made.status();
    service = std::move(made).value();
    create_s = (NowNs() - start) / 1e9;
  }
  // Create only reads its initial model; sharing v1 with later services
  // never mutates it.
  v1 = std::const_pointer_cast<robopt::RandomForest>(
      service->registry().Current()->forest_ptr());
  return Status::OK();
}

robopt::StatusOr<std::unique_ptr<OptimizerService>> Env::FreshService(
    ServeOptions options) const {
  return OptimizerService::Create(&registry, &schema, base, v1,
                                  std::move(options));
}

void ForwardingOracle::EstimateBatch(const float* x, size_t n, size_t dim,
                                     float* out) const {
  SpanRecorder::Scope span(spans_, "ml.estimate_batch",
                           static_cast<int64_t>(n));
  Count(n);
  inner_->EstimateBatch(x, n, dim, out);
}

void ForwardingObserver::OnExecution(const robopt::ExecutionPlan& plan,
                                     const robopt::ExecResult& result) {
  SpanRecorder::Scope span(spans_, "serve.on_execution");
  inner_->OnExecution(plan, result);
}

void ForwardingObserver::OnExecutionFailure(
    const robopt::ExecutionPlan& plan, const robopt::FailureReport& report) {
  SpanRecorder::Scope span(spans_, "serve.on_execution_failure");
  inner_->OnExecutionFailure(plan, report);
}

int TimedPhase::Run(double seconds, const std::function<bool(int)>& round) {
  double total = 0.0;
  double last = 0.0;
  int rounds = 0;
  while (rounds == 0 || total + last <= seconds) {
    const int64_t start = NowNs();
    if (!round(rounds++)) break;
    last = (NowNs() - start) / 1e9;
    total += last;
  }
  return rounds;
}

void TimedPhase::BeginWindow() {
  window_latencies_ms_.emplace_back();
  window_start_ns_ = NowNs();
}

void TimedPhase::EndWindow() {
  window_s_.push_back((NowNs() - window_start_ns_) / 1e9);
}

size_t TimedPhase::ops() const {
  size_t n = 0;
  for (const auto& latencies : window_latencies_ms_) n += latencies.size();
  return n;
}

double TimedPhase::MedianOpsPerSecond() const {
  std::vector<double> rates;
  for (size_t w = 0; w < window_s_.size(); ++w) {
    if (window_s_[w] > 0.0) {
      rates.push_back(static_cast<double>(window_latencies_ms_[w].size()) /
                      window_s_[w]);
    }
  }
  return Quantile(rates, 0.5);
}

double TimedPhase::MedianLatencyQuantile(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& latencies : window_latencies_ms_) {
    if (!latencies.empty()) per_window.push_back(Quantile(latencies, q));
  }
  return Quantile(per_window, 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ProcessSeconds() { return NowNs() / 1e9; }

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string HostLine() {
  char line[256];
  std::snprintf(line, sizeof(line),
                "nproc=%u lane=%s compiler=gcc-%d.%d.%d build=%s",
                std::thread::hardware_concurrency(),
                robopt::simd::LaneName(robopt::simd::ActiveLane()),
                __GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__,
                PERFBENCH_BUILD_TYPE);
  return line;
}

std::vector<int16_t> AssignmentOf(const robopt::ExecutionPlan& plan) {
  const int n = plan.logical_plan().num_operators();
  std::vector<int16_t> assignment(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    assignment[static_cast<size_t>(id)] =
        static_cast<int16_t>(plan.alt_index(static_cast<robopt::OperatorId>(id)));
  }
  return assignment;
}

void PrintResult(const Report& report) {
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "[perfbench] check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
