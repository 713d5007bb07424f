#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "ml/ml_dataset.h"
#include "ml/random_forest.h"
#include "serve/optimizer_service.h"
#include "spans.h"
#include "tdgen/tdgen.h"

namespace perfbench {

/// Every thread and shard count the benchmark uses is fixed here, so the
/// work done never depends on the host's core count (a count of 0 would
/// resolve to it). One client thread drives the program; the optimizer, the
/// forest and TDGEN's model training run serially; the service runs two
/// shards, which spawn no threads of their own.
constexpr int kPlatforms = 4;  // Java, Spark, Flink, Postgres.
constexpr int kClientThreads = 1;
constexpr int kOptimizeThreads = 1;
constexpr int kForestThreads = 1;
constexpr int kShards = 2;

/// The training set and the v1 forest are configuration, not workload
/// input: fixed seeds keep the model identical for every --seed, so a seed
/// changes the operations, never the model that serves them.
constexpr uint64_t kTdgenSeed = 7;
constexpr uint64_t kForestSeed = 13;
constexpr int kTdgenPlansPerShape = 4;
constexpr int kTdgenMaxOperators = 20;
constexpr int kForestTrees = 30;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced run writes its Chrome-trace JSON.
  std::string trace_dir;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-dir D]`.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, the operation counts and
/// the metrics of the requested kind (end-to-end or per-layer).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  /// Records a failed correctness check (printed to stderr at the end).
  void Fail(const std::string& message);
  void Add(const std::string& name, double value, const std::string& unit);
};

/// Set-up shared by every workload: the four-platform registry, a TDGEN
/// training set, and an OptimizerService that trains the v1 forest.
class Env {
 public:
  Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Runs TDGEN and OptimizerService::Create under `spans` (may be null).
  robopt::Status Init(SpanRecorder* spans);

  /// The serving configuration every workload starts from (diagnostics,
  /// observability and the retrain cadence are set per workload).
  static robopt::ServeOptions BaseServeOptions();
  /// Optimize options with the fixed thread count.
  static robopt::OptimizeOptions BaseOptimizeOptions();

  /// A fresh service serving the v1 forest (no training): rounds start from
  /// the same model and an empty plan cache.
  robopt::StatusOr<std::unique_ptr<robopt::OptimizerService>> FreshService(
      robopt::ServeOptions options) const;

  robopt::PlatformRegistry registry;
  robopt::FeatureSchema schema;
  robopt::VirtualCost cost;
  robopt::Executor tdgen_executor;
  robopt::MlDataset base;
  robopt::TdgenReport tdgen_report;
  /// The set-up service; it stays alive for the whole run in every
  /// workload, so all three carry the same set-up memory.
  std::unique_ptr<robopt::OptimizerService> service;
  /// The v1 forest the set-up service trained.
  std::shared_ptr<robopt::RandomForest> v1;
  double tdgen_s = 0.0;
  double create_s = 0.0;
};

/// Forwards every batch to `inner` inside an "ml.estimate_batch" span that
/// records the row count — how the traced run splits oracle time out of
/// RoboptOptimizer::Optimize without tracing inside the program.
class ForwardingOracle : public robopt::CostOracle {
 public:
  ForwardingOracle(const robopt::CostOracle* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  void EstimateBatch(const float* x, size_t n, size_t dim,
                     float* out) const override;

 private:
  const robopt::CostOracle* inner_;
  SpanRecorder* spans_;
};

/// Forwards executions to the service inside "serve.on_execution" spans.
class ForwardingObserver : public robopt::ExecutionObserver {
 public:
  ForwardingObserver(robopt::ExecutionObserver* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  void OnExecution(const robopt::ExecutionPlan& plan,
                   const robopt::ExecResult& result) override;
  void OnExecutionFailure(const robopt::ExecutionPlan& plan,
                          const robopt::FailureReport& report) override;

 private:
  robopt::ExecutionObserver* inner_;
  SpanRecorder* spans_;
};

/// The timed phase of a run: whole rounds of one fixed operation
/// sequence, measured in windows of consecutive operations (a round, or a
/// fixed number of requests). Host noise on a shared machine comes in
/// bursts shorter than a run, so the end-to-end figures are medians over
/// windows.
class TimedPhase {
 public:
  /// Runs `round(index)` until the rounds have used `seconds`: a round
  /// starts only while the previous one still fits in the time left, and
  /// the first round always runs. A round returns false to stop the run
  /// (its set-up failed). Returns the number of rounds.
  int Run(double seconds, const std::function<bool(int)>& round);

  void BeginWindow();
  void EndWindow();
  /// Records one operation's latency in the open window.
  void Record(double latency_ms) { window_latencies_ms_.back().push_back(latency_ms); }

  size_t ops() const;
  /// Median over windows of the window's operations per wall second.
  double MedianOpsPerSecond() const;
  /// Median over windows of the window's latency quantile q.
  double MedianLatencyQuantile(double q) const;

  /// Process start to the end of set-up (the cold set-up time).
  double setup_s = 0.0;
  /// True simulator runtime of one round's chosen plans (every round runs
  /// the same operations and must give the same sum).
  double plan_runtime_s = 0.0;

 private:
  int64_t window_start_ns_ = 0;
  std::vector<double> window_s_;
  std::vector<std::vector<double>> window_latencies_ms_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// getrusage peak resident set size of this process, in MB.
double PeakRssMb();

/// seconds since the process started (the set-up clock).
double ProcessSeconds();

/// splitmix64 of (seed, stream): independent sub-seeds from one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// "nproc=4 lane=avx2 compiler=gcc-12.2.0 build=Release".
std::string HostLine();

/// Per-operator assignment of an execution plan (-1 = unassigned).
std::vector<int16_t> AssignmentOf(const robopt::ExecutionPlan& plan);

/// Prints the last stdout line: one JSON object with the verdict, the
/// operation counts and every metric.
void PrintResult(const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
