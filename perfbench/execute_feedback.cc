// execute_feedback: Table II queries at a seeded mix of input scales, each
// optimized through the service and then run for real by the Executor on
// generated inputs, with the service as the execution observer. A
// synchronous RetrainNow() after every kRetrainEvery executions trains,
// validates and promotes at the same points in every run, and each
// promotion invalidates the cached plans.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "checks.h"
#include "common/rng.h"
#include "plan/logical_plan.h"
#include "workloads.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"

namespace perfbench {
namespace {

using robopt::DataCatalog;
using robopt::Dataset;
using robopt::ExecResult;
using robopt::ExecutionPlan;
using robopt::LogicalPlan;
using robopt::OptimizerService;

/// Physical rows per generated input; the virtual clock charges the
/// plan's declared size.
constexpr size_t kInputRows = 10000;
constexpr int kIterations = 5;
constexpr int kCentroids = 3;
constexpr int kDims = 4;
constexpr int kSgdBatch = 64;
/// Every (query, scale) pair runs this many times per round, and the
/// service retrains after every kRetrainEvery executions (two epochs, so
/// every plan is served once from the cache between promotions).
constexpr int kEpochs = 4;
constexpr int kRetrainEvery = 30;
constexpr uint64_t kExecutorSeed = 42;
/// The seed jitters every input scale within a factor of 2^0.05.
constexpr double kScaleJitterLog2 = 0.05;

/// One query at three input scales (in the builder's unit). The scales
/// straddle the single-node/distributed crossover, so Java wins the small
/// inputs, Spark or Flink the large ones, and mixed plans convert data.
struct QuerySpec {
  const char* name;
  double scales[3];
  std::function<LogicalPlan(double)> build;
};

const std::vector<QuerySpec>& Queries() {
  static const std::vector<QuerySpec> queries = {
      {"WordCount", {0.001, 0.1, 10.0},
       [](double gb) { return robopt::MakeWordCountPlan(gb); }},
      {"Join", {0.001, 0.1, 10.0},
       [](double gb) { return robopt::MakeJoinPlan(gb); }},
      {"K-means", {1.0, 100.0, 10000.0},
       [](double mb) {
         return robopt::MakeKmeansPlan(mb, kCentroids, kIterations);
       }},
      {"SGD", {0.001, 0.1, 10.0},
       [](double gb) { return robopt::MakeSgdPlan(gb, kSgdBatch, kIterations); }},
      {"CrocoPR", {0.001, 0.1, 10.0},
       [](double gb) { return robopt::MakeCrocoPrPlan(gb, kIterations); }},
  };
  return queries;
}

/// A generated input for every source, by the source's name.
DataCatalog MakeInputs(const LogicalPlan& plan, uint64_t seed) {
  DataCatalog catalog;
  uint64_t stream = 0;
  for (robopt::OperatorId id : plan.SourceIds()) {
    const robopt::LogicalOperator& op = plan.op(id);
    const double rows = op.source_cardinality;
    const uint64_t s = SubSeed(seed, ++stream);
    Dataset data;
    if (op.name == "wikipedia") {
      data = robopt::GenerateTextLines(rows, kInputRows, s);
    } else if (op.name == "transactions") {
      data = robopt::GenerateTransactions(rows, kInputRows, s);
    } else if (op.name == "customers") {
      data = robopt::GenerateCustomers(rows, kInputRows, s);
    } else if (op.name == "points") {
      data = robopt::GeneratePoints(rows, kInputRows, s, kDims);
    } else if (op.name == "init_centroids") {
      data = robopt::MakeCentroids(kCentroids, kDims, s);
    } else if (op.name == "training_points") {
      data = robopt::GenerateLabeledSamples(rows, kInputRows, s, kDims);
    } else if (op.name == "init_weights") {
      data = robopt::MakeInitialWeights(kDims);
    } else {
      data = robopt::GenerateEdges(rows, kInputRows, s);
    }
    catalog.Bind(id, std::move(data));
  }
  return catalog;
}

/// The same logical plan with every operator on Java (driver-side
/// collections keep their only alternative).
ExecutionPlan JavaOnly(const LogicalPlan& plan,
                       const robopt::PlatformRegistry& registry) {
  ExecutionPlan exec(&plan, &registry);
  for (const robopt::LogicalOperator& op : plan.operators()) {
    const auto& alts = registry.AlternativesFor(op.kind);
    int chosen = 0;
    for (size_t a = 0; a < alts.size(); ++a) {
      if (registry.platform(alts[a].platform).name == "Java" &&
          alts[a].variant == 0) {
        chosen = static_cast<int>(a);
        break;
      }
    }
    exec.Assign(op.id, chosen);
  }
  return exec;
}

struct Job {
  std::string label;
  LogicalPlan plan;
  DataCatalog inputs;
  double source_rows = 0.0;  ///< Physical rows read by the sources.
  uint64_t tokens = 0;       ///< WordCount only: tokens in the input.
};

struct Executed {
  bool ok = false;
  std::vector<int16_t> assignment;
  double cost_s = 0.0;
  Dataset output;
};

}  // namespace

void RunExecuteFeedback(const Args& args, Env* env, SpanRecorder* spans,
                        Report* report) {
  LayerMetrics layers;
  robopt::Rng rng(SubSeed(args.seed, 3));
  std::vector<Job> jobs;
  for (const QuerySpec& query : Queries()) {
    for (double scale : query.scales) {
      Job job;
      const double jittered =
          scale * std::exp2(rng.NextUniform(-kScaleJitterLog2, kScaleJitterLog2));
      job.label = std::string(query.name) + "@" + std::to_string(jittered);
      job.plan = query.build(jittered);
      job.inputs = MakeInputs(job.plan, rng.Next());
      for (const auto& [id, data] : job.inputs.by_op) {
        job.source_rows += static_cast<double>(data.rows.size());
        if (job.plan.op(id).name == "wikipedia") {
          job.tokens = CountTokens(data);
        }
      }
      jobs.push_back(std::move(job));
    }
  }
  // Each epoch runs every job once, in its own seeded order.
  std::vector<size_t> order;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<size_t> epoch_order(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) epoch_order[i] = i;
    for (size_t i = epoch_order.size(); i > 1; --i) {
      std::swap(epoch_order[i - 1], epoch_order[rng.NextBounded(i)]);
    }
    order.insert(order.end(), epoch_order.begin(), epoch_order.end());
  }

  robopt::ServeOptions serve = Env::BaseServeOptions();
  serve.retrain_min_events = 1;
  const robopt::OptimizeOptions options = Env::BaseOptimizeOptions();

  TimedPhase phase;
  phase.setup_s = ProcessSeconds();
  std::fprintf(stderr, "[perfbench] execute_feedback: %zu ops per round\n",
               order.size());

  std::vector<Executed> reference;
  std::vector<Executed> executed(order.size());
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  size_t hits = 0;
  size_t promotions = 0;
  double retrain_s = 0.0;
  size_t retrains = 0;
  int64_t op_id = 0;
  auto round = [&](int round_index) {
    auto made = env->FreshService(serve);
    if (!made.ok()) {
      report->Fail("service: " + made.status().ToString());
      return false;
    }
    OptimizerService* service = made->get();
    ForwardingObserver traced_observer(service, spans);
    robopt::ExecutorOptions exec_options;
    exec_options.seed = kExecutorSeed;
    exec_options.observer =
        spans != nullptr ? static_cast<robopt::ExecutionObserver*>(
                               &traced_observer)
                         : service;
    const robopt::Executor executor(&env->registry, &env->cost, nullptr,
                                    exec_options);
    phase.BeginWindow();
    for (size_t i = 0; i < order.size(); ++i) {
      Job& job = jobs[order[i]];
      Executed& out = executed[i];
      if (spans != nullptr) spans->set_op(op_id);
      ++op_id;
      const int64_t op_start = NowNs();
      {
        SpanRecorder::Scope op_span(spans, "op");
        robopt::StatusOr<OptimizerService::Result> optimized = [&] {
          SpanRecorder::Scope span(spans, "serve.optimize");
          return service->Optimize(job.plan, nullptr, options);
        }();
        const double optimize_ms = (NowNs() - op_start) / 1e6;
        out.ok = optimized.ok();
        if (out.ok) {
          if (round_index == 0) {
            hits += optimized->cache_hit ? 1 : 0;
          }
          if (optimized->cache_hit) {
            hit_us.push_back(optimize_ms * 1e3);
          } else {
            miss_ms.push_back(optimize_ms);
          }
          robopt::StatusOr<ExecResult> result = [&] {
            SpanRecorder::Scope span(spans, "exec.execute",
                                     static_cast<int64_t>(job.source_rows));
            return executor.Execute(optimized->optimize.plan, job.inputs);
          }();
          out.ok = result.ok();
          if (out.ok) {
            out.assignment = AssignmentOf(optimized->optimize.plan);
            out.cost_s = result->cost.total_s;
            if (round_index == 0) out.output = std::move(result->output);
          }
        }
      }
      phase.Record((NowNs() - op_start) / 1e6);
      ++report->attempted;
      if (!out.ok) ++report->failed;
      if ((i + 1) % kRetrainEvery == 0) {
        SpanRecorder::Scope span(spans, "serve.retrain");
        const int64_t retrain_start = NowNs();
        auto outcome = service->RetrainNow();
        if (!outcome.ok()) {
          report->Fail("RetrainNow: " + outcome.status().ToString());
        } else if (outcome->triggered) {
          retrain_s += (NowNs() - retrain_start) / 1e9;
          ++retrains;
          if (round_index == 0 && outcome->promoted) ++promotions;
        }
      }
    }
    phase.EndWindow();
    if (round_index == 0) {
      reference = std::move(executed);
      executed.assign(order.size(), Executed{});
    } else {
      for (size_t i = 0; i < order.size(); ++i) {
        if (executed[i].assignment != reference[i].assignment ||
            executed[i].cost_s != reference[i].cost_s) {
          report->Fail("round " + std::to_string(round_index) + " op " +
                       std::to_string(i) + " ran another plan than round 0");
        }
      }
    }
    return true;
  };
  const int rounds = phase.Run(args.seconds, round);
  if (spans != nullptr) spans->set_op(-1);

  // Outputs against the same logical plan run on Java alone.
  robopt::ExecutorOptions java_options;
  java_options.seed = kExecutorSeed;
  const robopt::Executor java_executor(&env->registry, &env->cost, nullptr,
                                       java_options);
  std::vector<Dataset> java_outputs(jobs.size());
  double all_runtime_s = 0.0;
  std::vector<bool> java_done(jobs.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    const Job& job = jobs[order[i]];
    const Executed& got = reference[i];
    const std::string label = "op " + std::to_string(i) + " " + job.label +
                              ": ";
    if (!got.ok) continue;
    if (!java_done[order[i]]) {
      auto java = java_executor.Execute(JavaOnly(job.plan, env->registry),
                                        job.inputs);
      if (!java.ok()) {
        report->Fail(label + "Java-only run: " + java.status().ToString());
        continue;
      }
      java_outputs[order[i]] = std::move(java->output);
      java_done[order[i]] = true;
      ExecutionPlan chosen(&job.plan, &env->registry);
      for (size_t id = 0; id < got.assignment.size(); ++id) {
        chosen.Assign(static_cast<robopt::OperatorId>(id), got.assignment[id]);
      }
      std::string platforms;
      for (robopt::PlatformId p : chosen.PlatformsUsed()) {
        platforms += (platforms.empty() ? "" : "+") +
                     env->registry.platform(p).name;
      }
      std::fprintf(stderr, "[perfbench] %s runs on %s (%.3f virtual s)\n",
                   job.label.c_str(), platforms.c_str(), got.cost_s);
    }
    std::string error = CheckSameRows(got.output, java_outputs[order[i]]);
    if (!error.empty()) report->Fail(label + error);
    if (job.tokens > 0) {
      error = CheckTokenCount(got.output, job.tokens);
      if (!error.empty()) report->Fail(label + error);
    }
    error = CheckFiniteCost(got.cost_s);
    if (!error.empty()) report->Fail(label + error);
    if (i < static_cast<size_t>(kRetrainEvery)) {
      phase.plan_runtime_s += got.cost_s;
    }
    all_runtime_s += got.cost_s;
  }

  if (spans != nullptr) {
    const SpanTotals execute = spans->Totals("exec.execute");
    layers.exec_execute_ms_p50 = Quantile(execute.durations_ns, 0.5) / 1e6;
    layers.exec_input_rows_per_s =
        execute.total_ns > 0.0 ? execute.count / (execute.total_ns / 1e9)
                               : 0.0;
    layers.serve_feedback_us = MeanSpanMs(*spans, "serve.on_execution") * 1e3;
    layers.serve_retrain_s = retrains > 0 ? retrain_s / retrains : 0.0;
    layers.serve_hit_us_p50 = Quantile(hit_us, 0.5);
    layers.serve_miss_ms_p50 = Quantile(miss_ms, 0.5);
    layers.serve_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(order.size());
  }
  AddSetupLayers(*env, &layers);
  std::printf("# rounds=%d ops_per_round=%zu hits_per_round=%zu "
              "promotions_per_round=%zu plan_runtime_s=%.6f "
              "all_ops_runtime_s=%.6f\n",
              rounds, order.size(), hits, promotions,
              phase.plan_runtime_s, all_runtime_s);
  AddMetrics(args, phase, layers, report);
}

}  // namespace perfbench
