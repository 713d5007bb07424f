// optimize_cold: RoboptOptimizer::Optimize on the v1 forest, called
// directly over a seeded pool of large plans. No service, no plan cache and
// no execution: enumeration (core) and forest inference (ml) do the work.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "checks.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "plan/cardinality.h"
#include "workload/generators.h"
#include "workloads.h"
#include "workloads/synthetic.h"

namespace perfbench {
namespace {

using robopt::Cardinalities;
using robopt::CardinalityEstimator;
using robopt::LogicalPlan;
using robopt::OptimizeResult;

/// Table II at five input scales; the seed jitters each plan's scale
/// within a factor of 2^0.1, which keeps the platform choices in the same
/// regime while the inputs differ.
constexpr double kPaperScalesGb[] = {0.05, 0.2, 1.0, 3.0, 10.0};
constexpr double kScaleJitterLog2 = 0.05;
/// Synthetic shapes of fixed size, each built kSyntheticCopies times. Their
/// operator kinds, selectivities and UDFs come from kStructureSeed, so the
/// enumeration work is the same for every --seed; the seed jitters each
/// plan's source cardinality within a factor of 2^0.1 of 1e6 and draws
/// the order. (Structures drawn per seed moved the latency median by 19%
/// between seeds, README.md.)
constexpr int kPipelineOps[] = {20, 24, 28, 32, 36, 40};
constexpr int kJoinTreeJoins[] = {2, 3, 3, 4};
constexpr int kLoopOps[] = {12, 15, 18, 21};
constexpr int kLoopIterations = 10;
constexpr int kSyntheticCopies = 2;
constexpr uint64_t kStructureSeed = 20200416;

std::vector<LogicalPlan> MakePool(uint64_t seed) {
  robopt::Rng rng(SubSeed(seed, 1));
  robopt::Rng structure(kStructureSeed);
  std::vector<LogicalPlan> pool;
  for (double scale : kPaperScalesGb) {
    const size_t queries = robopt::MakePaperPlanPool(scale).size();
    for (size_t q = 0; q < queries; ++q) {
      const double jitter =
          std::exp2(rng.NextUniform(-kScaleJitterLog2, kScaleJitterLog2));
      pool.push_back(robopt::MakePaperPlanPool(scale * jitter)[q]);
    }
  }
  auto cardinality = [&rng] {
    return 1e6 * std::exp2(rng.NextUniform(-kScaleJitterLog2, kScaleJitterLog2));
  };
  for (int copy = 0; copy < kSyntheticCopies; ++copy) {
    for (int ops : kPipelineOps) {
      pool.push_back(
          robopt::MakeSyntheticPipeline(ops, cardinality(), structure.Next()));
    }
    for (int joins : kJoinTreeJoins) {
      pool.push_back(
          robopt::MakeSyntheticJoinTree(joins, cardinality(), structure.Next()));
    }
    for (int ops : kLoopOps) {
      pool.push_back(robopt::MakeSyntheticLoopPlan(
          ops, cardinality(), kLoopIterations, structure.Next()));
    }
  }
  // Seeded order: no plan always runs first.
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextBounded(i)]);
  }
  return pool;
}

struct Decision {
  std::vector<int16_t> assignment;
  float predicted = 0.0f;
};

}  // namespace

void RunOptimizeCold(const Args& args, Env* env, SpanRecorder* spans,
                     Report* report) {
  const std::vector<LogicalPlan> pool = MakePool(args.seed);
  const robopt::MlCostOracle forest_oracle(env->v1.get());
  const ForwardingOracle traced_oracle(&forest_oracle, spans);
  const robopt::CostOracle* oracle =
      spans != nullptr ? static_cast<const robopt::CostOracle*>(&traced_oracle)
                       : &forest_oracle;
  const robopt::RoboptOptimizer optimizer(&env->registry, &env->schema,
                                          oracle);
  const robopt::RoboptOptimizer direct(&env->registry, &env->schema,
                                       &forest_oracle);
  robopt::OptimizeOptions options = Env::BaseOptimizeOptions();
  options.obs.profile = spans != nullptr;

  TimedPhase phase;
  phase.setup_s = ProcessSeconds();
  std::fprintf(stderr, "[perfbench] optimize_cold: %zu plans per round\n",
               pool.size());

  // The reference round: untimed, it warms caches and allocator, and its
  // results are what the checks and every timed round are compared with.
  std::vector<OptimizeResult> reference;
  std::vector<Cardinalities> reference_cards;
  for (const LogicalPlan& plan : pool) {
    reference_cards.push_back(CardinalityEstimator(&plan).Estimate());
    auto result = direct.Optimize(plan, &reference_cards.back(), options);
    if (!result.ok()) {
      report->Fail("optimize: " + result.status().ToString());
      return;
    }
    reference.push_back(std::move(result).value());
  }

  LayerMetrics layers;
  double vectors = 0.0;
  double vectorize_us = 0.0;
  double concat_us = 0.0;
  double prune_us = 0.0;
  std::vector<Decision> decisions(pool.size());
  int64_t op_id = 0;
  auto round = [&](int round_index) {
    phase.BeginWindow();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (spans != nullptr) spans->set_op(op_id);
      ++op_id;
      const int64_t op_start = NowNs();
      SpanRecorder::Scope op_span(spans, "op");
      Cardinalities cards;
      {
        SpanRecorder::Scope span(spans, "plan.estimate");
        cards = CardinalityEstimator(&pool[i]).Estimate();
      }
      robopt::StatusOr<OptimizeResult> result = [&] {
        SpanRecorder::Scope span(spans, "core.optimize");
        return optimizer.Optimize(pool[i], &cards, options);
      }();
      phase.Record((NowNs() - op_start) / 1e6);
      ++report->attempted;
      if (!result.ok()) {
        ++report->failed;
        continue;
      }
      decisions[i].assignment = AssignmentOf(result->plan);
      decisions[i].predicted = result->predicted_runtime_s;
      vectors += static_cast<double>(result->stats.vectors_created);
      vectorize_us += result->profile.phase.vectorize_us;
      concat_us += result->profile.phase.concat_us;
      prune_us += result->profile.phase.prune_us;
    }
    phase.EndWindow();
    for (size_t i = 0; i < pool.size(); ++i) {
      const std::string error = CheckSameDecision(
          decisions[i].assignment, decisions[i].predicted,
          AssignmentOf(reference[i].plan), reference[i].predicted_runtime_s);
      if (!error.empty()) {
        report->Fail("round " + std::to_string(round_index) + " plan " +
                     std::to_string(i) + " differs from the reference: " +
                     error);
      }
    }
    return true;
  };
  const int rounds = phase.Run(args.seconds, round);
  if (spans != nullptr) spans->set_op(-1);

  // Checks, once per run, on the reference round.
  robopt::OptimizeOptions threaded = Env::BaseOptimizeOptions();
  threaded.num_threads = 2;
  for (size_t i = 0; i < pool.size(); ++i) {
    const OptimizeResult& result = reference[i];
    const std::string label = "plan " + std::to_string(i) + " (" +
                              std::to_string(pool[i].num_operators()) +
                              " operators): ";
    std::string error = CheckPlanValid(result.plan);
    if (!error.empty()) report->Fail(label + error);
    auto ctx = robopt::EnumerationContext::Make(
        &pool[i], &env->registry, &env->schema, &reference_cards[i]);
    if (!ctx.ok()) {
      report->Fail(label + ctx.status().ToString());
      continue;
    }
    error = CheckReencodedCost(*ctx, forest_oracle,
                               AssignmentOf(result.plan),
                               result.predicted_runtime_s);
    if (!error.empty()) report->Fail(label + error);
    auto again = direct.Optimize(pool[i], &reference_cards[i],
                                          threaded);
    if (!again.ok()) {
      report->Fail(label + again.status().ToString());
      continue;
    }
    error = CheckSameDecision(AssignmentOf(again->plan),
                              again->predicted_runtime_s,
                              AssignmentOf(result.plan),
                              result.predicted_runtime_s);
    if (!error.empty()) report->Fail(label + "2 threads vs 1: " + error);
    const double runtime =
        env->cost.PlanCost(result.plan, reference_cards[i]).total_s;
    error = CheckFiniteCost(runtime);
    if (!error.empty()) report->Fail(label + error);
    phase.plan_runtime_s += runtime;
  }

  if (spans != nullptr) {
    const double ops = static_cast<double>(phase.ops());
    const SpanTotals batches = spans->Totals("ml.estimate_batch");
    const SpanTotals optimize = spans->Totals("core.optimize");
    const double oracle_ns =
        spans->ChildNs("core.optimize", "ml.estimate_batch");
    layers.ml_oracle_ms = oracle_ns / 1e6 / ops;
    layers.ml_rows_per_s =
        batches.total_ns > 0.0 ? batches.count / (batches.total_ns / 1e9) : 0.0;
    layers.ml_rows_per_op = batches.count / ops;
    layers.core_self_ms = (optimize.total_ns - oracle_ns) / 1e6 / ops;
    layers.core_vectors_per_op = vectors / ops;
    layers.core_vectorize_ms = vectorize_us / 1e3 / ops;
    layers.core_concat_ms = concat_us / 1e3 / ops;
    layers.core_prune_ms = prune_us / 1e3 / ops;
    layers.plan_estimate_us = MeanSpanMs(*spans, "plan.estimate") * 1e3;
  }
  AddSetupLayers(*env, &layers);
  double vectors_per_round = 0.0;
  for (const OptimizeResult& result : reference) {
    vectors_per_round += static_cast<double>(result.stats.vectors_created);
  }
  std::printf("# rounds=%d ops_per_round=%zu vectors_per_round=%.0f "
              "plan_runtime_s=%.6f\n",
              rounds, pool.size(), vectors_per_round, phase.plan_runtime_s);
  AddMetrics(args, phase, layers, report);
}

}  // namespace perfbench
