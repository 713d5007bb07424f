// serve_tenants: OptimizerService::Optimize over a seeded multi-tenant
// OpenLoopSource stream, sent in stream order as fast as the service
// answers, with the observability plane and decision diagnostics on and a
// Prometheus scrape every kScrapeEvery requests. Read-only: nothing
// executes and the model never changes.

#include <cstdio>
#include <map>
#include <tuple>

#include "checks.h"
#include "core/optimizer.h"
#include "plan/cardinality.h"
#include "plan/fingerprint.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using robopt::OptimizerService;
using robopt::WorkloadOp;

/// Stream make-up. The paper pool keeps the plan mix fixed, so the seed
/// changes tenants, plan draws and cardinality noise but not which plans
/// exist; synthetic pools drawn per seed swing the miss cost too far
/// between seeds for any bound (README.md, "Why these workloads").
constexpr size_t kStreamOps = 12000;
/// Latency and throughput are taken per window of this many consecutive
/// requests and reported as the median over windows.
constexpr size_t kWindowOps = 1000;
constexpr int kTenants = 16;
constexpr double kTenantZipf = 1.2;
constexpr double kTenantAffinity = 0.8;
constexpr double kCardsFraction = 0.55;
constexpr double kPaperScaleGb = 0.02;
constexpr size_t kScrapeEvery = 500;
/// The untimed warm-up replays this many ops on a throwaway service.
constexpr size_t kWarmupOps = 500;

struct Served {
  bool ok = false;
  bool hit = false;
  float predicted = 0.0f;
  uint64_t version = 0;
  std::vector<int16_t> assignment;
};

}  // namespace

void RunServeTenants(const Args& args, Env* env, SpanRecorder* spans,
                     Report* report) {
  LayerMetrics layers;
  robopt::GeneratorOptions generator;
  generator.base.seed = SubSeed(args.seed, 2);
  generator.base.max_ops = kStreamOps;
  generator.base.num_tenants = kTenants;
  generator.base.tenant_zipf_s = kTenantZipf;
  generator.feedback_fraction = 0.0;
  generator.tenant_affinity = kTenantAffinity;
  generator.cards_fraction = kCardsFraction;
  generator.paper_scale_gb = kPaperScaleGb;
  robopt::OpenLoopSource source(robopt::PlanPool::kPaper, generator);
  {
    SpanRecorder::Scope span(spans, "workload.load");
    const int64_t start = NowNs();
    const robopt::Status loaded = source.Load();
    if (!loaded.ok()) {
      report->Fail("OpenLoopSource::Load: " + loaded.ToString());
      return;
    }
    layers.workload_load_ms = (NowNs() - start) / 1e6;
  }
  std::vector<WorkloadOp> ops;
  WorkloadOp op;
  while (source.GetNext(&op)) ops.push_back(std::move(op));

  robopt::ServeOptions serve = Env::BaseServeOptions();
  serve.observability = true;
  serve.diagnostics.enabled = true;
  const robopt::OptimizeOptions options = Env::BaseOptimizeOptions();

  TimedPhase phase;
  phase.setup_s = ProcessSeconds();
  std::fprintf(stderr, "[perfbench] serve_tenants: %zu ops per round\n",
               ops.size());

  {
    auto warm = env->FreshService(serve);
    if (!warm.ok()) {
      report->Fail("service: " + warm.status().ToString());
      return;
    }
    for (size_t i = 0; i < kWarmupOps && i < ops.size(); ++i) {
      (void)(*warm)->Optimize(ops[i].plan,
                              ops[i].has_cards ? &ops[i].cards : nullptr,
                              options, robopt::RequestContext{ops[i].tenant});
    }
  }

  std::vector<Served> reference;
  std::vector<Served> served(ops.size());
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  double scrape_ns = 0.0;
  size_t scrapes = 0;
  int64_t op_id = 0;
  auto round = [&](int round_index) {
    auto made = env->FreshService(serve);
    if (!made.ok()) {
      report->Fail("service: " + made.status().ToString());
      return false;
    }
    OptimizerService* service = made->get();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i % kWindowOps == 0) {
        if (i > 0) phase.EndWindow();
        phase.BeginWindow();
      }
      const WorkloadOp& request = ops[i];
      if (spans != nullptr) spans->set_op(op_id);
      ++op_id;
      const int64_t op_start = NowNs();
      robopt::StatusOr<OptimizerService::Result> result = [&] {
        SpanRecorder::Scope op_span(spans, "op");
        if (spans != nullptr) {
          SpanRecorder::Scope span(spans, "plan.fingerprint");
          (void)robopt::FingerprintPlan(request.plan);
        }
        SpanRecorder::Scope span(spans, "serve.optimize");
        return service->Optimize(request.plan,
                                 request.has_cards ? &request.cards : nullptr,
                                 options,
                                 robopt::RequestContext{request.tenant});
      }();
      const double latency_ms = (NowNs() - op_start) / 1e6;
      phase.Record(latency_ms);
      ++report->attempted;
      Served& out = served[i];
      out.ok = result.ok();
      if (!result.ok()) {
        ++report->failed;
      } else {
        out.hit = result->cache_hit;
        out.predicted = result->optimize.predicted_runtime_s;
        out.version = result->optimize.model_version;
        out.assignment = AssignmentOf(result->optimize.plan);
        if (out.hit) {
          hit_us.push_back(latency_ms * 1e3);
        } else {
          miss_ms.push_back(latency_ms);
        }
      }
      if ((i + 1) % kScrapeEvery == 0) {
        SpanRecorder::Scope span(spans, "obs.scrape");
        const int64_t scrape_start = NowNs();
        const std::string text = service->ExportPrometheus();
        scrape_ns += static_cast<double>(NowNs() - scrape_start);
        ++scrapes;
        if (text.empty()) report->Fail("empty Prometheus scrape");
      }
    }
    phase.EndWindow();
    if (round_index == 0) {
      reference = served;
    } else {
      for (size_t i = 0; i < ops.size(); ++i) {
        const std::string error = CheckSameDecision(
            served[i].assignment, served[i].predicted,
            reference[i].assignment, reference[i].predicted);
        if (served[i].hit != reference[i].hit || !error.empty()) {
          report->Fail("round " + std::to_string(round_index) + " op " +
                       std::to_string(i) + " differs from round 0 " + error);
        }
      }
    }
    return true;
  };
  const int rounds = phase.Run(args.seconds, round);
  if (spans != nullptr) spans->set_op(-1);

  // Every distinct (plan, cards) request, re-optimized directly on v1,
  // must give the served plan and cost — hits and misses alike.
  const robopt::MlCostOracle forest_oracle(env->v1.get());
  const robopt::RoboptOptimizer direct(&env->registry, &env->schema,
                                       &forest_oracle);
  using Key = std::tuple<uint64_t, uint64_t, bool, uint64_t>;
  std::map<Key, Served> decided;
  size_t hits = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& request = ops[i];
    const Served& got = reference[i];
    if (!got.ok) continue;
    hits += got.hit ? 1 : 0;
    const robopt::PlanFingerprint fp = robopt::FingerprintPlan(request.plan);
    const Key key{fp.lo, fp.hi, request.has_cards,
                  request.has_cards ? robopt::FingerprintCards(request.cards)
                                    : 0};
    auto it = decided.find(key);
    if (it == decided.end()) {
      Served want;
      auto result = direct.Optimize(
          request.plan, request.has_cards ? &request.cards : nullptr,
          options);
      if (result.ok()) {
        want.ok = true;
        want.predicted = result->predicted_runtime_s;
        want.assignment = AssignmentOf(result->plan);
      }
      it = decided.emplace(key, std::move(want)).first;
    }
    const std::string label = "op " + std::to_string(i) +
                              (got.hit ? " (hit): " : " (miss): ");
    if (!it->second.ok) {
      report->Fail(label + "direct optimize failed");
      continue;
    }
    if (got.version != 1) {
      report->Fail(label + "served by model v" + std::to_string(got.version));
    }
    std::string error = CheckSameDecision(got.assignment, got.predicted,
                                          it->second.assignment,
                                          it->second.predicted);
    if (!error.empty()) report->Fail(label + error);
    robopt::ExecutionPlan plan(&request.plan, &env->registry);
    for (size_t id = 0; id < got.assignment.size(); ++id) {
      plan.Assign(static_cast<robopt::OperatorId>(id), got.assignment[id]);
    }
    const robopt::Cardinalities cards =
        request.has_cards ? request.cards
                          : robopt::CardinalityEstimator(&request.plan)
                                .Estimate();
    const double runtime = env->cost.PlanCost(plan, cards).total_s;
    error = CheckFiniteCost(runtime);
    if (!error.empty()) report->Fail(label + error);
    phase.plan_runtime_s += runtime;
  }

  if (spans != nullptr) {
    layers.plan_fingerprint_us = MeanSpanMs(*spans, "plan.fingerprint") * 1e3;
    layers.serve_hit_us_p50 = Quantile(hit_us, 0.5);
    layers.serve_miss_ms_p50 = Quantile(miss_ms, 0.5);
    layers.serve_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(ops.size());
    layers.obs_scrape_ms = scrapes > 0 ? scrape_ns / 1e6 / scrapes : 0.0;
  }
  AddSetupLayers(*env, &layers);
  std::printf("# rounds=%d ops_per_round=%zu hits_per_round=%zu "
              "distinct_requests=%zu plan_runtime_s=%.6f\n",
              rounds, ops.size(), hits, decided.size(),
              phase.plan_runtime_s);
  AddMetrics(args, phase, layers, report);
}

}  // namespace perfbench
