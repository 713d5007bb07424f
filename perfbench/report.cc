#include "workloads.h"

namespace perfbench {

void AddMetrics(const Args& args, const TimedPhase& phase,
                const LayerMetrics& layers, Report* report) {
  const double ops_per_s = phase.MedianOpsPerSecond();
  if (!args.trace) {
    report->Add("setup_s", phase.setup_s, "s");
    report->Add("ops_per_s", ops_per_s, "ops/s");
    report->Add("latency_ms_p50", phase.MedianLatencyQuantile(0.5), "ms");
    report->Add("latency_ms_p90", phase.MedianLatencyQuantile(0.9), "ms");
    report->Add("plan_runtime_s", phase.plan_runtime_s, "virtual_s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  report->Add("tdgen.generate_s", layers.tdgen_generate_s, "s");
  report->Add("tdgen.jobs_per_s", layers.tdgen_jobs_per_s, "1/s");
  report->Add("ml.oracle_ms", layers.ml_oracle_ms, "ms");
  report->Add("ml.rows_per_s", layers.ml_rows_per_s, "1/s");
  report->Add("ml.rows_per_op", layers.ml_rows_per_op, "count");
  report->Add("core.self_ms", layers.core_self_ms, "ms");
  report->Add("core.vectors_per_op", layers.core_vectors_per_op, "count");
  report->Add("core.vectorize_ms", layers.core_vectorize_ms, "ms");
  report->Add("core.concat_ms", layers.core_concat_ms, "ms");
  report->Add("core.prune_ms", layers.core_prune_ms, "ms");
  report->Add("plan.fingerprint_us", layers.plan_fingerprint_us, "us");
  report->Add("plan.estimate_us", layers.plan_estimate_us, "us");
  report->Add("serve.hit_us_p50", layers.serve_hit_us_p50, "us");
  report->Add("serve.hit_ratio", layers.serve_hit_ratio, "ratio");
  report->Add("serve.miss_ms_p50", layers.serve_miss_ms_p50, "ms");
  report->Add("serve.create_s", layers.serve_create_s, "s");
  report->Add("serve.feedback_us", layers.serve_feedback_us, "us");
  report->Add("serve.retrain_s", layers.serve_retrain_s, "s");
  report->Add("exec.execute_ms_p50", layers.exec_execute_ms_p50, "ms");
  report->Add("exec.input_rows_per_s", layers.exec_input_rows_per_s, "1/s");
  report->Add("obs.scrape_ms", layers.obs_scrape_ms, "ms");
  report->Add("workload.load_ms", layers.workload_load_ms, "ms");
  report->Add("trace.ops_per_s", ops_per_s, "ops/s");
}

void AddSetupLayers(const Env& env, LayerMetrics* layers) {
  layers->tdgen_generate_s = env.tdgen_s;
  layers->tdgen_jobs_per_s =
      env.tdgen_s > 0.0
          ? static_cast<double>(env.tdgen_report.jobs_total) / env.tdgen_s
          : 0.0;
  layers->serve_create_s = env.create_s;
}

double MeanSpanMs(const SpanRecorder& spans, const char* name) {
  const SpanTotals totals = spans.Totals(name);
  if (totals.spans == 0) return 0.0;
  return totals.total_ns / 1e6 / static_cast<double>(totals.spans);
}

}  // namespace perfbench
