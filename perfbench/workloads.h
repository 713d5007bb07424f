#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Per-layer figures of one traced run. A field stays 0 on a workload
/// that bypasses its layer (README.md lists which workload fills which).
struct LayerMetrics {
  double tdgen_generate_s = 0.0;
  double tdgen_jobs_per_s = 0.0;
  double ml_oracle_ms = 0.0;
  double ml_rows_per_s = 0.0;
  double ml_rows_per_op = 0.0;
  double core_self_ms = 0.0;
  double core_vectors_per_op = 0.0;
  double core_vectorize_ms = 0.0;
  double core_concat_ms = 0.0;
  double core_prune_ms = 0.0;
  double plan_fingerprint_us = 0.0;
  double plan_estimate_us = 0.0;
  double serve_hit_us_p50 = 0.0;
  double serve_hit_ratio = 0.0;
  double serve_miss_ms_p50 = 0.0;
  double serve_create_s = 0.0;
  double serve_feedback_us = 0.0;
  double serve_retrain_s = 0.0;
  double exec_execute_ms_p50 = 0.0;
  double exec_input_rows_per_s = 0.0;
  double obs_scrape_ms = 0.0;
  double workload_load_ms = 0.0;
};

/// Adds the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run) to `report`.
void AddMetrics(const Args& args, const TimedPhase& phase,
                const LayerMetrics& layers, Report* report);

/// Fills the set-up layers every workload shares (TDGEN, service create).
void AddSetupLayers(const Env& env, LayerMetrics* layers);

/// Mean of the durations of every span called `name`, in milliseconds.
double MeanSpanMs(const SpanRecorder& spans, const char* name);

void RunOptimizeCold(const Args& args, Env* env, SpanRecorder* spans,
                     Report* report);
void RunServeTenants(const Args& args, Env* env, SpanRecorder* spans,
                     Report* report);
void RunExecuteFeedback(const Args& args, Env* env, SpanRecorder* spans,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
