#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_oracle.h"
#include "core/operations.h"
#include "exec/record.h"
#include "platform/execution_plan.h"

namespace perfbench {

/// Output correctness checks. Each compares a program output with an
/// independent path or a property, never with a saved copy of an earlier
/// output. Every check returns an empty string on success and a message
/// naming the mismatch otherwise.

/// The plan passes ExecutionPlan::Validate (every operator assigned to a
/// capable platform).
std::string CheckPlanValid(const robopt::ExecutionPlan& plan);

/// Re-encodes `assignment` (alt index per operator, -1 = unassigned) under
/// `ctx` with EncodeAssignment, scores the row through `oracle`, and
/// requires exactly `predicted` — the optimizer's reported cost must be the
/// forest's cost of the plan it returned.
std::string CheckReencodedCost(const robopt::EnumerationContext& ctx,
                               const robopt::CostOracle& oracle,
                               const std::vector<int16_t>& assignment,
                               float predicted);

/// Two decisions for one request agree: the same alternative for every
/// operator and bit-identical predicted costs.
std::string CheckSameDecision(const std::vector<int16_t>& got,
                              float got_cost,
                              const std::vector<int16_t>& want,
                              float want_cost);

/// The two datasets hold the same rows as multisets (order ignored; every
/// field compared exactly).
std::string CheckSameRows(const robopt::Dataset& got,
                          const robopt::Dataset& want);

/// Space-separated tokens in the text lines, counted the way a reader of
/// the generated input would, independently of the tokenize kernel.
uint64_t CountTokens(const robopt::Dataset& lines);

/// WordCount's per-word counts (the `num` field) sum to `tokens`.
std::string CheckTokenCount(const robopt::Dataset& counts, uint64_t tokens);

/// A virtual cost is a finite number of seconds.
std::string CheckFiniteCost(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
