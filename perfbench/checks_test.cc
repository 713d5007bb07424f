// Every correctness check of the benchmark is handed a wrong value and must
// reject it: a swapped operator alternative, a perturbed predicted cost, a
// dropped or altered output row, an off-by-one token count and a
// non-finite cost. Each test also shows the check accepting the right
// value, so a check that rejects everything fails too.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "checks.h"
#include "common.h"
#include "core/linear_oracle.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "workloads/datagen.h"
#include "workloads/queries.h"

namespace perfbench {
namespace {

using robopt::Dataset;
using robopt::ExecutionPlan;
using robopt::LogicalPlan;

class ChecksTest : public ::testing::Test {
 protected:
  ChecksTest()
      : registry_(robopt::PlatformRegistry::Default(kPlatforms)),
        schema_(&registry_),
        cost_(&registry_),
        oracle_(schema_, 5),
        plan_(robopt::MakeWordCountPlan(1.0)) {
    robopt::RegisterWorkloadKernels();
  }

  /// A real optimizer decision for plan_ under the linear oracle.
  robopt::OptimizeResult Optimize() {
    const robopt::RoboptOptimizer optimizer(&registry_, &schema_, &oracle_);
    robopt::OptimizeOptions options;
    options.num_threads = 1;
    auto result = optimizer.Optimize(plan_, nullptr, options);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }

  /// `assignment` with operator `op` moved to another alternative.
  std::vector<int16_t> Swapped(std::vector<int16_t> assignment, size_t* op) {
    for (size_t id = 0; id < assignment.size(); ++id) {
      const auto& alts = registry_.AlternativesFor(
          plan_.op(static_cast<robopt::OperatorId>(id)).kind);
      if (alts.size() > 1) {
        assignment[id] = static_cast<int16_t>((assignment[id] + 1) %
                                              static_cast<int>(alts.size()));
        *op = id;
        return assignment;
      }
    }
    ADD_FAILURE() << "no operator with a second alternative";
    return assignment;
  }

  robopt::PlatformRegistry registry_;
  robopt::FeatureSchema schema_;
  robopt::VirtualCost cost_;
  robopt::LinearFeatureOracle oracle_;
  LogicalPlan plan_;
};

TEST_F(ChecksTest, PlanValidRejectsAnUnassignedOperator) {
  const robopt::OptimizeResult result = Optimize();
  EXPECT_EQ(CheckPlanValid(result.plan), "");
  ExecutionPlan partial(&plan_, &registry_);
  for (int id = 1; id < plan_.num_operators(); ++id) {
    partial.Assign(static_cast<robopt::OperatorId>(id),
                   result.plan.alt_index(static_cast<robopt::OperatorId>(id)));
  }
  EXPECT_NE(CheckPlanValid(partial), "");
}

TEST_F(ChecksTest, ReencodedCostRejectsPerturbedCostAndSwappedAlternative) {
  const robopt::OptimizeResult result = Optimize();
  auto ctx = robopt::EnumerationContext::Make(&plan_, &registry_, &schema_);
  ASSERT_TRUE(ctx.ok());
  const std::vector<int16_t> assignment = AssignmentOf(result.plan);
  EXPECT_EQ(CheckReencodedCost(*ctx, oracle_, assignment,
                               result.predicted_runtime_s),
            "");
  const float perturbed = std::nextafter(
      result.predicted_runtime_s, std::numeric_limits<float>::infinity());
  EXPECT_NE(CheckReencodedCost(*ctx, oracle_, assignment, perturbed), "");
  size_t op = 0;
  EXPECT_NE(CheckReencodedCost(*ctx, oracle_, Swapped(assignment, &op),
                               result.predicted_runtime_s),
            "");
  std::vector<int16_t> unassigned = assignment;
  unassigned[0] = -1;
  EXPECT_NE(CheckReencodedCost(*ctx, oracle_, unassigned,
                               result.predicted_runtime_s),
            "");
}

TEST_F(ChecksTest, SameDecisionRejectsSwappedAlternativeAndPerturbedCost) {
  const robopt::OptimizeResult result = Optimize();
  const std::vector<int16_t> assignment = AssignmentOf(result.plan);
  const float cost = result.predicted_runtime_s;
  EXPECT_EQ(CheckSameDecision(assignment, cost, assignment, cost), "");
  size_t op = 0;
  const std::vector<int16_t> swapped = Swapped(assignment, &op);
  EXPECT_NE(CheckSameDecision(swapped, cost, assignment, cost), "");
  EXPECT_NE(CheckSameDecision(assignment, cost * 1.001f, assignment, cost),
            "");
  EXPECT_NE(CheckSameDecision({assignment.begin(), assignment.end() - 1},
                              cost, assignment, cost),
            "");
}

TEST(CheckRowsTest, RejectsDroppedAndAlteredRows) {
  const Dataset want = robopt::GenerateTransactions(50, 50, 3);
  Dataset shuffled = want;
  std::swap(shuffled.rows.front(), shuffled.rows.back());
  EXPECT_EQ(CheckSameRows(shuffled, want), "");

  Dataset dropped = want;
  dropped.rows.pop_back();
  EXPECT_NE(CheckSameRows(dropped, want), "");

  Dataset altered = want;
  altered.rows[7].num += 1.0;
  EXPECT_NE(CheckSameRows(altered, want), "");
  altered = want;
  altered.rows[7].key += 1;
  EXPECT_NE(CheckSameRows(altered, want), "");
  altered = want;
  altered.rows[7].text += "x";
  EXPECT_NE(CheckSameRows(altered, want), "");

  // Same size, one row replaced by a duplicate of another: a multiset
  // mismatch that a set comparison would miss.
  Dataset duplicated = want;
  duplicated.rows[1] = duplicated.rows[0];
  EXPECT_NE(CheckSameRows(duplicated, want), "");
}

TEST(CheckTokensTest, CountsSpaceSeparatedTokens) {
  Dataset lines;
  lines.rows.resize(3);
  lines.rows[0].text = "a  bb c";
  lines.rows[1].text = " lead trail ";
  lines.rows[2].text = "";
  EXPECT_EQ(CountTokens(lines), 5u);
}

TEST_F(ChecksTest, TokenCountRejectsOffByOne) {
  const LogicalPlan plan = robopt::MakeWordCountPlan(0.0001);
  robopt::DataCatalog catalog;
  const Dataset text = robopt::GenerateTextLines(
      plan.op(plan.SourceIds()[0]).source_cardinality, 500, 11);
  catalog.Bind(plan.SourceIds()[0], text);
  ExecutionPlan java(&plan, &registry_);
  for (const robopt::LogicalOperator& op : plan.operators()) {
    java.Assign(op.id, 0);
  }
  const robopt::Executor executor(&registry_, &cost_);
  auto run = executor.Execute(java, catalog);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const uint64_t tokens = CountTokens(text);
  ASSERT_GT(tokens, 0u);
  EXPECT_EQ(CheckTokenCount(run->output, tokens), "");
  EXPECT_NE(CheckTokenCount(run->output, tokens + 1), "");
  EXPECT_NE(CheckTokenCount(run->output, tokens - 1), "");
  Dataset dropped = run->output;
  dropped.rows.pop_back();
  EXPECT_NE(CheckTokenCount(dropped, tokens), "");
}

TEST(CheckFiniteTest, RejectsInfiniteAndNan) {
  EXPECT_EQ(CheckFiniteCost(12.5), "");
  EXPECT_NE(CheckFiniteCost(std::numeric_limits<double>::infinity()), "");
  EXPECT_NE(CheckFiniteCost(std::numeric_limits<double>::quiet_NaN()), "");
}

}  // namespace
}  // namespace perfbench
