#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

namespace perfbench {
namespace {

std::string Format(const char* format, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

bool RowLess(const robopt::Record& a, const robopt::Record& b) {
  return std::tie(a.key, a.num, a.text, a.vec) <
         std::tie(b.key, b.num, b.text, b.vec);
}

bool RowEqual(const robopt::Record& a, const robopt::Record& b) {
  return a.key == b.key && a.num == b.num && a.text == b.text &&
         a.vec == b.vec;
}

}  // namespace

std::string CheckPlanValid(const robopt::ExecutionPlan& plan) {
  const robopt::Status status = plan.Validate();
  return status.ok() ? "" : "invalid plan: " + status.ToString();
}

std::string CheckReencodedCost(const robopt::EnumerationContext& ctx,
                               const robopt::CostOracle& oracle,
                               const std::vector<int16_t>& assignment,
                               float predicted) {
  if (static_cast<int>(assignment.size()) != ctx.plan->num_operators()) {
    return "assignment covers " + std::to_string(assignment.size()) +
           " of " + std::to_string(ctx.plan->num_operators()) + " operators";
  }
  std::vector<uint8_t> bytes(assignment.size());
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] < 0) return "operator " + std::to_string(i) +
                                  " is unassigned";
    bytes[i] = static_cast<uint8_t>(assignment[i] + 1);
  }
  const std::vector<float> row = robopt::EncodeAssignment(ctx, bytes.data());
  float rescored = 0.0f;
  oracle.EstimateBatch(row.data(), 1, row.size(), &rescored);
  if (rescored != predicted) {
    return Format("re-encoded plan scores %.9g s, optimizer reported %.9g s",
                  rescored, predicted);
  }
  return "";
}

std::string CheckSameDecision(const std::vector<int16_t>& got,
                              float got_cost,
                              const std::vector<int16_t>& want,
                              float want_cost) {
  if (got.size() != want.size()) {
    return "assignment sizes differ: " + std::to_string(got.size()) +
           " vs " + std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "operator " + std::to_string(i) + " got alternative " +
             std::to_string(got[i]) + ", reference chose " +
             std::to_string(want[i]);
    }
  }
  if (got_cost != want_cost) {
    return Format("predicted cost %.9g s, reference %.9g s", got_cost,
                  want_cost);
  }
  return "";
}

std::string CheckSameRows(const robopt::Dataset& got,
                          const robopt::Dataset& want) {
  if (got.rows.size() != want.rows.size()) {
    return "output has " + std::to_string(got.rows.size()) +
           " rows, reference has " + std::to_string(want.rows.size());
  }
  std::vector<robopt::Record> a = got.rows;
  std::vector<robopt::Record> b = want.rows;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowEqual(a[i], b[i])) {
      return "sorted row " + std::to_string(i) + " differs (key " +
             std::to_string(a[i].key) + " vs " + std::to_string(b[i].key) +
             ")";
    }
  }
  return "";
}

uint64_t CountTokens(const robopt::Dataset& lines) {
  uint64_t tokens = 0;
  for (const robopt::Record& line : lines.rows) {
    bool in_token = false;
    for (char c : line.text) {
      if (c == ' ') {
        in_token = false;
      } else if (!in_token) {
        in_token = true;
        ++tokens;
      }
    }
  }
  return tokens;
}

std::string CheckTokenCount(const robopt::Dataset& counts, uint64_t tokens) {
  double sum = 0.0;
  for (const robopt::Record& row : counts.rows) sum += row.num;
  if (sum != static_cast<double>(tokens)) {
    return Format("word counts sum to %.0f, the input holds %.0f tokens", sum,
                  static_cast<double>(tokens));
  }
  return "";
}

std::string CheckFiniteCost(double seconds) {
  if (std::isfinite(seconds)) return "";
  return "virtual cost is not finite (" + std::to_string(seconds) + " s)";
}

}  // namespace perfbench
