#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

bool SameName(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           int64_t count)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.op = recorder_->op_;
  span.count = count;
  index_ = static_cast<int32_t>(recorder_->spans_.size());
  recorder_->spans_.push_back(span);
  recorder_->open_.push_back(index_);
  recorder_->spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  recorder_->open_.pop_back();
}

void SpanRecorder::Scope::set_count(int64_t count) {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<size_t>(index_)].count = count;
}

SpanTotals SpanRecorder::Totals(const char* name) const {
  SpanTotals totals;
  for (const Span& span : spans_) {
    if (!SameName(span.name, name)) continue;
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    ++totals.spans;
    totals.total_ns += ns;
    totals.count += static_cast<double>(span.count);
    totals.durations_ns.push_back(ns);
  }
  return totals;
}

double SpanRecorder::ChildNs(const char* parent, const char* child) const {
  double ns = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0 || !SameName(span.name, child)) continue;
    if (!SameName(spans_[static_cast<size_t>(span.parent)].name, parent)) {
      continue;
    }
    ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  return ns;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld,\"count\":%lld}}\n",
                 i == 0 ? "" : ",", span.name, span.start_ns / 1e3,
                 (span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 static_cast<long long>(span.op),
                 static_cast<long long>(span.count));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
