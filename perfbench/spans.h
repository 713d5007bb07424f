#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the benchmark process started.
int64_t NowNs();

/// One recorded layer-boundary span. `parent` indexes the enclosing span in
/// the recorder (-1 for a root); spans of one benchmark operation share
/// `op` (-1 for set-up spans). `count` carries the unit of work the call
/// did (rows scored, source rows read), 0 when the layer has none.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t op = -1;
  int64_t count = 0;
};

/// Durations and work counts of every span with one name.
struct SpanTotals {
  size_t spans = 0;
  double total_ns = 0.0;
  double count = 0.0;
  std::vector<double> durations_ns;
};

/// In-memory span recorder for the traced run. The benchmark drives the
/// program from one client thread and passes num_threads = 1 everywhere,
/// so spans nest strictly and one open-span stack suffices; the recorder is
/// not thread-safe. A null recorder records nothing — every Scope is then a
/// no-op, which is how the untraced run measures the program alone.
class SpanRecorder {
 public:
  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, int64_t count = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_count(int64_t count);

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  /// Operation id stamped on the spans opened from now on.
  void set_op(int64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  SpanTotals Totals(const char* name) const;
  /// Summed duration of `child` spans whose direct parent is a `parent`
  /// span — what a layer's self time subtracts.
  double ChildNs(const char* parent, const char* child) const;

  /// Writes the spans as Chrome trace_event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t op_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
