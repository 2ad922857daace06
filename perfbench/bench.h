// Shared pieces of the psme benchmark program: arguments, clocks, the result
// report, and the caller-thread span ledger of the traced pass.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced pass writes its spans
};

// ---- clocks and resources -------------------------------------------------

uint64_t now_ns();        // steady clock
double process_cpu_s();   // all threads of this process
double thread_cpu_s();    // the calling thread only
double peak_rss_mb();

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// ---- the report -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;               // oracle-independent checks
  std::vector<std::string> problems;   // why checks_ok is false
  std::vector<Metric> metrics;         // printed in the final JSON line
  std::vector<Metric> info;            // printed in the meta line only
  std::vector<std::string> unexercised;  // per-layer metrics reported as 0
  uint64_t input_digest = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    checks_ok = false;
    problems.push_back(why);
  }
};

/// Adds the end-to-end metrics every workload reports, from its threaded
/// and serial pass figures.
struct EndToEnd {
  std::vector<double> round_throughput;         // threaded, ops/s per round
  std::vector<double> serial_round_throughput;  // serial, ops/s per round
  std::vector<double> round_cpu_us_per_op;      // threaded, per round
  std::vector<std::vector<double>> round_latency_ms;  // threaded, per op
  std::vector<double> setup_s;                  // fresh constructions
};
void report_end_to_end(Report& r, const EndToEnd& e2e);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Adds 0 for every per-layer metric the workload did not report and lists
/// it in Report::unexercised; orders the metrics like per_layer_metrics().
void complete_per_layer(Report& r);

// ---- the span ledger ------------------------------------------------------

/// Caller-thread spans of the traced pass. Spans live in a vector reserved
/// up front (no allocation while tracing) and are written out at exit.
class Ledger {
 public:
  struct Span {
    const char* name;
    uint32_t parent;  // index of the enclosing span, kNoParent at top level
    uint64_t t0, t1;
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Ledger(size_t reserve) { spans_.reserve(reserve); }

  uint32_t begin(const char* name) {
    const auto id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({name, open_, now_ns(), 0});
    open_ = id;
    return id;
  }
  void end(uint32_t id) {
    spans_[id].t1 = now_ns();
    open_ = spans_[id].parent;
  }

  /// Opens / closes one segment of the traced window the coverage is
  /// measured against; the window is the sum of its segments. Spans belong
  /// inside segments.
  void window_begin() { seg0_ = now_ns(); }
  void window_end() { window_ns_ += now_ns() - seg0_; }
  [[nodiscard]] double window_s() const { return window_ns_ / 1e9; }

  /// Share of the traced window covered by top-level spans.
  [[nodiscard]] double coverage() const;
  /// Self time (duration minus child spans) per span name, in ms.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms() const;
  /// Chrome trace-event JSON (Perfetto-loadable); returns false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = kNoParent;
  uint64_t seg0_ = 0;
  uint64_t window_ns_ = 0;
};

/// RAII span that is a no-op when the ledger is null (untraced passes).
class Scope {
 public:
  Scope(Ledger* l, const char* name)
      : l_(l), id_(l != nullptr ? l->begin(name) : 0) {}
  ~Scope() {
    if (l_ != nullptr) l_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* l_;
  uint32_t id_;
};

// ---- workloads ------------------------------------------------------------

Report run_wave(const Args& args, bool skewed);
Report run_soar_learn(const Args& args);
Report run_query_churn(const Args& args);

/// Sizes a fixed-work run: `per_second` units of work per requested second
/// (calibrated on the reference host, see README.md), at least `min`. The
/// count depends only on --seconds, never on a clock.
int work_units(const Args& args, double per_second, int min);

}  // namespace perfbench
