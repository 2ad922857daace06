#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>

namespace perfbench {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void report_end_to_end(Report& r, const EndToEnd& e2e) {
  // Gated percentiles are the median over rounds of each round's
  // percentile, so a host stall that slows a few rounds moves them no more
  // than it moves the median throughput. The pooled distribution only feeds
  // the meta line: its size and the highest percentile with at least ten
  // samples beyond it (reported, never gated).
  std::vector<double> pooled, p50, p90;
  for (const std::vector<double>& round : e2e.round_latency_ms) {
    pooled.insert(pooled.end(), round.begin(), round.end());
    p50.push_back(quantile(round, 0.5));
    p90.push_back(quantile(round, 0.9));
  }
  const auto samples = static_cast<double>(pooled.size());
  const double top_pct = samples > 10 ? 100.0 * (1.0 - 10.0 / samples) : 0;
  const double success =
      r.attempted == 0 ? 0
                       : 1.0 - static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted);
  r.metric("throughput_per_s", median(e2e.round_throughput), "1/s");
  r.metric("latency_p50_ms", median(p50), "ms");
  r.metric("latency_p90_ms", median(p90), "ms");
  r.metric("serial_throughput_per_s", median(e2e.serial_round_throughput),
           "1/s");
  r.metric("cpu_us_per_op", median(e2e.round_cpu_us_per_op), "us");
  r.metric("setup_s", median(e2e.setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("success_ratio", success, "ratio");
  r.note("failed_ratio", 1.0 - success, "ratio");
  r.note("latency_samples", samples, "count");
  r.note("latency_top_pct", top_pct, "%");
  r.note("latency_top_ms", top_pct > 0 ? quantile(pooled, top_pct / 100.0) : 0, "ms");
  r.note("rounds", static_cast<double>(e2e.round_throughput.size()), "count");
  r.note("setup_samples", static_cast<double>(e2e.setup_s.size()), "count");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"engine.wm_update_us_per_op", "us"},
      {"engine.inject_share", "ratio"},
      {"engine.match_ms_per_cycle", "ms"},
      {"engine.cs_size", "count"},
      {"par.tasks_per_op", "count"},
      {"par.ns_per_task", "ns"},
      {"par.steal_success_ratio", "ratio"},
      {"par.failed_sweeps_per_cycle", "count"},
      {"par.parks_per_cycle", "count"},
      {"par.chain_inline_ratio", "ratio"},
      {"par.spin_cpu_ratio", "ratio"},
      {"par.scaling_4w", "ratio"},
      {"arena.spill_allocs_per_op", "count"},
      {"arena.chunks_live", "count"},
      {"soar.elaborate_share", "ratio"},
      {"soar.decide_share", "ratio"},
      {"soar.gc_share", "ratio"},
      {"soar.elab_cycles_per_decision", "count"},
      {"soar.chunk_compile_ms", "ms"},
      {"lang.load_ms", "ms"},
      {"query.begin_us", "us"},
      {"query.read_us", "us"},
      {"query.end_us", "us"},
      {"rete.node_ids_per_query", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"ledger.coverage", "ratio"},
  };
  return kAll;
}

void complete_per_layer(Report& r) {
  std::map<std::string, Metric> have;
  for (const Metric& m : r.metrics) have[m.name] = m;
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = have.find(name);
    if (it != have.end()) {
      ordered.push_back(it->second);
    } else {
      ordered.push_back({name, 0.0, unit});
      r.unexercised.push_back(name);
    }
  }
  r.metrics = std::move(ordered);
}

int work_units(const Args& args, double per_second, int min) {
  const int n = static_cast<int>(std::lround(per_second * args.seconds));
  return std::max(n, min);
}

// ---- Ledger -----------------------------------------------------------------

double Ledger::coverage() const {
  uint64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent && s.t1 >= s.t0) covered += s.t1 - s.t0;
  }
  return window_ns_ == 0 ? 0
                         : static_cast<double>(covered) /
                               static_cast<double>(window_ns_);
}

std::vector<std::pair<std::string, double>> Ledger::self_ms() const {
  std::vector<uint64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child[s.parent] += s.t1 - s.t0;
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_name[s.name] += static_cast<double>(s.t1 - s.t0 - child[i]) / 1e6;
  }
  return {by_name.begin(), by_name.end()};
}

bool Ledger::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(static_cast<int64_t>(s.t0 - origin)) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
