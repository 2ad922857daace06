// psme benchmark program.
//
//   psme_bench --workload <wave-wide|wave-skewed|soar-learn|query-churn>
//              --seed <n> --seconds <n> --trace <0|1> [--trace-out <path>]
//
// Each workload runs a threaded pass (2 Steal workers) and a serial pass
// (the correctness oracle) on identical seeded inputs, alternating round by
// round. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs an extra traced pass and prints the per-layer metrics. Output on
// stdout: one meta line (host, build, notes), then the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status 0 only when every threaded result matched the serial oracle
// and every check held.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "par/lock_order.h"

namespace {

using perfbench::Args;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psme_bench: %s\nusage: psme_bench --workload "
               "<wave-wide|wave-skewed|soar-learn|query-churn> --seed <n> "
               "--seconds <n> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const char* k = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 600) usage("bad --seconds");
    } else if (std::strcmp(k, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      a.trace = v[0] == '1';
    } else if (std::strcmp(k, "--trace-out") == 0) {
      a.trace_out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// JSON string escaping for the few free-text fields we print.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_meta(const Args& a, const Report& r) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::string s = "{\"meta\": {";
  s += "\"workload\": " + quote(a.workload);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"seconds\": " + std::to_string(a.seconds);
  s += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  s += ", \"host\": " + quote(host);
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": " + quote(PSME_BENCH_COMPILER);
  s += ", \"build_type\": " + quote(PSME_BENCH_BUILD_TYPE);
  s += ", \"psme_lockdep\": " + std::to_string(PSME_LOCKDEP);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  s += ", \"input_digest\": " + quote(digest);
  s += ", \"info\": {";
  for (size_t i = 0; i < r.info.size(); ++i) {
    s += (i ? ", " : "") + quote(r.info[i].name) + ": {\"value\": " +
         number(r.info[i].value) + ", \"unit\": " + quote(r.info[i].unit) + "}";
  }
  s += "}, \"unexercised\": [";
  for (size_t i = 0; i < r.unexercised.size(); ++i) {
    s += (i ? ", " : "") + quote(r.unexercised[i]);
  }
  s += "], \"problems\": [";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    s += (i ? ", " : "") + quote(r.problems[i]);
  }
  s += "]}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report r;
  if (args.workload == "wave-wide") {
    r = perfbench::run_wave(args, /*skewed=*/false);
  } else if (args.workload == "wave-skewed") {
    r = perfbench::run_wave(args, /*skewed=*/true);
  } else if (args.workload == "soar-learn") {
    r = perfbench::run_soar_learn(args);
  } else if (args.workload == "query-churn") {
    r = perfbench::run_query_churn(args);
  } else {
    usage("unknown workload");
  }

  if (args.trace) {
    perfbench::complete_per_layer(r);
    for (const perfbench::Metric& m : r.metrics) {
      if (m.name == "ledger.coverage" && m.value < 0.95) {
        r.fail("ledger.coverage " + number(m.value) +
               " < 0.95: caller-thread spans miss part of the traced wall");
      }
    }
  }
  for (perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  if (r.failed != 0) r.problems.push_back("threaded results differ from the serial oracle");
  for (const std::string& p : r.problems) std::fprintf(stderr, "psme_bench: FAIL: %s\n", p.c_str());

  const bool correct = r.checks_ok && r.failed == 0 && r.attempted > 0;
  print_meta(args, r);
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    s += (i ? ", " : "") + quote(r.metrics[i].name) + ": {\"value\": " +
         number(r.metrics[i].value) + ", \"unit\": " + quote(r.metrics[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  return correct ? 0 : 1;
}
