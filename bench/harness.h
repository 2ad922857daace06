// Shared benchmark harness: runs the paper's three Soar systems in the three
// regimes (without chunking / during chunking / after chunking), collects the
// per-cycle task traces, and provides the virtual-multiprocessor sweeps that
// regenerate the paper's tables and figures.
//
// Every bench binary prints the paper's reported values next to the measured
// ones; EXPERIMENTS.md records the comparison.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "psim/report.h"
#include "psim/sim.h"
#include "tasks/registry.h"

namespace psme::bench {

struct TaskData {
  std::string name;
  Task task;
  TaskRunResult nolearn;   // without chunking
  TaskRunResult during;    // during chunking (learning on)
  TaskRunResult after;     // after chunking (chunks preloaded, learning off)
};

/// Runs one task in all three regimes.
inline TaskData collect(const std::string& name) {
  TaskData d;
  d.name = name;
  d.task = make_task(name);
  d.nolearn = run_task(d.task, /*learning=*/false);
  d.during = run_task(d.task, /*learning=*/true);
  d.after = run_task(d.task, /*learning=*/false, &d.during.stats.chunk_texts);
  return d;
}

/// Runs all three paper tasks.
inline std::vector<TaskData> collect_all() {
  std::vector<TaskData> out;
  for (const auto& name : task_names()) out.push_back(collect(name));
  return out;
}

/// Uniprocessor virtual time of a run, in seconds (Encore-equivalent).
inline double uniproc_seconds(const std::vector<CycleTrace>& traces,
                              const SimOptions& opts) {
  SimOptions uni = opts;
  uni.processors = 1;
  return simulate_run(traces, uni).parallel_us / 1e6;
}

/// Speedup of a run at P processors relative to the 1-processor simulation.
inline double speedup_at(const std::vector<CycleTrace>& traces, uint32_t procs,
                         QueuePolicy policy, const SimOptions& base = {}) {
  SimOptions opts = base;
  opts.policy = policy;
  opts.processors = procs;
  const double uni = uniproc_seconds(traces, opts) * 1e6;
  const double par = simulate_run(traces, opts).parallel_us;
  return par > 0 ? uni / par : 1.0;
}

/// The paper's X axis: match process counts 1..13.
inline std::vector<uint32_t> process_counts() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
}

inline void print_header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline uint64_t total_tasks(const std::vector<CycleTrace>& traces) {
  uint64_t n = 0;
  for (const auto& t : traces) n += t.task_count();
  return n;
}

}  // namespace psme::bench
