// Serial executor and task-trace recorder.
//
// This is the reference executor: it drains node activations in FIFO order
// (like PSM-E's shared task queue, minus the other processes) and records,
// for every task, which task spawned it and how much raw work it did. That
// trace is the exact task DAG of the cycle; the virtual multiprocessor
// (src/psim) schedules it on P processors to produce the paper's speedup
// figures, and the threaded matcher's results are checked against this
// executor's for equivalence.
#pragma once

#include <cstdint>
#include <vector>

#include "base/ring.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "rete/network.h"

namespace psme {

struct TaskRecord {
  uint32_t parent = UINT32_MAX;  // index of the spawning task; UINT32_MAX = seed
  uint32_t node = 0;
  NodeType type = NodeType::Const;
  Side side = Side::Left;
  bool add = true;
  TaskStats stats;
};

struct CycleTrace {
  std::vector<TaskRecord> tasks;

  [[nodiscard]] size_t task_count() const { return tasks.size(); }

  /// Appends another trace's tasks (parents re-based); used to merge the
  /// update phases that may run concurrently.
  void append(CycleTrace&& other);
};

/// One hash line's accesses within a trace, split by bucket side.
struct LineAccess {
  uint32_t line = 0;
  uint32_t left = 0;
  uint32_t right = 0;
};

/// The per-line access counts of `trace` (the Figure 6-2 contention data),
/// derived from its task records: every task that locked a line names it in
/// TaskStats::line. Lines ascend; untouched lines are omitted.
std::vector<LineAccess> line_accesses(const CycleTrace& trace);

class TraceExecutor final : public ExecContext {
 public:
  TraceExecutor(Network& net, MatchState& ms, bool record_tasks = true)
      : net_(net), record_(record_tasks) {
    state = &ms;
  }

  void emit(Activation&& a) override;

  /// Drains `seeds` and everything they spawn; returns the recorded trace
  /// (empty task list when recording is off — task_count is still correct
  /// via executed()). A non-null `filter` applies the §5.2 task filter for
  /// the drain (a run_update_phases phase). Each drain is one token-arena
  /// epoch (begin_drain/reclaim_at_quiescence), like
  /// ParallelMatcher::run_cycle. Seeds are consumed but the vector's
  /// capacity stays with the caller. With recording off, a whole drain is
  /// heap-free once the ring and scratch buffers have reached their
  /// high-water capacity — Engine holds one TraceExecutor across all cycles
  /// and run-time additions for exactly this.
  CycleTrace run_to_quiescence(std::vector<Activation>& seeds,
                               const UpdateFilter* filter = nullptr);

  [[nodiscard]] uint64_t executed() const { return executed_; }

  /// Attaches an event ring (obs layer): every executed task additionally
  /// records a TaskExec span into `tracer`'s ring `track`. Orthogonal to
  /// the CycleTrace recording — task spans are fixed-size and drop on ring
  /// overflow, so they stay allocation-free where CycleTrace cannot.
  void set_tracer(obs::Tracer* tracer, size_t track) {
    tracer_ = tracer;
    track_ = static_cast<uint32_t>(track);
  }

  /// Attaches a match profiler (obs/profiler.h): every executed task is
  /// folded into shard 0 — the engine thread's shard, which a co-owned
  /// ParallelMatcher only writes while this executor is idle. Shards grow
  /// at the top of each drain, so profiled serial cycles stay heap-free at
  /// steady state like the traced ones.
  void set_profiler(obs::MatchProfiler* profiler) { profiler_ = profiler; }

 private:
  // std::pair is not trivially copyable in libstdc++ (its operator= is
  // user-provided), so the FIFO ring carries this explicit POD instead.
  struct QueuedTask {
    Activation act;
    uint32_t parent = UINT32_MAX;
  };
  static_assert(std::is_trivially_copyable_v<QueuedTask>);

  Network& net_;
  bool record_;
  obs::Tracer* tracer_ = nullptr;  // null = no task spans
  obs::MatchProfiler* profiler_ = nullptr;  // null = profiling off
  uint32_t track_ = 0;
  uint64_t executed_ = 0;
  uint32_t current_parent_ = UINT32_MAX;
  RingBuffer<QueuedTask> queue_;
  CycleTrace trace_;
};

}  // namespace psme
