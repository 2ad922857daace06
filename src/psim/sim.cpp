#include "psim/sim.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

namespace psme {
namespace {

struct HeapItem {
  double push_time;
  uint32_t task;
  friend bool operator>(const HeapItem& a, const HeapItem& b) {
    if (a.push_time != b.push_time) return a.push_time > b.push_time;
    return a.task > b.task;  // deterministic tie-break
  }
};

using TaskHeap =
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

struct Proc {
  double t = 0;
  enum class Phase : uint8_t { TryPop, Push } phase = Phase::TryPop;
  uint32_t scan_k = 0;
  uint32_t task = 0;
  uint32_t child_i = 0;
};

}  // namespace

SimCycleResult simulate_cycle(const CycleTrace& trace, const SimOptions& opts,
                              bool record_timeline) {
  SimCycleResult res;
  const uint32_t n = static_cast<uint32_t>(trace.tasks.size());
  res.tasks = n;

  // Costs, bucket-line critical sections, and children lists.
  std::vector<double> cost(n);
  std::vector<double> line_hold(n, 0);  // critical-section length
  std::vector<uint32_t> line_of(n, UINT32_MAX);
  std::vector<std::vector<uint32_t>> children(n);
  std::vector<uint32_t> seeds;
  double serial_cost = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const TaskRecord& r = trace.tasks[i];
    cost[i] = opts.cost.task_cost(r);
    if (opts.model_line_locks && r.stats.line != UINT32_MAX) {
      line_of[i] = r.stats.line;
      line_hold[i] =
          std::min(cost[i], opts.cost.per_probe * r.stats.probes +
                                opts.cost.per_insert * r.stats.inserts);
    }
    serial_cost += cost[i];
    const uint32_t p = r.parent;
    if (p == UINT32_MAX) {
      seeds.push_back(i);
    } else {
      children[p].push_back(i);
    }
  }
  // Per-policy queue-operation costs: the locked policies pay a spinlock
  // critical section per push/pop/failed-pop; the work-stealing policy pays
  // a CAS, and a failed steal is a couple of loads.
  const bool stealing = opts.policy == QueuePolicy::Steal;
  const double op_hold = stealing ? opts.steal_hold_us : opts.queue_hold_us;
  const double miss_hold = stealing ? opts.steal_fail_us : opts.empty_hold_us;

  // Uniprocessor reference: all work serialized, plus uncontended queue
  // traffic (each task is pushed once and popped once) and one cycle
  // overhead.
  res.serial_us = serial_cost + 2.0 * op_hold * static_cast<double>(n) +
                  opts.overhead_at(1);
  if (n == 0) {
    res.makespan_us = opts.overhead_at(opts.processors);
    return res;
  }

  const uint32_t P = std::max<uint32_t>(1, opts.processors);
  const uint32_t nq = opts.policy == QueuePolicy::Single ? 1 : P;
  std::vector<TaskHeap> queues(nq);
  std::vector<double> lock_free(nq, 0.0);
  std::vector<Proc> procs(P);
  std::unordered_map<uint32_t, double> line_free;  // hash-line lock timeline
  double bucket_spin_us = 0;

  std::vector<std::pair<double, int>> tl_events;  // (+1 push, -1 completion)

  // Seeds land in the queues at time zero, round robin.
  for (uint32_t i = 0; i < seeds.size(); ++i) {
    queues[i % nq].push(HeapItem{0.0, seeds[i]});
    if (record_timeline) tl_events.emplace_back(0.0, +1);
  }

  double total_spin_us = 0;
  uint64_t completed = 0;
  double last_completion = 0;

  auto acquire = [&](uint32_t q, double t, double hold) -> double {
    const double start = std::max(t, lock_free[q]);
    total_spin_us += start - t;
    lock_free[q] = start + hold;
    return start + hold;
  };

  while (completed < n) {
    // Step the earliest processor (deterministic tie-break by index).
    uint32_t pi = 0;
    for (uint32_t i = 1; i < P; ++i) {
      if (procs[i].t < procs[pi].t) pi = i;
    }
    Proc& pr = procs[pi];

    if (pr.phase == Proc::Phase::Push) {
      const uint32_t child = children[pr.task][pr.child_i];
      const uint32_t q = opts.policy == QueuePolicy::Single ? 0 : pi;
      pr.t = acquire(q, pr.t, op_hold);
      queues[q].push(HeapItem{pr.t, child});
      if (record_timeline) tl_events.emplace_back(pr.t, +1);
      if (++pr.child_i >= children[pr.task].size()) {
        pr.phase = Proc::Phase::TryPop;
        pr.scan_k = 0;
      }
      continue;
    }

    // TryPop: look at one queue.
    const uint32_t q = opts.policy == QueuePolicy::Single
                           ? 0
                           : (pi + pr.scan_k) % nq;
    const double start = std::max(pr.t, lock_free[q]);
    const bool have =
        !queues[q].empty() && queues[q].top().push_time <= start;
    if (have) {
      total_spin_us += start - pr.t;
      lock_free[q] = start + op_hold;
      ++res.pops;
      const uint32_t task = queues[q].top().task;
      queues[q].pop();
      // Execute: [pre | line-locked critical section | post]. Activations
      // that hash to the same bucket line serialize on the line lock for
      // their insert+probe portion (P > 1 only; the uniprocessor never
      // waits on itself).
      double exec_end;
      const double exec_start = start + op_hold;
      if (P > 1 && line_of[task] != UINT32_MAX && line_hold[task] > 0) {
        const double pre = (cost[task] - line_hold[task]) * 0.5;
        double& lf = line_free[line_of[task]];
        const double want = exec_start + pre;
        const double acq = std::max(want, lf);
        bucket_spin_us += acq - want;
        lf = acq + line_hold[task];
        exec_end = acq + line_hold[task] + (cost[task] - line_hold[task]) - pre;
      } else {
        exec_end = exec_start + cost[task];
      }
      pr.t = exec_end;
      ++completed;
      last_completion = std::max(last_completion, pr.t);
      if (record_timeline) tl_events.emplace_back(pr.t, -1);
      if (!children[task].empty()) {
        pr.phase = Proc::Phase::Push;
        pr.task = task;
        pr.child_i = 0;
      } else {
        pr.scan_k = 0;
      }
    } else if (stealing) {
      // Failed steal: a couple of loads — nothing is locked, the victim's
      // queue timeline is untouched, and no other process is delayed.
      pr.t += miss_hold;
      ++res.failed_pops;
      const uint32_t scan_len = nq;
      if (++pr.scan_k >= scan_len) {
        pr.scan_k = 0;
        pr.t += opts.poll_interval_us;  // spin-then-park backoff
      }
    } else {
      // Failed pop: lock, see empty (or only not-yet-pushed tasks), unlock.
      total_spin_us += start - pr.t;
      lock_free[q] = start + miss_hold;
      pr.t = start + miss_hold;
      ++res.failed_pops;
      const uint32_t scan_len = opts.policy == QueuePolicy::Single ? 1 : nq;
      if (++pr.scan_k >= scan_len) {
        pr.scan_k = 0;
        pr.t += opts.poll_interval_us;  // back off before the next round
      }
    }
  }

  res.makespan_us = last_completion + opts.overhead_at(opts.processors);
  res.spins = static_cast<uint64_t>(total_spin_us / opts.spin_us);
  res.bucket_spins = static_cast<uint64_t>(bucket_spin_us / opts.spin_us);

  if (record_timeline) {
    std::sort(tl_events.begin(), tl_events.end());
    int32_t level = 0;
    res.timeline.reserve(tl_events.size());
    for (const auto& [t, d] : tl_events) {
      level += d;
      res.timeline.emplace_back(t, static_cast<uint32_t>(std::max(0, level)));
    }
  }
  return res;
}

SimRunResult simulate_run(const std::vector<CycleTrace>& traces,
                          const SimOptions& opts, bool keep_cycles) {
  SimRunResult run;
  for (const CycleTrace& t : traces) {
    SimCycleResult c = simulate_cycle(t, opts);
    run.serial_us += c.serial_us;
    run.parallel_us += c.makespan_us;
    run.tasks += c.tasks;
    run.spins += c.spins;
    run.bucket_spins += c.bucket_spins;
    run.failed_pops += c.failed_pops;
    run.pops += c.pops;
    if (keep_cycles) run.cycles.push_back(std::move(c));
  }
  return run;
}

}  // namespace psme
