// soar-learn: the three paper tasks (eight-puzzle, strips, cypress) with
// learning on. One episode runs each task once on a fresh SoarKernel, in a
// seeded order; every episode is deterministic (same decisions, chunks and
// goal outcome). One operation is one decision. Decide/GC, chunk compile and
// the §5.2 update dominate; elaboration cycles are short.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "gen.h"
#include "soar/kernel.h"
#include "tasks/registry.h"

namespace perfbench {
namespace {

constexpr double kRoundsPerSecond = 2.0;  // one episode per pass per round

struct TaskOutcome {
  uint64_t decisions = 0;
  uint64_t chunks = 0;
  bool goal = false;
  friend bool operator==(const TaskOutcome&, const TaskOutcome&) = default;
};

struct Episode {
  std::vector<TaskOutcome> outcome;  // in run order
  double setup_s = 0;  // kernel construction + load + init, all tasks
  double run_s = 0;    // SoarKernel::run, all tasks
  double cpu_s = 0;    // process CPU over the runs
  uint64_t decisions = 0;
  std::vector<double> latency_ms;  // per decision
  // Layer figures (read from SoarRunStats and the engine after each run).
  double load_ms = 0;  // summed over the episode's kernels
  uint64_t elab_ns = 0, decide_ns = 0, gc_ns = 0, elab_cycles = 0;
  std::vector<double> chunk_ms;
  uint64_t cs_size = 0;
  uint64_t spill_allocs = 0, chunks_live = 0;
};

Episode run_episode(const std::vector<psme::Task>& tasks,
                    const std::vector<int>& order, size_t workers,
                    Ledger* ledger) {
  Episode ep;
  for (const int ti : order) {
    const psme::Task& task = tasks[static_cast<size_t>(ti)];
    psme::SoarOptions o;
    o.learning = true;
    o.max_decisions = task.max_decisions;
    o.match_workers = workers;
    o.engine.record_traces = false;

    const uint64_t t0 = now_ns();
    std::unique_ptr<psme::SoarKernel> k;
    {
      Scope s(ledger, "kernel.setup");
      k = std::make_unique<psme::SoarKernel>(o);
      const uint64_t l0 = now_ns();
      {
        Scope sl(ledger, "lang.load");
        k->load_productions(task.productions);
      }
      ep.load_ms += static_cast<double>(now_ns() - l0) / 1e6;
      Scope si(ledger, "task.init");
      task.init(*k);
    }
    uint64_t last = now_ns();
    ep.setup_s += static_cast<double>(last - t0) / 1e9;
    k->set_decision_listener([&ep, &last](psme::SoarKernel&) {
      const uint64_t t = now_ns();
      ep.latency_ms.push_back(static_cast<double>(t - last) / 1e6);
      last = t;
    });

    const double cpu0 = process_cpu_s();
    const uint64_t r0 = now_ns();
    psme::SoarRunStats st;
    {
      Scope s(ledger, "soar.run");
      st = k->run();
    }
    ep.run_s += static_cast<double>(now_ns() - r0) / 1e9;
    ep.cpu_s += process_cpu_s() - cpu0;

    Scope s(ledger, "kernel.teardown");
    ep.outcome.push_back({st.decisions, st.chunks_built, st.goal_achieved});
    ep.decisions += st.decisions;
    ep.elab_ns += st.elaborate_ns;
    ep.decide_ns += st.decide_ns;
    ep.gc_ns += st.gc_ns;
    ep.elab_cycles += st.elab_cycles;
    for (const auto& c : st.chunk_costs) ep.chunk_ms.push_back(c.compile_seconds * 1e3);
    ep.cs_size += k->engine().cs().size();
    const psme::MatchStats arena = k->engine().state().arena.stats();
    ep.spill_allocs += arena.spill_allocs;
    ep.chunks_live = std::max(ep.chunks_live, arena.chunks_live);
    k.reset();  // joins the kernel's match workers
  }
  return ep;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

}  // namespace

Report run_soar_learn(const Args& args) {
  std::vector<psme::Task> tasks;
  for (const std::string& name : psme::task_names()) tasks.push_back(psme::make_task(name));

  Report r;
  EndToEnd e2e;
  const int rounds = work_units(args, kRoundsPerSecond, 4);
  const int untraced_rounds = args.trace ? std::max(3, rounds / 2) : rounds;
  const int traced_rounds = args.trace ? std::max(3, rounds / 2) : 0;
  std::vector<double> serial_cpu, traced_tput;
  std::vector<Episode> traced;
  Ledger ledger(static_cast<size_t>(traced_rounds) * tasks.size() * 6 + 16);

  // Round 0 is warm-up; passes alternate who goes first.
  for (int round = 0; round <= untraced_rounds + traced_rounds; ++round) {
    const bool warm = round == 0;
    const bool is_traced = round > untraced_rounds;
    const std::vector<int> order = soar_task_order(args.seed, static_cast<uint64_t>(round));
    for (const int t : order) r.input_digest = mix(r.input_digest, static_cast<uint64_t>(t));

    Episode thr, ser;
    auto threaded = [&] {
      if (is_traced) ledger.window_begin();
      thr = run_episode(tasks, order, 2, is_traced ? &ledger : nullptr);
      if (is_traced) ledger.window_end();
    };
    if (round % 2 == 0) threaded();
    ser = run_episode(tasks, order, 0, nullptr);
    if (round % 2 != 0) threaded();

    // Warm-up is excluded from timing only; every round is checked.
    r.attempted += thr.decisions;
    for (size_t i = 0; i < order.size(); ++i) {
      if (!(thr.outcome[i] == ser.outcome[i])) r.failed += thr.outcome[i].decisions;
      if (!ser.outcome[i].goal) {
        r.fail("serial " + tasks[static_cast<size_t>(order[i])].name +
               " did not reach its goal");
      }
    }
    if (warm) continue;
    const double tput = static_cast<double>(thr.decisions) / thr.run_s;
    if (is_traced) {
      traced_tput.push_back(tput);
      traced.push_back(std::move(thr));
      continue;
    }
    e2e.round_throughput.push_back(tput);
    e2e.serial_round_throughput.push_back(static_cast<double>(ser.decisions) / ser.run_s);
    e2e.round_cpu_us_per_op.push_back(thr.cpu_s * 1e6 / static_cast<double>(thr.decisions));
    serial_cpu.push_back(ser.cpu_s * 1e6 / static_cast<double>(ser.decisions));
    e2e.round_latency_ms.push_back(std::move(thr.latency_ms));
    e2e.setup_s.push_back(thr.setup_s);
  }

  if (!args.trace) {
    report_end_to_end(r, e2e);
    return r;
  }

  double run_ns = 0, elab = 0, decide = 0, gc = 0, cycles = 0, decisions = 0,
         spill = 0, chunks_live = 0;
  std::vector<double> chunk_ms, load_ms;
  for (const Episode& ep : traced) {
    run_ns += ep.run_s * 1e9;
    elab += static_cast<double>(ep.elab_ns);
    decide += static_cast<double>(ep.decide_ns);
    gc += static_cast<double>(ep.gc_ns);
    cycles += static_cast<double>(ep.elab_cycles);
    decisions += static_cast<double>(ep.decisions);
    spill += static_cast<double>(ep.spill_allocs);
    chunks_live = std::max(chunks_live, static_cast<double>(ep.chunks_live));
    chunk_ms.insert(chunk_ms.end(), ep.chunk_ms.begin(), ep.chunk_ms.end());
    load_ms.push_back(ep.load_ms);
  }
  r.metric("engine.cs_size", static_cast<double>(traced.back().cs_size), "count");
  r.metric("par.spin_cpu_ratio", median(e2e.round_cpu_us_per_op) / median(serial_cpu),
           "ratio");
  r.metric("arena.spill_allocs_per_op", spill / decisions, "count");
  r.metric("arena.chunks_live", chunks_live, "count");
  r.metric("soar.elaborate_share", elab / run_ns, "ratio");
  r.metric("soar.decide_share", decide / run_ns, "ratio");
  r.metric("soar.gc_share", gc / run_ns, "ratio");
  r.metric("soar.elab_cycles_per_decision", cycles / decisions, "count");
  r.metric("soar.chunk_compile_ms", mean(chunk_ms), "ms");
  r.metric("lang.load_ms", median(load_ms), "ms");
  r.metric("obs.trace_overhead_pct",
           (median(e2e.round_throughput) / median(traced_tput) - 1.0) * 100.0, "%");
  r.metric("ledger.coverage", ledger.coverage(), "ratio");
  for (const auto& [name, ms] : ledger.self_ms()) r.note("self_ms." + name, ms, "ms");
  r.note("traced_window_s", ledger.window_s(), "s");
  const auto episodes = static_cast<double>(traced.size());
  r.note("chunks_per_episode", static_cast<double>(chunk_ms.size()) / episodes, "count");
  r.note("decisions_per_episode", decisions / episodes, "count");
  if (!args.trace_out.empty() && !ledger.write_chrome(args.trace_out)) {
    r.fail("cannot write " + args.trace_out);
  }
  return r;
}

}  // namespace perfbench
