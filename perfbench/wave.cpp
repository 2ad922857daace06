// wave-wide and wave-skewed: a sliding window of WME waves. Every cycle
// retracts the oldest wave and asserts a new one, then runs Engine::match(),
// so WM size and per-cycle work stay constant and the delete path runs beside
// the add path. One operation is one WME change.
//
// wave-wide draws join keys from 65521 values (16x the live `a` wmes) over
// j2/j3/neg plus a 4-CE chain: many small independent activations, light
// conflict-set traffic.
// wave-skewed uses bench_scheduler's four productions (with the key-free
// `cross`) and keys mod 7: a few hot hash lines and heavy CS insert/retract.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "gen.h"

namespace perfbench {
namespace {

using psme::Engine;
using psme::EngineOptions;
using psme::ParallelStats;
using psme::Symbol;
using psme::Value;
using psme::Wme;

struct Shape {
  const char* productions;
  WaveShape wave;
  int window;            // waves live at once
  int cycles_per_round;  // one round = this many cycles per pass
  double rounds_per_second;
};

const Shape kWide = {
    "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
    "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
    "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
    "(p chain4 (a ^v <x> ^w <y>) (b ^v <x>) (c ^v <y> ^w <z>) (d ^v <z>) "
    "--> (halt))",
    {512, 65521, true},
    8,
    48,
    3.0,
};

const Shape kSkewed = {
    "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
    "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
    "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
    "(p cross (a ^v <x>) (c ^w <y>) --> (halt))",
    {24, 7, false, true},
    8,
    32,
    1.65,
};

constexpr int kWarmRounds = 3;

constexpr const char* kClassNames[kWaveClasses] = {"a", "b", "c", "d",
                                                   "blocker"};

/// One engine under the wave stream, with its live window of wme handles.
class WaveEngine {
 public:
  WaveEngine(const Shape& shape, size_t workers) {
    EngineOptions o;
    o.match_workers = workers;
    o.match_policy = psme::TaskQueueSet::Policy::Steal;
    o.record_traces = false;
    e_ = std::make_unique<Engine>(o);
    const Symbol v = e_->syms().intern("v");
    const Symbol w = e_->syms().intern("w");
    for (int c = 0; c < kWaveClasses; ++c) {
      cls_[c] = e_->syms().intern(kClassNames[c]);
      slot_v_[c] = e_->schemas().slot(cls_[c], v);
      slot_w_[c] = (c == kA || c == kC) ? e_->schemas().slot(cls_[c], w) : -1;
    }
    const uint64_t t0 = now_ns();
    e_->load(shape.productions);
    load_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
    for (int c = 0; c < kWaveClasses; ++c) {
      vals_[c].assign(static_cast<size_t>(e_->schemas().arity(cls_[c])),
                      Value());
    }
  }

  Engine& engine() { return *e_; }
  [[nodiscard]] double load_ms() const { return load_ms_; }

  /// Asserts `wave` without matching (window fill at set-up).
  void assert_wave(const std::vector<WmeSpec>& wave) {
    std::vector<const Wme*> hs;
    hs.reserve(wave.size());
    for (const WmeSpec& s : wave) hs.push_back(add(s));
    live_.push_back(std::move(hs));
  }

  struct CycleTimes {
    uint64_t wm_ns = 0, match_ns = 0;
  };

  /// The timed cycle: retract the oldest wave, assert `wave`, match.
  CycleTimes cycle(const std::vector<WmeSpec>& wave, Ledger* ledger) {
    CycleTimes t;
    const uint64_t t0 = now_ns();
    {
      Scope s(ledger, "engine.wm_update");
      std::vector<const Wme*> hs = std::move(live_.front());
      live_.pop_front();
      for (const Wme* w : hs) e_->remove_wme(w);
      hs.clear();
      for (const WmeSpec& spec : wave) hs.push_back(add(spec));
      live_.push_back(std::move(hs));
    }
    const uint64_t t1 = now_ns();
    {
      Scope s(ledger, "engine.match");
      e_->match();
    }
    t.wm_ns = t1 - t0;
    t.match_ns = now_ns() - t1;
    return t;
  }

  /// Conflict-set size plus an order-independent content hash (production
  /// name and wme contents, never addresses or timetags).
  std::pair<size_t, uint64_t> digest() {
    const std::vector<const psme::Instantiation*> all = e_->cs().all();
    uint64_t sum = 0, x = 0;
    for (const psme::Instantiation* inst : all) {
      uint64_t h = prod_hash(inst->pnode);
      for (const Wme* w : inst->token) h = mix(h, w == nullptr ? 0 : wme_hash(*w));
      sum += h;
      x ^= mix(h, 1);
    }
    return {all.size(), mix(sum, x)};
  }

 private:
  const Wme* add(const WmeSpec& s) {
    std::vector<Value>& vals = vals_[s.cls];
    vals[static_cast<size_t>(slot_v_[s.cls])] = Value(s.v);
    if (slot_w_[s.cls] >= 0) vals[static_cast<size_t>(slot_w_[s.cls])] = Value(s.w);
    return e_->add_wme(cls_[s.cls], vals.data(), vals.size());
  }

  uint64_t prod_hash(const psme::ProdNode* p) {
    auto it = prod_hash_.find(p);
    if (it != prod_hash_.end()) return it->second;
    const uint64_t h = std::hash<std::string_view>()(e_->syms().name(p->prod->name));
    prod_hash_.emplace(p, h);
    return h;
  }

  uint64_t wme_hash(const Wme& w) {
    uint64_t h = std::hash<std::string_view>()(e_->syms().name(w.cls));
    for (const Value& v : w.fields) h = mix(h, v.hash());
    return h;
  }

  std::unique_ptr<Engine> e_;
  Symbol cls_[kWaveClasses];
  int slot_v_[kWaveClasses] = {};
  int slot_w_[kWaveClasses] = {};
  std::vector<Value> vals_[kWaveClasses];
  std::deque<std::vector<const Wme*>> live_;
  std::unordered_map<const psme::ProdNode*, uint64_t> prod_hash_;
  double load_ms_ = 0;
};

/// What one pass of one round measured.
struct Pass {
  std::vector<double> latency_ms;
  std::vector<std::pair<size_t, uint64_t>> digests;
  double timed_s = 0;
  double cpu_s = 0;  // process CPU over the round, minus the caller's hashing
  uint64_t ops = 0;
  uint64_t wm_ns = 0, match_ns = 0;
  ParallelStats par;  // accumulated when `ledger` is set
};

Pass run_pass(WaveEngine& we, const std::vector<std::vector<WmeSpec>>& waves,
              Ledger* ledger) {
  Pass p;
  const double cpu0 = process_cpu_s();
  double hash_cpu = 0;
  if (ledger != nullptr) ledger->window_begin();
  for (const std::vector<WmeSpec>& wave : waves) {
    Scope cyc(ledger, "cycle");
    const WaveEngine::CycleTimes t = we.cycle(wave, ledger);
    if (ledger != nullptr) p.par.accumulate(we.engine().last_parallel_stats());
    const double dt = static_cast<double>(t.wm_ns + t.match_ns);
    p.latency_ms.push_back(dt / 1e6);
    p.timed_s += dt / 1e9;
    p.wm_ns += t.wm_ns;
    p.match_ns += t.match_ns;
    p.ops += 2 * wave.size();  // the retracted wave has the same size
    Scope h(ledger, "oracle.hash");
    const double h0 = thread_cpu_s();
    p.digests.push_back(we.digest());
    hash_cpu += thread_cpu_s() - h0;
  }
  if (ledger != nullptr) ledger->window_end();
  p.cpu_s = process_cpu_s() - cpu0 - hash_cpu;
  return p;
}

/// Counts the ops of every cycle whose CS differs from the serial oracle.
uint64_t mismatched_ops(const Pass& thr, const Pass& ser,
                        const std::vector<std::vector<WmeSpec>>& waves) {
  uint64_t bad = 0;
  for (size_t i = 0; i < waves.size(); ++i) {
    if (thr.digests[i] != ser.digests[i]) bad += 2 * waves[i].size();
  }
  return bad;
}

uint64_t digest_waves(uint64_t h, const std::vector<std::vector<WmeSpec>>& waves) {
  for (const auto& wave : waves) {
    for (const WmeSpec& s : wave) {
      h = mix(mix(mix(h, s.cls), static_cast<uint64_t>(s.v)),
              static_cast<uint64_t>(s.w));
    }
  }
  return h;
}

}  // namespace

Report run_wave(const Args& args, bool skewed) {
  const Shape& shape = skewed ? kSkewed : kWide;
  Report r;
  EndToEnd e2e;
  uint64_t next_wave = 0;
  auto gen_waves = [&](int n) {
    std::vector<std::vector<WmeSpec>> out;
    for (int i = 0; i < n; ++i) out.push_back(make_wave(args.seed, next_wave++, shape.wave));
    r.input_digest = digest_waves(r.input_digest, out);
    return out;
  };
  const std::vector<std::vector<WmeSpec>> fill = gen_waves(shape.window);

  // Set-up: fresh threaded engines (load + initial window + first match);
  // the last one built is the one measured.
  auto build = [&](size_t workers) {
    auto we = std::make_unique<WaveEngine>(shape, workers);
    for (const auto& wave : fill) we->assert_wave(wave);
    we->engine().match();
    return we;
  };
  std::unique_ptr<WaveEngine> thr;
  const int setups = args.trace ? 3 : 5;
  for (int i = 0; i < setups; ++i) {
    thr.reset();  // joins the previous engine's workers outside the timing
    const uint64_t t0 = now_ns();
    thr = build(2);
    e2e.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::unique_ptr<WaveEngine> ser = build(0);
  std::unique_ptr<WaveEngine> quad = args.trace ? build(4) : nullptr;

  const int rounds = work_units(args, shape.rounds_per_second, 4);
  const int untraced_rounds = args.trace ? std::max(3, rounds / 2) : rounds;
  const int traced_rounds = args.trace ? std::max(3, rounds / 2) : 0;
  std::vector<double> quad_tput, serial_cpu, traced_tput;
  Pass traced_total;
  double traced_timed_s = 0;
  uint64_t traced_cycles = 0;
  psme::MatchStats arena0;
  Ledger ledger(static_cast<size_t>(traced_rounds * shape.cycles_per_round) * 4 + 16);

  // The first kWarmRounds rounds are warm-up. Passes alternate who goes
  // first, so host drift hits the threaded and serial passes alike.
  const int last = kWarmRounds + untraced_rounds + traced_rounds;
  for (int round = 0; round < last; ++round) {
    const bool warm = round < kWarmRounds;
    const bool traced = round >= kWarmRounds + untraced_rounds;
    if (traced && traced_cycles == 0) {
      arena0 = thr->engine().state().arena.stats();
    }
    const std::vector<std::vector<WmeSpec>> waves = gen_waves(shape.cycles_per_round);
    Pass pt, ps, pq;
    const bool threaded_first = round % 2 == 0;
    if (threaded_first) pt = run_pass(*thr, waves, traced ? &ledger : nullptr);
    ps = run_pass(*ser, waves, nullptr);
    if (quad) pq = run_pass(*quad, waves, nullptr);
    if (!threaded_first) pt = run_pass(*thr, waves, traced ? &ledger : nullptr);

    // Warm-up is excluded from timing only; every round is checked.
    r.attempted += pt.ops;
    r.failed += mismatched_ops(pt, ps, waves);
    if (quad) r.failed += mismatched_ops(pq, ps, waves);
    if (warm) continue;
    if (traced) {
      traced_tput.push_back(static_cast<double>(pt.ops) / pt.timed_s);
      traced_total.ops += pt.ops;
      traced_total.wm_ns += pt.wm_ns;
      traced_total.match_ns += pt.match_ns;
      traced_total.par.accumulate(pt.par);
      traced_timed_s += pt.timed_s;
      traced_cycles += waves.size();
      continue;
    }
    e2e.round_throughput.push_back(static_cast<double>(pt.ops) / pt.timed_s);
    e2e.serial_round_throughput.push_back(static_cast<double>(ps.ops) / ps.timed_s);
    e2e.round_cpu_us_per_op.push_back(pt.cpu_s * 1e6 / static_cast<double>(pt.ops));
    serial_cpu.push_back(ps.cpu_s * 1e6 / static_cast<double>(ps.ops));
    e2e.round_latency_ms.push_back(std::move(pt.latency_ms));
    if (quad) quad_tput.push_back(static_cast<double>(pq.ops) / pq.timed_s);
  }

  if (!args.trace) {
    report_end_to_end(r, e2e);
    return r;
  }

  // Per-layer figures of the traced pass.
  const ParallelStats& par = traced_total.par;
  const double ops = static_cast<double>(traced_total.ops);
  const double cycles = static_cast<double>(traced_cycles);
  const double match_s = static_cast<double>(traced_total.match_ns) / 1e9;
  const psme::MatchStats arena = thr->engine().state().arena.stats();
  const double tasks = static_cast<double>(par.tasks);
  r.metric("engine.wm_update_us_per_op",
           static_cast<double>(traced_total.wm_ns) / 1e3 / ops, "us");
  r.metric("engine.inject_share", (match_s - par.wall_seconds) / match_s, "ratio");
  r.metric("engine.match_ms_per_cycle", match_s * 1e3 / cycles, "ms");
  r.metric("engine.cs_size", static_cast<double>(thr->engine().cs().size()), "count");
  r.metric("par.tasks_per_op", tasks / ops, "count");
  r.metric("par.ns_per_task", par.wall_seconds * 1e9 / tasks, "ns");
  const double steal_tries = static_cast<double>(par.steals + par.failed_steals);
  r.metric("par.steal_success_ratio",
           steal_tries > 0 ? static_cast<double>(par.steals) / steal_tries : 0, "ratio");
  r.metric("par.failed_sweeps_per_cycle", static_cast<double>(par.failed_sweeps) / cycles,
           "count");
  r.metric("par.parks_per_cycle", static_cast<double>(par.parks) / cycles, "count");
  r.metric("par.chain_inline_ratio", static_cast<double>(par.chain_inline) / tasks, "ratio");
  r.metric("par.spin_cpu_ratio", median(e2e.round_cpu_us_per_op) / median(serial_cpu),
           "ratio");
  r.metric("par.scaling_4w", median(quad_tput) / median(e2e.serial_round_throughput),
           "ratio");
  r.metric("arena.spill_allocs_per_op",
           static_cast<double>(arena.delta(arena0).spill_allocs) / ops, "count");
  r.metric("arena.chunks_live", static_cast<double>(arena.chunks_live), "count");
  r.metric("lang.load_ms", thr->load_ms(), "ms");
  r.metric("obs.trace_overhead_pct",
           (median(e2e.round_throughput) / median(traced_tput) - 1.0) * 100.0, "%");
  r.metric("ledger.coverage", ledger.coverage(), "ratio");
  for (const auto& [name, ms] : ledger.self_ms()) r.note("self_ms." + name, ms, "ms");
  r.note("traced_window_s", ledger.window_s(), "s");
  r.note("traced_timed_s", traced_timed_s, "s");
  if (!args.trace_out.empty() && !ledger.write_chrome(args.trace_out)) {
    r.fail("cannot write " + args.trace_out);
  }
  return r;
}

}  // namespace perfbench
