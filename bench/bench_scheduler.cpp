// Real-thread scheduler worker sweep: the same live-network match workload
// (a Figure 6-4-style wme-wave drain over the four-production stress set)
// executed by the ParallelMatcher's work-stealing scheduler at 1..13
// workers, measured in wall-clock time. This is the one bench that times
// the actual scheduler rather than the virtual multiprocessor. Every
// repetition's final conflict set is checked against the same script
// drained by the serial executor.
//
// Output: a BENCH_scheduler.json document on stdout (captured by
// tools/bench_json.sh), human-readable tables on stderr. One record per
// worker count: wall seconds, tasks, tasks/sec, steals, failed steals,
// parks, chain inlining.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/profile_report.h"
#include "engine/engine.h"
#include "harness.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "par/parallel_match.h"

using namespace psme;
using namespace psme::bench;

namespace {

class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

// Same shape as the tests' stress workload: value skew (mod 7) piles tokens
// onto shared hash lines, the negation and the cross product fan emits wide.
std::string bench_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

void add_wave(Engine& e, int n, int salt) {
  for (int i = 0; i < n; ++i) {
    const std::string v = std::to_string((i + salt) % 7);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == 0) e.add_wme_text("(blocker ^v " + v + ")");
  }
}

struct Record {
  size_t workers = 0;
  ParallelStats stats;  // accumulated over all cycles
  size_t cs_size = 0;   // final conflict-set size (checked vs the oracle)
  analysis::ProfileReport prof;  // only filled by profiled runs
};

/// The wave script on `e`: each cycle's seed batch goes to `drain`, so the
/// threaded configurations and the serial oracle run the identical
/// workload.
template <typename Drain>
void run_script(Engine& e, int rounds, int wave, const Drain& drain) {
  for (int round = 0; round < rounds; ++round) {
    std::vector<const Wme*> before = e.wm().live();
    add_wave(e, wave, round);
    SeedCollector sc;
    for (const Wme* w : e.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) e.net().inject(w, true, sc);
    }
    drain(sc.seeds);
    e.wm().end_cycle();

    // Every third round also retracts a slice of a-wmes as its own cycle
    // (a threaded drain takes homogeneous seed batches — see
    // ParallelMatcher::run_cycle), so the delete-token path is timed too.
    if (round % 3 == 2) {
      SeedCollector del;
      int i = 0;
      for (const Wme* w : before) {
        if (e.syms().name(w->cls) == "a" && ++i % 4 == 0) {
          e.net().inject(w, false, del);
          e.wm().remove(w);
        }
      }
      drain(del.seeds);
      e.wm().end_cycle();
    }
  }
}

/// Final CS size of the wave script drained by the serial executor.
size_t serial_oracle_cs(int rounds, int wave) {
  Engine e;
  e.load(bench_productions());
  TraceExecutor ex(e.net(), e.state(), /*record_tasks=*/false);
  run_script(e, rounds, wave, [&](std::vector<Activation>& seeds) {
    ex.run_to_quiescence(seeds);
  });
  return e.cs().size();
}

/// Runs the wave script on a fresh engine through one persistent matcher.
/// A non-null `tracer` records per-worker task/steal/park events (the
/// PSME_TRACE run); a non-null `profiler` attributes per-node measured cost
/// and the Record carries the per-production report built from its final
/// snapshot.
Record run_config(size_t workers, int rounds, int wave,
                  obs::Tracer* tracer = nullptr,
                  obs::MatchProfiler* profiler = nullptr) {
  Record r;
  r.workers = workers;

  Engine e;
  e.load(bench_productions());
  ParallelMatcher matcher(e.net(), workers, tracer, {}, profiler);
  matcher.register_agent(e.state());
  run_script(e, rounds, wave, [&](std::vector<Activation>& seeds) {
    r.stats.accumulate(matcher.run_cycle(seeds));
  });
  r.cs_size = e.cs().size();
  if (profiler != nullptr) {
    r.prof = analysis::build_profile_report(e.net(), e.all_records(),
                                            profiler->snapshot());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 15;
  const int wave = argc > 2 ? std::atoi(argv[2]) : 24;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;

  const std::vector<size_t> worker_counts = {1, 2, 4, 8, 13};
  const size_t oracle_cs = serial_oracle_cs(rounds, wave);

  std::fprintf(stderr,
               "bench_scheduler: %d rounds, wave %d, best of %d, serial "
               "oracle CS %zu\n",
               rounds, wave, reps, oracle_cs);
  std::fprintf(stderr, "%7s %10s %8s %12s %9s %11s %8s\n", "workers",
               "wall_ms", "vs_1w", "tasks/sec", "steals", "fail_steal",
               "parks");

  std::vector<Record> records;
  bool cs_mismatch = false;
  for (const size_t w : worker_counts) {
    // Best-of-N: the minimum wall time is the least-noise estimate on a
    // shared host; every repetition's final CS is still checked.
    Record r;
    for (int rep = 0; rep < reps; ++rep) {
      Record one = run_config(w, rounds, wave);
      if (one.cs_size != oracle_cs) {
        cs_mismatch = true;
        std::fprintf(stderr, "!! %zu workers rep %d final CS size %zu != %zu\n",
                     w, rep, one.cs_size, oracle_cs);
      }
      if (rep == 0 || one.stats.wall_seconds < r.stats.wall_seconds) {
        r = std::move(one);
      }
    }
    const double tps =
        r.stats.wall_seconds > 0 ? r.stats.tasks / r.stats.wall_seconds : 0;
    // Wall time relative to the 1-worker run: below 1.00 means the extra
    // workers made the drain faster.
    const double vs_1w = records.empty() ? 1.0
                                         : r.stats.wall_seconds /
                                               records.front().stats.wall_seconds;
    std::fprintf(stderr, "%7zu %10.2f %8.2f %12.0f %9llu %11llu %8llu\n", w,
                 r.stats.wall_seconds * 1e3, vs_1w, tps,
                 static_cast<unsigned long long>(r.stats.steals),
                 static_cast<unsigned long long>(r.stats.failed_steals),
                 static_cast<unsigned long long>(r.stats.parks));
    records.push_back(std::move(r));
  }
  auto wall_of = [&](size_t w) {
    for (const Record& r : records) {
      if (r.workers == w) return r.stats.wall_seconds;
    }
    return 0.0;
  };

  // Optional traced run (PSME_TRACE=<path>): one extra 8-worker config
  // with per-worker event rings, exported as Chrome trace JSON, plus an
  // idle-time accounting table on stderr. Stdout's JSON document is
  // unaffected, so bench_json.sh captures the same schema either way.
  if (obs::env_trace_path() != nullptr) {
    obs::TraceOptions topt;
    topt.enabled = true;
    // Size the rings to the workload instead of the 32K default: the default
    // workload produces >32K events on the busiest workers (one TaskExec per
    // activation plus steal/park/depth events across every cycle), and a
    // ring that overflows keeps only the run's earliest events — the busy
    // column then *undercounts* exactly the workers that did the most work.
    // 2^17 events x 40 B = 5 MiB per track covers the default workload with
    // headroom; the table below still flags any track that dropped events,
    // so an enlarged workload (argv overrides) cannot silently skew the
    // accounting again.
    topt.ring_events = 1u << 17;
    obs::Tracer tracer(topt);
    std::fprintf(stderr, "\ntraced run: 8 workers\n");
    const Record tr = run_config(8, rounds, wave, &tracer);
    obs::export_env_trace(tracer);
    obs::print_trace_summary(tracer, stderr);

    // Idle accounting per worker from the rings: busy = sum of task-span
    // durations, parked = sum of park-span durations; failed steals count
    // full empty sweeps. The gap between the busiest and idlest worker's
    // busy time is the drain-tail imbalance the trace makes visible. A "!"
    // in the drop column marks a worker whose ring overflowed — its busy /
    // parked sums are lower bounds, not totals.
    std::fprintf(stderr, "%-8s %10s %10s %8s %8s %8s %6s\n", "track",
                 "busy_ms", "parked_ms", "tasks", "steals", "fail_sw",
                 "drop");
    uint64_t busy_min = UINT64_MAX, busy_max = 0;
    bool any_dropped = false;
    for (size_t t = 1; t < tracer.tracks(); ++t) {
      const obs::EventRing& ring = tracer.ring(t);
      uint64_t busy = 0, parked = 0, tasks = 0, steals = 0, fails = 0;
      for (size_t i = 0; i < ring.size(); ++i) {
        const obs::TraceEvent& ev = ring[i];
        switch (ev.kind) {
          case obs::EventKind::TaskExec: busy += ev.dur_ns; ++tasks; break;
          case obs::EventKind::Park: parked += ev.dur_ns; break;
          case obs::EventKind::StealOk: ++steals; break;
          case obs::EventKind::StealFail: ++fails; break;
          default: break;
        }
      }
      busy_min = busy < busy_min ? busy : busy_min;
      busy_max = busy > busy_max ? busy : busy_max;
      any_dropped = any_dropped || ring.dropped() != 0;
      std::fprintf(stderr, "w%-7zu %10.2f %10.2f %8llu %8llu %8llu %6s\n",
                   t - 1, busy / 1e6, parked / 1e6,
                   static_cast<unsigned long long>(tasks),
                   static_cast<unsigned long long>(steals),
                   static_cast<unsigned long long>(fails),
                   ring.dropped() != 0 ? "!" : "-");
    }
    std::fprintf(stderr,
                 "idle sources: parks %llu, failed sweeps %llu (%llu probes), "
                 "backoff %.2f ms, drain-tail busy-time spread %.2f ms "
                 "(min %.2f / max %.2f)\n",
                 static_cast<unsigned long long>(tr.stats.parks),
                 static_cast<unsigned long long>(tr.stats.failed_sweeps),
                 static_cast<unsigned long long>(tr.stats.failed_steals),
                 tr.stats.sweep_backoff_ns / 1e6, (busy_max - busy_min) / 1e6,
                 busy_min / 1e6, busy_max / 1e6);
    std::fprintf(stderr,
                 "chain execution: %llu inline links, %llu splits; sweep-run "
                 "histogram [1] %llu [2] %llu [3-4] %llu [5-8] %llu "
                 "[9-16] %llu [>16] %llu%s\n",
                 static_cast<unsigned long long>(tr.stats.chain_inline),
                 static_cast<unsigned long long>(tr.stats.chain_splits),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[0]),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[1]),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[2]),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[3]),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[4]),
                 static_cast<unsigned long long>(tr.stats.sweep_hist[5]),
                 any_dropped ? "  (!: ring dropped events)" : "");
  }

  // Profiled runs: the same 8-worker workload with the match profiler
  // on, full-rate (shift 0) and 1-in-64 sampled (shift 6), against the
  // profiler-off best from the sweep above. The wall-time delta is THE
  // overhead number EXPERIMENTS.md records (target: sampled under 2%);
  // the top-5 hottest productions go into the JSON for bench_json.sh to
  // archive. Fresh profiler per repetition so the kept report covers
  // exactly the kept (best-wall) run.
  const double wall_off = wall_of(8);
  Record prof_full, prof_sampled;
  for (const uint32_t shift : {0u, 6u}) {
    Record best;
    for (int rep = 0; rep < reps; ++rep) {
      obs::MatchProfiler profiler(shift);
      Record one = run_config(8, rounds, wave, nullptr, &profiler);
      if (one.cs_size != oracle_cs) {
        cs_mismatch = true;
        std::fprintf(stderr,
                     "!! profiled 8 workers shift %u rep %d final CS size "
                     "%zu != %zu\n",
                     shift, rep, one.cs_size, oracle_cs);
      }
      if (rep == 0 || one.stats.wall_seconds < best.stats.wall_seconds) {
        best = std::move(one);
      }
    }
    (shift == 0 ? prof_full : prof_sampled) = std::move(best);
  }
  auto overhead_pct = [wall_off](const Record& r) {
    return wall_off > 0
               ? (r.stats.wall_seconds - wall_off) / wall_off * 100.0
               : 0.0;
  };
  std::fprintf(stderr,
               "\nprofiler overhead (8 workers, best of %d): off "
               "%.2f ms, full %.2f ms (%+.1f%%), sampled 1/64 %.2f ms "
               "(%+.1f%%)\n",
               reps, wall_off * 1e3, prof_full.stats.wall_seconds * 1e3,
               overhead_pct(prof_full), prof_sampled.stats.wall_seconds * 1e3,
               overhead_pct(prof_sampled));
  {
    // Top-5 hottest productions to stderr (stdout is the JSON document).
    std::vector<const analysis::ProductionProfile*> top;
    for (const auto& p : prof_full.prof.productions) top.push_back(&p);
    std::stable_sort(top.begin(), top.end(),
                     [](const auto* a, const auto* b) {
                       return a->est_us > b->est_us;
                     });
    if (top.size() > 5) top.resize(5);
    std::fprintf(stderr, "%-12s %10s %10s %10s\n", "production", "acts",
                 "emits", "est_us");
    for (const auto* p : top) {
      std::fprintf(stderr, "%-12s %10llu %10llu %10.2f\n", p->name.c_str(),
                   static_cast<unsigned long long>(p->activations),
                   static_cast<unsigned long long>(p->emits), p->est_us);
    }
  }

  // Machine-readable document on stdout.
  JsonWriter j(stdout);
  j.begin_object();
  j.field("bench", "scheduler");
  j.field("workload", "fig-6-4-style wme waves on the 4-production stress set");
  j.field("rounds", static_cast<uint64_t>(rounds));
  j.field("wave", static_cast<uint64_t>(wave));
  j.field("oracle_cs_size", static_cast<uint64_t>(oracle_cs));
  j.begin_array("records");
  for (const Record& r : records) {
    j.begin_object();
    j.field("workers", static_cast<uint64_t>(r.workers));
    j.field("wall_seconds", r.stats.wall_seconds);
    j.field("tasks", r.stats.tasks);
    j.field("tasks_per_sec", r.stats.wall_seconds > 0
                                 ? r.stats.tasks / r.stats.wall_seconds
                                 : 0.0);
    j.field("steals", r.stats.steals);
    j.field("failed_steals", r.stats.failed_steals);
    j.field("failed_sweeps", r.stats.failed_sweeps);
    j.field("sweep_backoff_ns", r.stats.sweep_backoff_ns);
    j.field("parks", r.stats.parks);
    j.field("chain_inline", r.stats.chain_inline);
    j.field("chain_splits", r.stats.chain_splits);
    j.field("pool_slabs", r.stats.pool_slabs);
    j.field("arena_spill_allocs", r.stats.arena.spill_allocs);
    j.field("arena_spill_bytes", r.stats.arena.spill_bytes);
    j.field("arena_chunks_allocated", r.stats.arena.chunks_allocated);
    j.field("arena_chunks_freed", r.stats.arena.chunks_freed);
    j.field("arena_chunks_live", r.stats.arena.chunks_live);
    j.field("final_cs_size", static_cast<uint64_t>(r.cs_size));
    // The same numbers under registry naming ("par.*"/"arena.*"), so every
    // consumer of bench JSON can share one metric-name vocabulary.
    obs::MetricsRegistry reg;
    obs::collect(reg, r.stats);
    write_metrics(j, "metrics", reg);
    j.end_object();
  }
  j.end_array();
  // The profiled 8-worker runs: overhead-vs-off deltas plus the top-5
  // hottest productions at each sampling rate.
  j.begin_object("profile");
  j.field("workers", static_cast<uint64_t>(8));
  j.field("wall_off_seconds", wall_off);
  j.field("wall_full_seconds", prof_full.stats.wall_seconds);
  j.field("overhead_full_pct", overhead_pct(prof_full));
  j.field("wall_sampled_seconds", prof_sampled.stats.wall_seconds);
  j.field("overhead_sampled_pct", overhead_pct(prof_sampled));
  write_profile(j, "full", prof_full.prof);
  write_profile(j, "sampled", prof_sampled.prof);
  j.end_object();
  j.field("cs_consistent", cs_mismatch ? "false" : "true");
  j.end_object();
  j.finish();

  return cs_mismatch ? 1 : 0;
}
