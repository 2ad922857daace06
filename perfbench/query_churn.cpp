// query-churn: QuerySession begin/score/matches/end over a resident block
// chain, rotating bench_query's three cues (full match, partial match, miss).
// One operation is one query. This is the one workload that runs run-time
// production removal (remove_production, unsplice, CS purge) on every op.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "gen.h"
#include "query/query.h"

namespace perfbench {
namespace {

constexpr int kWarmRounds = 2;
constexpr double kRoundsPerSecond = 2.6;
constexpr int kQueriesPerRound = 600;
constexpr int kChainBlocks = 64;
constexpr int kLooseBlocks = 32;

const char* const kResidents =
    "(p stack2 (block ^name <b> ^color blue) (block ^on <b>) --> (halt))"
    "(p stack3 (block ^name <b>) (block ^on <b> ^name <m>) (block ^on <m>) "
    "--> (halt))"
    "(p holder (gripper ^state free) (block ^name <b>) --> (halt))";

const char* const kCues[3] = {
    "(block ^name <b> ^color blue) (block ^on <b> ^name <t>)",
    "(block ^name <b> ^color blue) (block ^on <b> ^name <t>) "
    "(gripper ^holding <t>)",
    "(pyramid ^name <p>) (block ^on <p>)",
};

struct Outcome {
  uint32_t score = 0;
  size_t matches = 0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// One engine with the resident chain loaded and one query session on it.
class QueryRig {
 public:
  QueryRig(size_t workers, const std::vector<BlockSpec>& blocks) {
    psme::EngineOptions o;
    o.match_workers = workers;
    o.match_policy = psme::TaskQueueSet::Policy::Steal;
    o.record_traces = false;
    e_ = std::make_unique<psme::Engine>(o);
    const uint64_t t0 = now_ns();
    e_->load(kResidents);
    load_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
    static const char* const kColors[3] = {"blue", "red", "green"};
    for (const BlockSpec& b : blocks) {
      std::string text = "(block ^name b" + std::to_string(b.name) +
                         " ^color " + kColors[b.color];
      if (b.on >= 0) text += " ^on b" + std::to_string(b.on);
      e_->add_wme_text(text + ")");
    }
    e_->add_wme_text("(gripper ^name g0 ^state free)");
    e_->match();
    q_ = std::make_unique<psme::QuerySession>(*e_);
    baseline_ = e_->net().live_node_count();
  }

  psme::Engine& engine() { return *e_; }
  [[nodiscard]] double load_ms() const { return load_ms_; }
  [[nodiscard]] uint32_t baseline() const { return baseline_; }

  struct Times {
    uint64_t begin_ns = 0, read_ns = 0, end_ns = 0;
    uint64_t update_tasks = 0;
  };

  Outcome ask(const char* cue, Ledger* ledger, Times& t) {
    Outcome out;
    const uint64_t t0 = now_ns();
    {
      Scope s(ledger, "query.begin");
      t.update_tasks += q_->begin(cue).update_tasks;
    }
    const uint64_t t1 = now_ns();
    {
      Scope s(ledger, "query.read");
      out.score = q_->score();
      out.matches = q_->matches().size();
    }
    const uint64_t t2 = now_ns();
    {
      Scope s(ledger, "query.end");
      q_->end();
    }
    const uint64_t t3 = now_ns();
    t.begin_ns += t1 - t0;
    t.read_ns += t2 - t1;
    t.end_ns += t3 - t2;
    return out;
  }

 private:
  std::unique_ptr<psme::Engine> e_;
  std::unique_ptr<psme::QuerySession> q_;
  uint32_t baseline_ = 0;
  double load_ms_ = 0;
};

struct Pass {
  std::vector<Outcome> outcome;
  std::vector<double> latency_ms;
  double timed_s = 0;
  double cpu_s = 0;
  uint64_t residue = 0;  // queries after which live nodes != baseline
  QueryRig::Times times;
};

Pass run_pass(QueryRig& rig, const std::vector<int>& cues, Ledger* ledger) {
  Pass p;
  const double cpu0 = process_cpu_s();
  double check_cpu = 0;
  if (ledger != nullptr) ledger->window_begin();
  for (const int c : cues) {
    Scope q(ledger, "query");
    const uint64_t t0 = now_ns();
    p.outcome.push_back(rig.ask(kCues[c], ledger, p.times));
    const double dt = static_cast<double>(now_ns() - t0);
    p.latency_ms.push_back(dt / 1e6);
    p.timed_s += dt / 1e9;
    Scope s(ledger, "oracle.check");
    const double c0 = thread_cpu_s();
    if (rig.engine().net().live_node_count() != rig.baseline()) ++p.residue;
    check_cpu += thread_cpu_s() - c0;
  }
  if (ledger != nullptr) ledger->window_end();
  p.cpu_s = process_cpu_s() - cpu0 - check_cpu;
  return p;
}

}  // namespace

Report run_query_churn(const Args& args) {
  Report r;
  EndToEnd e2e;
  const std::vector<BlockSpec> blocks = make_blocks(args.seed, kChainBlocks, kLooseBlocks);
  for (const BlockSpec& b : blocks) {
    r.input_digest = mix(mix(mix(r.input_digest, static_cast<uint64_t>(b.name)),
                             static_cast<uint64_t>(b.color)),
                         static_cast<uint64_t>(b.on));
  }

  const int rounds = work_units(args, kRoundsPerSecond, 4);
  const int untraced_rounds = args.trace ? std::max(3, rounds / 2) : rounds;
  const int traced_rounds = args.trace ? std::max(3, rounds / 2) : 0;
  const int last = kWarmRounds + untraced_rounds + traced_rounds;
  const std::vector<int> cue_seq = make_cue_sequence(args.seed, last * kQueriesPerRound);
  for (const int c : cue_seq) r.input_digest = mix(r.input_digest, static_cast<uint64_t>(c));

  std::vector<double> serial_cpu, traced_tput, load_ms;
  QueryRig::Times traced_times;
  uint64_t traced_queries = 0, traced_tasks = 0, traced_ids = 0;
  size_t cs_size = 0;
  psme::MatchStats arena;
  Ledger ledger(static_cast<size_t>(traced_rounds * kQueriesPerRound) * 6 + 16);

  // Every round builds fresh rigs, so every round does the same work: the
  // network's node ids (and RSS) grow with every query a rig has served,
  // and a rig kept across rounds would make later rounds slower. The
  // threaded rig's construction is the round's set-up sample.
  for (int round = 0; round < last; ++round) {
    const bool warm = round < kWarmRounds;
    const bool traced = round >= kWarmRounds + untraced_rounds;
    const uint64_t t0 = now_ns();
    QueryRig thr(2, blocks);
    const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    QueryRig ser(0, blocks);
    const uint32_t ids0 = thr.engine().net().node_count();

    const std::vector<int> cues(cue_seq.begin() + round * kQueriesPerRound,
                                cue_seq.begin() + (round + 1) * kQueriesPerRound);
    Pass pt, ps;
    if (round % 2 == 0) pt = run_pass(thr, cues, traced ? &ledger : nullptr);
    ps = run_pass(ser, cues, nullptr);
    if (round % 2 != 0) pt = run_pass(thr, cues, traced ? &ledger : nullptr);

    if (pt.residue != 0 || ps.residue != 0) {
      r.fail("live_node_count() not back at its baseline after end()");
    }
    // Warm-up is excluded from timing only; every round is checked.
    r.attempted += cues.size();
    for (size_t i = 0; i < cues.size(); ++i) {
      if (!(pt.outcome[i] == ps.outcome[i])) ++r.failed;
    }
    if (warm) continue;
    const double tput = static_cast<double>(cues.size()) / pt.timed_s;
    if (traced) {
      traced_tput.push_back(tput);
      traced_times.begin_ns += pt.times.begin_ns;
      traced_times.read_ns += pt.times.read_ns;
      traced_times.end_ns += pt.times.end_ns;
      traced_tasks += pt.times.update_tasks;
      traced_queries += cues.size();
      traced_ids += thr.engine().net().node_count() - ids0;
      cs_size = thr.engine().cs().size();
      arena = thr.engine().state().arena.stats();
      load_ms.push_back(thr.load_ms());
      continue;
    }
    e2e.setup_s.push_back(setup_s);
    e2e.round_throughput.push_back(tput);
    e2e.serial_round_throughput.push_back(static_cast<double>(cues.size()) / ps.timed_s);
    e2e.round_cpu_us_per_op.push_back(pt.cpu_s * 1e6 / static_cast<double>(cues.size()));
    serial_cpu.push_back(ps.cpu_s * 1e6 / static_cast<double>(cues.size()));
    e2e.round_latency_ms.push_back(std::move(pt.latency_ms));
  }

  if (!args.trace) {
    report_end_to_end(r, e2e);
    return r;
  }

  const double n = static_cast<double>(traced_queries);
  r.metric("engine.cs_size", static_cast<double>(cs_size), "count");
  r.metric("par.tasks_per_op", static_cast<double>(traced_tasks) / n, "count");
  r.metric("par.spin_cpu_ratio", median(e2e.round_cpu_us_per_op) / median(serial_cpu),
           "ratio");
  r.metric("arena.chunks_live", static_cast<double>(arena.chunks_live), "count");
  r.metric("lang.load_ms", median(load_ms), "ms");
  r.metric("query.begin_us", static_cast<double>(traced_times.begin_ns) / 1e3 / n, "us");
  r.metric("query.read_us", static_cast<double>(traced_times.read_ns) / 1e3 / n, "us");
  r.metric("query.end_us", static_cast<double>(traced_times.end_ns) / 1e3 / n, "us");
  r.metric("rete.node_ids_per_query",
           static_cast<double>(traced_ids) / n, "count");
  r.metric("obs.trace_overhead_pct",
           (median(e2e.round_throughput) / median(traced_tput) - 1.0) * 100.0, "%");
  r.metric("ledger.coverage", ledger.coverage(), "ratio");
  for (const auto& [name, ms] : ledger.self_ms()) r.note("self_ms." + name, ms, "ms");
  r.note("traced_window_s", ledger.window_s(), "s");
  if (!args.trace_out.empty() && !ledger.write_chrome(args.trace_out)) {
    r.fail("cannot write " + args.trace_out);
  }
  return r;
}

}  // namespace perfbench
