// Threaded matcher: final match state must equal the serial executor's
// across worker counts and chain-splitting tunings; scheduler statistics are
// plumbed through.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/agent_group.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "rete/update.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

/// Builds the activation seeds for a batch of wme changes (mirrors
/// Engine::match, which is serial-only).
class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

std::string workload_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

void add_workload_wmes(Engine& e, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string v = std::to_string(i % 7);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == 0) e.add_wme_text("(blocker ^v " + v + ")");
  }
}

/// A linear join chain deeper than the default split depth (8): every CE
/// binds <x>, so each head wme cascades through one join per level —
/// (p chain-31 (d-c0 ^v <x>) (d-c1 ^v <x>) ... --> (halt)).
constexpr int kChainDepth = 31;
constexpr int kChainValues = 3;

std::string chain_class(int i) { return "d-c" + std::to_string(i); }

std::string chain_production() {
  std::string p = "(p chain-" + std::to_string(kChainDepth);
  for (int i = 0; i < kChainDepth; ++i) p += " (" + chain_class(i) + " ^v <x>)";
  return p + " --> (halt))";
}

/// One wme per value for every chain class but the head, so a head wme
/// added later completes exactly one token per level.
void add_chain_body(Engine& e) {
  for (int i = 1; i < kChainDepth; ++i) {
    for (int v = 0; v < kChainValues; ++v) {
      e.add_wme_text("(" + chain_class(i) + " ^v " + std::to_string(v) + ")");
    }
  }
}

std::vector<const Wme*> add_chain_heads(Engine& e) {
  std::vector<const Wme*> heads;
  for (int v = 0; v < kChainValues; ++v) {
    heads.push_back(
        e.add_wme_text("(" + chain_class(0) + " ^v " + std::to_string(v) + ")"));
  }
  return heads;
}

struct ParallelCase {
  size_t workers;
  StealTuning tuning = {};
};

/// Split-every-link with the backoff ladder off: every chain link round-trips
/// through the deque and every failed sweep goes straight to the park ticket
/// (the maximal-churn corner of the tuning space).
StealTuning split_heavy() {
  StealTuning t;
  t.chain_split_depth = 1;
  t.backoff_park_sweeps = 0;
  return t;
}

/// Unbounded inline chains: a dependent chain never leaves its worker.
StealTuning never_split() {
  StealTuning t;
  t.chain_split_depth = 0;
  return t;
}

class ParallelEquivalence : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelEquivalence, MatchesSerialResult) {
  // Two cycles: the workload plus the chain's body, then the chain heads,
  // whose cycle is one depth-31 linear cascade per head.
  const auto param = GetParam();
  const std::string productions = workload_productions() + chain_production();

  Engine serial;
  serial.load(productions);
  add_workload_wmes(serial, 20);
  add_chain_body(serial);
  serial.match();
  add_chain_heads(serial);
  serial.match();

  Engine par;
  par.load(productions);
  add_workload_wmes(par, 20);
  add_chain_body(par);
  // Drain the pending changes through the threaded matcher instead of
  // Engine::match().
  SeedCollector sc;
  for (const Wme* w : par.wm().live()) par.net().inject(w, true, sc);
  ParallelMatcher matcher(par.net(), param.workers, nullptr, param.tuning);
  matcher.register_agent(par.state());
  ParallelStats st = matcher.run_cycle(sc.seeds);
  par.wm().end_cycle();
  SeedCollector heads;
  for (const Wme* w : add_chain_heads(par)) par.net().inject(w, true, heads);
  st.accumulate(matcher.run_cycle(heads.seeds));
  par.wm().end_cycle();
  EXPECT_GT(st.tasks, 0u);
  if (param.workers > 1) {
    if (param.tuning.chain_split_depth == 1) {
      EXPECT_EQ(st.chain_inline, 0u);  // every link split to the deque
    } else if (param.tuning.chain_split_depth == 0) {
      EXPECT_EQ(st.chain_splits, 0u);  // chains never split
    } else {
      EXPECT_GT(st.chain_splits, 0u);  // the depth-31 chain outgrows 8
    }
  }
  EXPECT_EQ(test::instantiation_count(par, "chain-31"), kChainValues);

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  EXPECT_EQ(serial.state().tables.total_left_entries(),
            par.state().tables.total_left_entries());
  EXPECT_EQ(serial.state().tables.total_right_entries(),
            par.state().tables.total_right_entries());
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndTunings, ParallelEquivalence,
    ::testing::Values(ParallelCase{1}, ParallelCase{2}, ParallelCase{4},
                      ParallelCase{8}, ParallelCase{13},
                      ParallelCase{2, split_heavy()},
                      ParallelCase{4, split_heavy()},
                      ParallelCase{8, split_heavy()},
                      ParallelCase{4, never_split()},
                      ParallelCase{8, never_split()}));

TEST(ParallelMatcher, DeleteHeavyCycleMatchesSerial) {
  // Adds followed by deletes in a single cycle: the delete-token path under
  // concurrency.
  auto build = [](Engine& e) {
    e.load(workload_productions());
    add_workload_wmes(e, 12);
    e.match();  // settle adds serially in both engines
  };
  Engine serial, par;
  build(serial);
  build(par);

  // Remove every third a-wme.
  auto remove_some = [](Engine& e) -> std::vector<const Wme*> {
    std::vector<const Wme*> removed;
    int i = 0;
    for (const Wme* w : e.wm().live()) {
      if (e.syms().name(w->cls) == "a" && ++i % 3 == 0) removed.push_back(w);
    }
    return removed;
  };

  const auto sr = remove_some(serial);
  for (const Wme* w : sr) serial.remove_wme(w);
  serial.match();

  const auto pr = remove_some(par);
  SeedCollector sc;
  for (const Wme* w : pr) {
    par.net().inject(w, false, sc);
  }
  ParallelMatcher matcher(par.net(), 4);
  matcher.register_agent(par.state());
  matcher.run_cycle(sc.seeds);
  for (const Wme* w : pr) par.wm().remove(w);
  par.wm().end_cycle();

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

TEST(ParallelMatcher, PersistentMatcherReusedAcrossCycles) {
  // One Steal matcher (one worker pool, one deque set) drains several cycles
  // in a row; the serial engine is the oracle after each. The lifetime
  // counters prove it is the same scheduler instance doing the work.
  Engine serial, par;
  serial.load(workload_productions());
  par.load(workload_productions());
  ParallelMatcher matcher(par.net(), 4);
  matcher.register_agent(par.state());

  for (int round = 0; round < 3; ++round) {
    add_workload_wmes(serial, 8);
    serial.match();

    std::vector<const Wme*> before = par.wm().live();
    add_workload_wmes(par, 8);
    SeedCollector sc;
    for (const Wme* w : par.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) par.net().inject(w, true, sc);
    }
    const ParallelStats st = matcher.run_cycle(sc.seeds);
    EXPECT_GT(st.tasks, 0u);
    ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par))
        << "round " << round;
  }
  EXPECT_EQ(matcher.lifetime_cycles(), 3u);
  EXPECT_GT(matcher.lifetime_tasks(), 0u);
}

/// Runtime-adds `src` (one production) to `e` and drains the three §5.2
/// update phases through `matcher`.
void runtime_add_through(Engine& e, ParallelMatcher& matcher, RhsArena& arena,
                         std::vector<std::unique_ptr<Production>>& owned,
                         const std::string& src) {
  Parser parser(e.syms(), e.schemas(), arena);
  auto parsed = parser.parse_file(src);
  ASSERT_EQ(parsed.size(), 1u);
  owned.push_back(std::make_unique<Production>(std::move(parsed.front())));
  const CompiledProduction cp = e.builder().add_production(*owned.back());
  test::update_state(e, cp, &matcher);
}

TEST(SchedulerEquivalence, StealTuningsEqualSerialThroughRuntimeAdd) {
  // Four engines walk the same script — wme wave, §5.2 runtime production
  // add, another wme wave — one drained serially (the oracle) and three
  // through matchers at the corners of the chain-splitting tuning space
  // (default, split-every-link, never-split). All must agree on the
  // conflict set and the memory-table entry counts at every checkpoint.
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";

  Engine serial, steal, split, nosplit;
  for (Engine* e : {&serial, &steal, &split, &nosplit}) {
    e->load(workload_productions());
  }
  ParallelMatcher m_steal(steal.net(), 8);
  m_steal.register_agent(steal.state());
  ParallelMatcher m_split(split.net(), 8, nullptr, split_heavy());
  m_split.register_agent(split.state());
  ParallelMatcher m_nosplit(nosplit.net(), 8, nullptr, never_split());
  m_nosplit.register_agent(nosplit.state());

  auto parallel_wave = [&](Engine& e, ParallelMatcher& m, int n) {
    std::vector<const Wme*> before = e.wm().live();
    add_workload_wmes(e, n);
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
    return m.run_cycle(sc.seeds);
  };

  // Wave 1.
  add_workload_wmes(serial, 15);
  serial.match();
  const ParallelStats st1 = parallel_wave(steal, m_steal, 15);
  parallel_wave(split, m_split, 15);
  parallel_wave(nosplit, m_nosplit, 15);
  EXPECT_GT(st1.tasks, 0u);
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));

  // §5.2 runtime add, drained through each scheduler.
  RhsArena arena;
  std::vector<std::unique_ptr<Production>> owned;
  {
    Parser parser(serial.syms(), serial.schemas(), arena);
    auto parsed = parser.parse_file(late);
    ASSERT_EQ(parsed.size(), 1u);
    owned.push_back(std::make_unique<Production>(std::move(parsed.front())));
    const CompiledProduction cp =
        serial.builder().add_production(*owned.back());
    test::update_state(serial, cp);
  }
  runtime_add_through(steal, m_steal, arena, owned, late);
  runtime_add_through(split, m_split, arena, owned, late);
  runtime_add_through(nosplit, m_nosplit, arena, owned, late);
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));

  // Wave 2 over the extended network.
  add_workload_wmes(serial, 9);
  serial.match();
  parallel_wave(steal, m_steal, 9);
  parallel_wave(split, m_split, 9);
  parallel_wave(nosplit, m_nosplit, 9);
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));
  for (Engine* e : {&steal, &split, &nosplit}) {
    EXPECT_EQ(serial.state().tables.total_left_entries(),
              e->state().tables.total_left_entries());
    EXPECT_EQ(serial.state().tables.total_right_entries(),
              e->state().tables.total_right_entries());
  }
}

TEST(EngineIntegration, ParallelEngineRunMatchesSerial) {
  // The whole Engine loop (match via the persistent in-Engine matcher)
  // against the serial engine as oracle. match_workers flips the Engine's
  // match() and §5.2 runtime-add onto the ParallelMatcher.
  EngineOptions popt;
  popt.match_workers = 4;
  popt.record_traces = false;

  Engine serial;
  Engine par(popt);
  for (Engine* e : {&serial, &par}) {
    e->load(workload_productions());
    add_workload_wmes(*e, 20);
    e->match();
  }
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  ASSERT_NE(par.parallel_matcher(), nullptr);
  EXPECT_GT(par.last_parallel_stats().tasks, 0u);
  EXPECT_GT(par.parallel_matcher()->lifetime_cycles(), 0u);

  // Runtime add through Engine::add_production_runtime (three-phase parallel
  // drain inside the Engine).
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";
  RhsArena arena;  // outlives the adopted productions in both engines
  auto add_late = [&](Engine& e) {
    Parser parser(e.syms(), e.schemas(), arena);
    auto parsed = parser.parse_file(late);
    ASSERT_EQ(parsed.size(), 1u);
    // Engine::add_production_runtime adopts the AST into its own store.
    e.add_production_runtime(std::move(parsed.front()));
  };
  add_late(serial);
  add_late(par);
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));

  // One more cycle to confirm the persistent matcher keeps working.
  add_workload_wmes(serial, 6);
  serial.match();
  add_workload_wmes(par, 6);
  par.match();
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

/// The oracle comparison after a load onto live memories: same conflict
/// set and the same number of beta-table entries as the serial engine.
void expect_same_state(Engine& serial, Engine& par) {
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  EXPECT_EQ(serial.state().tables.total_left_entries(),
            par.state().tables.total_left_entries());
  EXPECT_EQ(serial.state().tables.total_right_entries(),
            par.state().tables.total_right_entries());
}

TEST(EngineIntegration, LoadOntoLiveWmDrainsThroughMatcher) {
  // Engine::load onto a live WM runs the §5.2 update per attached agent
  // through that agent's own executor: the private matcher of a 4-worker
  // engine, the shared matcher of an AgentGroup. Each of the three phases
  // is one matcher cycle, and every agent must end exactly where a serial
  // engine holding the same WM ends.
  const std::string late =
      "(p late-j3 (b ^v <x>) (c ^v <x>) -(blocker ^v <x>) --> (halt))";
  EngineOptions popt;
  popt.match_workers = 4;
  popt.record_traces = false;

  Engine serial;
  Engine par(popt);
  for (Engine* e : {&serial, &par}) {
    e->load(workload_productions());
    add_workload_wmes(*e, 20);
    e->match();
  }
  ASSERT_NE(par.parallel_matcher(), nullptr);
  const uint64_t cycles = par.parallel_matcher()->lifetime_cycles();
  serial.load(late);
  par.load(late);
  EXPECT_EQ(par.parallel_matcher()->lifetime_cycles(), cycles + 3);
  EXPECT_GT(test::instantiation_count(par, "late-j3"), 0);
  expect_same_state(serial, par);

  // Two group sessions with different WMs over one network and matcher.
  EngineOptions gopt;
  gopt.match_workers = 4;
  gopt.record_traces = false;
  AgentGroup group(gopt);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  Engine s0, s1;
  group.load(workload_productions());
  s0.load(workload_productions());
  s1.load(workload_productions());
  add_workload_wmes(a0, 20);
  add_workload_wmes(s0, 20);
  add_workload_wmes(a1, 11);
  add_workload_wmes(s1, 11);
  group.step_all();
  s0.match();
  s1.match();
  const uint64_t group_cycles = group.matcher()->lifetime_cycles();
  group.load(late);
  s0.load(late);
  s1.load(late);
  EXPECT_EQ(group.matcher()->lifetime_cycles(), group_cycles + 6);
  expect_same_state(s0, a0);
  expect_same_state(s1, a1);

  // The extended network keeps matching like the serial oracle.
  add_workload_wmes(a0, 9);
  add_workload_wmes(s0, 9);
  group.step_all();
  s0.match();
  expect_same_state(s0, a0);
}

// A load onto a working memory with queued changes must seed the §5.2
// update from what the network has matched: the queued adds reach the new
// production at the next match(), and the queued removes are still in the
// network until then. The reference engine loaded p2 before any wme.
enum class Queued { Adds, Removes };

const char* kLateP1 = "(p p1 (a ^v <x>) (b ^v <x>) --> (halt))";
const char* kLateP2 = "(p p2 (a ^v <x>) (b ^v <x>) (d ^v <x>) --> (halt))";

void add_triples(Engine& e, int from, int to) {
  for (int i = from; i < to; ++i) {
    for (const char* cls : {"a", "b", "d"}) {
      e.add_wme_text(std::string("(") + cls + " ^v " + std::to_string(i) +
                     ")");
    }
  }
}

/// Matches 20 triples, then queues 10 more (Adds) or the retraction of the
/// first 10 (Removes), leaving the changes pending.
void queue_changes(Engine& e, Queued q) {
  add_triples(e, 0, 20);
  e.match();
  if (q == Queued::Adds) {
    add_triples(e, 20, 30);
    return;
  }
  std::vector<const Wme*> victims;
  for (const Wme* w : e.wm().live()) {
    if (w->fields[0].as_int() < 10) victims.push_back(w);
  }
  for (const Wme* w : victims) e.remove_wme(w);
}

void expect_late_load_matches_reference(Engine& late, Queued q,
                                        const char* label) {
  Engine ref;
  ref.load(std::string(kLateP1) + kLateP2);
  queue_changes(ref, q);
  ref.match();
  late.match();
  EXPECT_EQ(cs_fingerprint(ref), cs_fingerprint(late)) << label;
  EXPECT_EQ(ref.state().tables.total_left_entries(),
            late.state().tables.total_left_entries())
      << label;
  EXPECT_EQ(ref.state().tables.total_right_entries(),
            late.state().tables.total_right_entries())
      << label;
}

TEST(LateLoad, SeedsOnlyWhatTheNetworkHasMatched) {
  for (const Queued q : {Queued::Adds, Queued::Removes}) {
    const char* label = q == Queued::Adds ? "queued adds" : "queued removes";
    for (const size_t workers : {size_t{0}, size_t{4}}) {
      EngineOptions opts;
      opts.match_workers = workers;
      Engine e(opts);
      e.load(kLateP1);
      queue_changes(e, q);
      e.load(kLateP2);
      expect_late_load_matches_reference(e, q, label);
    }
    EngineOptions gopts;
    gopts.match_workers = 2;
    AgentGroup group(gopts);
    Engine& a0 = group.add_agent();
    Engine& a1 = group.add_agent();
    group.load(kLateP1);
    queue_changes(a0, q);
    queue_changes(a1, q);
    group.load(kLateP2);
    expect_late_load_matches_reference(a0, q, label);
    expect_late_load_matches_reference(a1, q, label);
  }
}

}  // namespace
}  // namespace psme
