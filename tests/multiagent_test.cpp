// Multi-agent serving: N agent sessions over ONE shared CompiledNetwork and
// ONE worker pool must each end every cycle exactly as an isolated serial
// engine running the same per-agent script — per-agent task tagging means no
// agent can observe (or stall on) another's tokens. Also covers run-time
// chunk addition through the COW jumptable while sibling agents hold live
// state, and a 2-agent race-stress parameterization for the TSan lane.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/agent_group.h"
#include "lang/parser.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

std::string shared_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

/// Each agent gets a DIFFERENT workload (values offset by the agent index)
/// so cross-agent leakage produces a fingerprint mismatch, not a silent
/// coincidence.
void add_agent_wmes(Engine& e, size_t agent, int n, int wave) {
  for (int i = 0; i < n; ++i) {
    const std::string v =
        std::to_string((i + wave * 3 + static_cast<int>(agent) * 11) % 13);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == static_cast<int>(agent) % 5) {
      e.add_wme_text("(blocker ^v " + v + ")");
    }
  }
}

void remove_every_kth(Engine& e, int k) {
  std::vector<const Wme*> victims;
  int i = 0;
  for (const Wme* w : e.wm().live()) {
    if (++i % k == 0) victims.push_back(w);
  }
  for (const Wme* w : victims) e.remove_wme(w);
}

struct GroupCase {
  const char* name;
  size_t agents;
  size_t workers;
};

class MultiAgentDifferential : public ::testing::TestWithParam<GroupCase> {};

/// N agents over the shared network vs N isolated serial engines walking the
/// same per-agent script: identical conflict sets and memory-table entry
/// counts for every agent at every checkpoint.
TEST_P(MultiAgentDifferential, AgreesWithIsolatedSerialEngines) {
  const GroupCase c = GetParam();

  EngineOptions gopts;
  gopts.match_workers = c.workers;
  AgentGroup group(gopts);
  std::vector<std::unique_ptr<Engine>> oracles;
  for (size_t a = 0; a < c.agents; ++a) {
    group.add_agent();
    oracles.push_back(std::make_unique<Engine>());
  }
  group.load(shared_productions());
  for (auto& o : oracles) o->load(shared_productions());

  for (int wave = 0; wave < 4; ++wave) {
    for (size_t a = 0; a < c.agents; ++a) {
      add_agent_wmes(group.agent(a), a, 8, wave);
      add_agent_wmes(*oracles[a], a, 8, wave);
      if (wave >= 2) {
        remove_every_kth(group.agent(a), 4 + static_cast<int>(a));
        remove_every_kth(*oracles[a], 4 + static_cast<int>(a));
      }
    }
    group.step_all();
    for (auto& o : oracles) o->match();

    for (size_t a = 0; a < c.agents; ++a) {
      EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
          << c.name << " agent " << a << " wave " << wave;
      EXPECT_EQ(group.agent(a).state().tables.total_left_entries(),
                oracles[a]->state().tables.total_left_entries())
          << "agent " << a;
      EXPECT_EQ(group.agent(a).state().tables.total_right_entries(),
                oracles[a]->state().tables.total_right_entries())
          << "agent " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiAgentDifferential,
    ::testing::Values(GroupCase{"steal2x4", 2, 4},
                      GroupCase{"steal4x4", 4, 4},
                      GroupCase{"steal3x2", 3, 2},
                      GroupCase{"steal5x1", 5, 1},
                      GroupCase{"steal16x8", 16, 8},
                      GroupCase{"serial3x0", 3, 0}),
    [](const auto& info) { return std::string(info.param.name); });

/// Run-time production addition (the chunking path) from ONE agent while
/// siblings hold live token state: the COW publish must leave every agent —
/// learner and bystanders alike — matching as if the production had been in
/// the network all along.
TEST(MultiAgentRuntimeAdd, CowPublishUpdatesEveryAgent) {
  constexpr size_t kAgents = 3;
  EngineOptions gopts;
  gopts.match_workers = 4;
  AgentGroup group(gopts);
  std::vector<std::unique_ptr<Engine>> oracles;
  for (size_t a = 0; a < kAgents; ++a) {
    group.add_agent();
    oracles.push_back(std::make_unique<Engine>());
  }
  group.load(shared_productions());
  for (auto& o : oracles) o->load(shared_productions());

  for (size_t a = 0; a < kAgents; ++a) {
    add_agent_wmes(group.agent(a), a, 10, 0);
    add_agent_wmes(*oracles[a], a, 10, 0);
  }
  group.step_all();
  for (auto& o : oracles) o->match();

  // Agent 1 "learns" a production; the oracles each add the same one to
  // their private networks.
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";
  const uint64_t publishes_before = group.network().cow_publishes();
  {
    Parser parser(group.agent(1).syms(), group.agent(1).schemas(),
                  test::test_rhs_arena());
    group.agent(1).add_production_runtime(parser.parse_production(late));
  }
  EXPECT_EQ(group.network().cow_publishes(), publishes_before + 1)
      << "runtime add must go through the COW jumptable";
  for (auto& o : oracles) {
    Parser parser(o->syms(), o->schemas(), test::test_rhs_arena());
    o->add_production_runtime(parser.parse_production(late));
  }

  for (size_t a = 0; a < kAgents; ++a) {
    EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
        << "after COW add, agent " << a;
  }

  // The extended network keeps matching correctly for everyone.
  for (size_t a = 0; a < kAgents; ++a) {
    add_agent_wmes(group.agent(a), a, 6, 1);
    add_agent_wmes(*oracles[a], a, 6, 1);
  }
  group.step_all();
  for (auto& o : oracles) o->match();
  for (size_t a = 0; a < kAgents; ++a) {
    EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
        << "post-add wave, agent " << a;
  }
}

/// Network-wide chunk-signature dedup: the second agent to learn an
/// identical chunk must be told it is a duplicate.
TEST(MultiAgentRuntimeAdd, ChunkSignaturesDedupAcrossAgents) {
  AgentGroup group;
  group.add_agent();
  group.add_agent();
  EXPECT_TRUE(group.network().note_chunk_signature("chunk-sig-1"));
  EXPECT_FALSE(group.network().note_chunk_signature("chunk-sig-1"))
      << "agent 2 learning the same chunk must see the network-wide dup";
  EXPECT_TRUE(group.network().note_chunk_signature("chunk-sig-2"));
}

/// Per-agent metric namespaces exist and the group gauges are right.
TEST(MultiAgentObservability, MetricsAreNamespacedPerAgent) {
  EngineOptions gopts;
  gopts.match_workers = 2;
  AgentGroup group(gopts);
  group.add_agent();
  group.add_agent();
  group.load(shared_productions());
  add_agent_wmes(group.agent(0), 0, 6, 0);
  add_agent_wmes(group.agent(1), 1, 6, 0);
  group.step_all();

  obs::MetricsRegistry m;
  group.collect_metrics(m);
  bool saw_a0 = false, saw_a1 = false;
  for (const auto& s : m.metrics()) {
    if (s.name.rfind("agent0.", 0) == 0) saw_a0 = true;
    if (s.name.rfind("agent1.", 0) == 0) saw_a1 = true;
  }
  EXPECT_TRUE(saw_a0);
  EXPECT_TRUE(saw_a1);
  EXPECT_EQ(m.value("group.agents"), 2u);
}

/// TSan lane: 2 agents × stealing workers × interleaved add/remove waves ×
/// a mid-run COW production add. No assertions beyond the differential —
/// the point is the interleavings TSan gets to watch.
TEST(MultiAgentRaceStress, TwoAgentsUnderFullWidthDrains) {
  EngineOptions gopts;
  gopts.match_workers = 8;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  group.load(shared_productions());

  Engine o0, o1;
  o0.load(shared_productions());
  o1.load(shared_productions());

#if defined(__SANITIZE_THREAD__) || defined(PSME_TSAN)
  const int waves = 6;
#else
  const int waves = 12;
#endif
  for (int wave = 0; wave < waves; ++wave) {
    add_agent_wmes(a0, 0, 12, wave);
    add_agent_wmes(o0, 0, 12, wave);
    add_agent_wmes(a1, 1, 12, wave);
    add_agent_wmes(o1, 1, 12, wave);
    if (wave % 2 == 1) {
      remove_every_kth(a0, 5);
      remove_every_kth(o0, 5);
      remove_every_kth(a1, 7);
      remove_every_kth(o1, 7);
    }
    group.step_all();
    o0.match();
    o1.match();

    if (wave == waves / 2) {
      const std::string late =
          "(p stress-late (a ^v <x>) (c ^v <x>) --> (halt))";
      Parser p0(a0.syms(), a0.schemas(), test::test_rhs_arena());
      a0.add_production_runtime(p0.parse_production(late));
      for (Engine* o : {&o0, &o1}) {
        Parser p(o->syms(), o->schemas(), test::test_rhs_arena());
        o->add_production_runtime(p.parse_production(late));
      }
    }
  }
  EXPECT_EQ(cs_fingerprint(a0), cs_fingerprint(o0));
  EXPECT_EQ(cs_fingerprint(a1), cs_fingerprint(o1));
}

/// Destroying a session unregisters it: its siblings keep matching through
/// the shared matcher (which held a pointer to the dead session's state),
/// and the freed id is never handed out again.
TEST(MultiAgentLifecycle, DestroyedSessionIsUnregistered) {
  EngineOptions gopts;
  gopts.match_workers = 4;
  AgentGroup group(gopts);
  auto doomed = std::make_unique<Engine>(group);
  Engine& sibling = group.add_agent();
  group.load(shared_productions());
  Engine oracle;
  oracle.load(shared_productions());
  add_agent_wmes(*doomed, 0, 8, 0);
  add_agent_wmes(sibling, 1, 8, 0);
  add_agent_wmes(oracle, 1, 8, 0);
  group.step_all();
  oracle.match();

  const uint32_t doomed_id = doomed->agent_id();
  doomed.reset();
  EXPECT_EQ(group.agent_count(), 1u);
  for (int wave = 1; wave < 3; ++wave) {
    add_agent_wmes(sibling, 1, 8, wave);
    add_agent_wmes(oracle, 1, 8, wave);
    remove_every_kth(sibling, 3);
    remove_every_kth(oracle, 3);
    if (wave == 1) {
      sibling.match();
    } else {
      group.step_all();
    }
    oracle.match();
    EXPECT_EQ(cs_fingerprint(sibling), cs_fingerprint(oracle))
        << "wave " << wave;
  }
  const Engine& fresh = group.add_agent();
  EXPECT_NE(fresh.agent_id(), doomed_id);
  EXPECT_GT(fresh.agent_id(), sibling.agent_id());
  EXPECT_THROW(group.matcher()->unregister_agent(doomed_id),
               std::invalid_argument);
}

/// A seed tagged with an id the matcher never registered, or has since
/// unregistered, is rejected before any seed is consumed; the matcher then
/// keeps running ordinary cycles.
TEST(MultiAgentLifecycle, RunCycleRejectsUnregisteredSeeds) {
  EngineOptions gopts;
  gopts.match_workers = 2;
  AgentGroup group(gopts);
  Engine& live = group.add_agent();
  uint32_t gone_id = 0;
  {
    Engine gone(group);
    gone_id = gone.agent_id();
  }
  group.load(shared_productions());
  ParallelMatcher& m = *group.matcher();
  for (const uint32_t bad : {gone_id, uint32_t{99}}) {
    std::vector<Activation> seeds(2);
    seeds[0].agent = live.agent_id();
    seeds[1].agent = bad;
    EXPECT_THROW(m.run_cycle(seeds), std::invalid_argument) << "agent " << bad;
    EXPECT_EQ(seeds.size(), 2u) << "no seed may be consumed";
  }
  Engine oracle;
  oracle.load(shared_productions());
  add_agent_wmes(live, 0, 10, 0);
  add_agent_wmes(oracle, 0, 10, 0);
  group.step_all();
  oracle.match();
  EXPECT_EQ(cs_fingerprint(live), cs_fingerprint(oracle));
}

/// A group session's private match() reports its own token arena, not
/// agent 0's.
TEST(MultiAgentObservability, PrivateMatchReportsOwnArena) {
  EngineOptions gopts;
  gopts.match_workers = 2;
  AgentGroup group(gopts);
  group.add_agent();  // agent 0 stays idle
  Engine& busy = group.add_agent();
  // Five CEs: every full token outgrows the inline capacity and spills.
  group.load(
      "(p five (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (e ^v <x>) "
      "--> (halt))");
  for (int i = 0; i < 20; ++i) {
    for (const char* cls : {"a", "b", "c", "d", "e"}) {
      busy.add_wme_text(std::string("(") + cls + " ^v " + std::to_string(i) +
                        ")");
    }
  }
  busy.match();
  const MatchStats own = busy.state().arena.stats();
  EXPECT_GT(own.spill_allocs, 0u);
  EXPECT_EQ(busy.last_parallel_stats().arena.spill_allocs, own.spill_allocs);
  EXPECT_EQ(group.agent(0).state().arena.stats().spill_allocs, 0u);
}

}  // namespace
}  // namespace psme
