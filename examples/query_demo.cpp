// Transient-query demo: epmem-style cue matching over a live Rete.
//
//   $ ./query_demo [--stats] [--profile]
//
// Builds a small blocks-world working memory, then asks three cues through
// QuerySession — one that matches fully (a graph match), one that matches
// only partially (graded retrieval: the score counts how many leading CEs
// some combination of wmes satisfies), and one that matches nothing. Each
// cue is compiled into a TEMPORARY production (the §5.2 update that brings
// its memories up to date IS the evaluation) and torn back out through
// run-time production removal; the demo prints the network's node count
// before and after to show the add/remove cycle leaves no residue.
//
// --profile turns the runtime match profiler on (full rate) and prints,
// for every cue, the measured cost of each condition element: the join
// node that prices CE i (QuerySession::ce_join_nodes), its activations and
// estimated microseconds over exactly this query's evaluation window
// (snapshot-diff around the cue, so shared-prefix nodes don't leak the
// residents' cost into the cue's bill).
#include <cstdio>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "query/query.h"

using namespace psme;

namespace {

void ask_and_print(QuerySession& q, const char* label, const char* cue,
                   Engine& engine) {
  std::printf("\ncue [%s]:\n  %s\n", label, cue);

  const obs::MatchProfiler* prof = engine.profiler();
  obs::ProfileSnapshot before, after;
  if (prof != nullptr) prof->snapshot_into(before);

  q.begin(cue);
  const std::vector<uint32_t> anchors = q.ce_join_nodes();
  const uint32_t score = q.score();
  const uint32_t ces = q.positive_ces();
  const std::vector<QueryMatch> matches = q.matches();
  if (prof != nullptr) prof->snapshot_into(after);

  std::printf("  score %u of %u CE%s — %s\n", score, ces,
              ces == 1 ? "" : "s",
              ces > 0 && score == ces ? "full graph match"
              : score > 0             ? "partial match (graded retrieval)"
                                      : "no match");
  for (const QueryMatch& m : matches) {
    std::printf("  match:\n");
    for (const Wme* w : m.wmes) {
      std::printf("    %s\n",
                  w->to_string(engine.syms(), engine.schemas()).c_str());
    }
  }

  if (prof != nullptr) {
    std::printf("  per-CE measured cost (this query's evaluation only):\n");
    for (size_t i = 0; i < anchors.size(); ++i) {
      const uint32_t id = anchors[i];
      if (id == UINT32_MAX || id >= after.nodes.size()) {
        std::printf("    ce %zu: (unresolved)\n", i);
        continue;
      }
      const obs::ProfileCell& na = after.nodes[id];
      obs::ProfileCell nb;
      if (id < before.nodes.size()) nb = before.nodes[id];
      std::printf("    ce %zu: node %u, %llu activations, %.2f est_us\n", i,
                  id,
                  static_cast<unsigned long long>(na.activations -
                                                  nb.activations),
                  (obs::ProfileSnapshot::est_ns(na) -
                   obs::ProfileSnapshot::est_ns(nb)) /
                      1e3);
    }
  }

  const auto rem = q.end();
  std::printf("  churn: %zu nodes removed at teardown, %zu memory entries "
              "drained\n",
              rem.nodes_removed,
              rem.left_entries + rem.right_entries + rem.alpha_wmes);
}

}  // namespace

int main(int argc, char** argv) {
  bool want_stats = false;
  bool want_profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      want_profile = true;
    } else {
      std::fprintf(stderr, "query_demo: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  EngineOptions eo;
  eo.profile = want_profile;  // full rate: every activation timed
  Engine engine(eo);

  // A resident production so the network is non-trivial and cues can share
  // alpha/beta prefixes with permanent structure.
  engine.load(R"(
    (p resident-stack-watcher
      (block ^name <b> ^color blue)
      (block ^on <b> ^name <t>)
      -->
      (write <t> sits on blue <b>))
  )");

  // The episode being queried: a three-block stack and a free gripper.
  engine.add_wme_text("(block ^name b1 ^color blue)");
  engine.add_wme_text("(block ^name b2 ^color red ^on b1)");
  engine.add_wme_text("(block ^name b3 ^color green ^on b2)");
  engine.add_wme_text("(gripper ^name g1 ^state free)");
  engine.match();

  const uint32_t nodes_before = engine.net().live_node_count();
  std::printf("network before queries: %u live nodes\n", nodes_before);

  QuerySession q(engine);

  // Full match: both CEs are satisfiable together (b2 on blue b1).
  ask_and_print(q, "full",
                "(block ^name <b> ^color blue) (block ^on <b> ^name <t>)",
                engine);

  // Partial match: the first two CEs join (depth 2), but nothing holds b2.
  ask_and_print(q, "partial",
                "(block ^name <b> ^color blue) (block ^on <b> ^name <t>) "
                "(gripper ^holding <t>)",
                engine);

  // No match: there is no pyramid anywhere in this episode.
  ask_and_print(q, "miss", "(pyramid ^name <p>)", engine);

  const uint32_t nodes_after = engine.net().live_node_count();
  std::printf("\nnetwork after queries: %u live nodes (%+d)\n", nodes_after,
              static_cast<int>(nodes_after) - static_cast<int>(nodes_before));

  if (want_stats) {
    obs::MetricsRegistry metrics;
    engine.collect_metrics(metrics);
    std::printf("\nend-of-run metrics:\n");
    obs::print_metrics_table(metrics, stdout);
  }
  return nodes_after == nodes_before ? 0 : 1;
}
