// Quickstart: load OPS5-style productions from text, add working memory,
// run the match-select-fire loop, and inspect what happened.
//
//   $ ./quickstart [--stats]
//   $ PSME_TRACE=trace.json ./quickstart   # Perfetto-loadable trace
//
// This is the paper's Figure 2-1 example grown into a tiny blocks-world
// program: find a graspable block, grasp it, and announce the result.
#include <cstdio>
#include <cstring>

#include "engine/engine.h"
#include "obs/export.h"

int main(int argc, char** argv) {
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else {
      std::fprintf(stderr, "quickstart: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  psme::EngineOptions opts;
  opts.trace.enabled = psme::obs::env_trace_path() != nullptr;
  psme::Engine engine(opts);

  // Productions (see README for the full grammar). Note the negated CE:
  // a block is graspable only if nothing is on it.
  engine.load(R"(
    (p blue-block-is-graspable
      (block ^name <b> ^color blue)
      -(block ^on <b>)
      (hand ^state free)
      -->
      (write block <b> is graspable)
      (make goal ^grasp <b>))

    (p grasp-block
      (goal ^grasp <b>)
      (block ^name <b>)
      (hand ^state free ^name <h>)
      -->
      (modify 3 ^state holding)
      (remove 1)
      (write hand <h> grasps <b>))

    (p done
      (hand ^state holding)
      -->
      (write all done)
      (halt))
  )");

  // Working memory: two blue blocks, one of them covered, and a free hand.
  engine.add_wme_text("(block ^name b1 ^color blue)");
  engine.add_wme_text("(block ^name b2 ^color blue)");
  engine.add_wme_text("(block ^name b3 ^color red ^on b2)");
  engine.add_wme_text("(hand ^name robot-1-hand ^state free)");

  // Match once and show the conflict set before firing anything.
  engine.match();
  std::printf("conflict set after the first match (%zu instantiations):\n",
              engine.cs().size());
  for (const psme::Instantiation* inst : engine.cs().all()) {
    std::printf("  %s  %s\n",
                std::string(engine.syms().name(inst->pnode->prod->name)).c_str(),
                token_to_string(inst->token, engine.syms(), engine.schemas())
                    .c_str());
  }

  // Run the recognize-act loop (LEX conflict resolution) to completion.
  const auto result = engine.run(100);
  std::printf("\nran %llu cycles, halted=%s\n",
              static_cast<unsigned long long>(result.cycles),
              result.halted ? "yes" : "no");
  std::printf("\noutput:\n");
  for (const auto& line : engine.output()) {
    std::printf("  %s\n", line.c_str());
  }

  std::printf("\nfinal working memory:\n");
  for (const psme::Wme* w : engine.wm().live()) {
    std::printf("  %s\n",
                w->to_string(engine.syms(), engine.schemas()).c_str());
  }

  if (want_stats) {
    psme::obs::MetricsRegistry metrics;
    engine.collect_metrics(metrics);
    std::printf("\nend-of-run metrics:\n");
    psme::obs::print_metrics_table(metrics, stdout);
  }
  if (engine.tracer() != nullptr) {
    psme::obs::export_env_trace(*engine.tracer());
  }
  return 0;
}
