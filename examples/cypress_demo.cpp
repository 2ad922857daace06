// Cypress-surrogate demo: algorithm-design-style derivation search with
// chunking, showing the derivation tree the run builds and the learned
// rule-selection chunks.
//
//   $ ./cypress_demo [--stats]
//   $ PSME_TRACE=trace.json ./cypress_demo
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "obs/export.h"
#include "tasks/registry.h"

using namespace psme;

int main(int argc, char** argv) {
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else {
      std::fprintf(stderr, "cypress_demo: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  Task task = make_cypress();
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = task.max_decisions;
  opts.engine.trace.enabled = obs::env_trace_path() != nullptr;
  SoarKernel kernel(opts);
  kernel.load_productions(task.productions);
  task.init(kernel);

  std::printf("Cypress surrogate: %zu productions, deriving a "
              "divide-and-conquer design tree.\n\n",
              kernel.engine().productions().size());

  const auto stats = kernel.run();

  // Reconstruct the derivation tree from working memory.
  Engine& e = kernel.engine();
  const Symbol wme = e.syms().find("wme");
  const Symbol attr_child = e.syms().find("child");
  const Symbol attr_type = e.syms().find("type");
  const Symbol attr_root = e.syms().find("root");
  std::map<Symbol, std::vector<Symbol>> children;
  std::map<Symbol, std::string> type_of;
  Symbol root;
  for (const Wme* w : e.wm().live()) {
    if (w->cls != wme) continue;
    if (w->field(1) == Value(attr_child)) {
      children[w->field(0).sym()].push_back(w->field(2).sym());
    } else if (w->field(1) == Value(attr_type)) {
      type_of[w->field(0).sym()] = w->field(2).to_string(e.syms());
    } else if (w->field(1) == Value(attr_root)) {
      root = w->field(2).sym();
    }
  }
  std::function<void(Symbol, int)> show = [&](Symbol n, int depth) {
    if (depth > 2) {  // keep the printout small
      if (!children[n].empty()) {
        std::printf("%*s...\n", 2 * depth + 2, "");
      }
      return;
    }
    std::printf("%*s%s (%s)\n", 2 * depth, "",
                std::string(e.syms().name(n)).c_str(),
                type_of.count(n) != 0 ? type_of[n].c_str() : "?");
    for (Symbol c : children[n]) show(c, depth + 1);
  };
  if (root.valid()) {
    std::printf("derivation tree (truncated at depth 2):\n");
    show(root, 0);
  }

  std::printf("\nderived=%s  decisions %llu  elaboration cycles %llu  "
              "chunks %llu\n",
              stats.goal_achieved ? "yes" : "no",
              static_cast<unsigned long long>(stats.decisions),
              static_cast<unsigned long long>(stats.elab_cycles),
              static_cast<unsigned long long>(stats.chunks_built));
  if (!stats.chunk_texts.empty()) {
    std::printf("\nfirst learned rule-selection chunk:\n%s\n",
                stats.chunk_texts.front().c_str());
  }

  if (want_stats) {
    obs::MetricsRegistry metrics;
    obs::collect(metrics, stats);
    kernel.engine().collect_metrics(metrics);
    std::printf("\nend-of-run metrics:\n");
    obs::print_metrics_table(metrics, stdout);
  }
  if (kernel.engine().tracer() != nullptr) {
    obs::export_env_trace(*kernel.engine().tracer());
  }
  return 0;
}
