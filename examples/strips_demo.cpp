// Strips-Soar planning demo with a decision-by-decision trace: watch the
// robot walk the corridor, open doors and push the box, with chunking on.
//
//   $ ./strips_demo [--stats]
//   $ PSME_TRACE=trace.json ./strips_demo
#include <cstdio>
#include <cstring>

#include "obs/export.h"
#include "tasks/registry.h"

using namespace psme;

int main(int argc, char** argv) {
  bool want_stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else {
      std::fprintf(stderr, "strips_demo: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  Task task = make_strips();
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = task.max_decisions;
  opts.engine.trace.enabled = obs::env_trace_path() != nullptr;
  SoarKernel kernel(opts);
  kernel.load_productions(task.productions);
  task.init(kernel);

  std::printf("Strips-Soar: %zu productions; push box 1 down the corridor "
              "to the last room.\n\n",
              kernel.engine().productions().size());

  int dec = 0;
  kernel.set_decision_listener([&dec](SoarKernel& k) {
    Engine& e = k.engine();
    const auto& g = k.goal_stack().front();
    ++dec;
    if (!g.op.valid()) {
      if (k.goal_stack().size() > 1) {
        std::printf("%3d: tie impasse -> selection subgoal\n", dec);
      }
      return;
    }
    // Describe the installed operator.
    std::string name, door, room;
    for (const Wme* w : e.wm().live()) {
      if (!w->field(0).is_sym() || w->field(0).sym() != g.op) continue;
      const std::string attr(e.syms().name(w->field(1).sym()));
      const std::string val = w->field(2).to_string(e.syms());
      if (attr == "name") name = val;
      if (attr == "door") door = val;
      if (attr == "to-room") room = val;
    }
    std::printf("%3d: %s%s%s\n", dec, name.c_str(),
                door.empty() ? "" : (" door " + door).c_str(),
                room.empty() ? "" : (" -> " + room).c_str());
  });

  const auto stats = kernel.run();
  std::printf("\nsolved=%s in %llu decisions, %llu impasses, %llu chunks "
              "learned\n",
              stats.goal_achieved ? "yes" : "no",
              static_cast<unsigned long long>(stats.decisions),
              static_cast<unsigned long long>(stats.impasses),
              static_cast<unsigned long long>(stats.chunks_built));

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
