// Shared test helpers.
#pragma once

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "lang/ast.h"
#include "rete/update.h"

namespace psme::test {

/// Arena for RHS actions of productions parsed outside an Engine::load.
/// Static so it outlives every Production that references its nodes (tests
/// used to `new` one per parse and leak it, which LeakSanitizer flags).
inline RhsArena& test_rhs_arena() {
  static RhsArena arena;
  return arena;
}

/// Names of productions with at least one instantiation in the CS.
inline std::multiset<std::string> matched_productions(Engine& e) {
  std::multiset<std::string> out;
  for (const Instantiation* inst : e.cs().all()) {
    out.insert(std::string(e.syms().name(inst->pnode->prod->name)));
  }
  return out;
}

/// Number of instantiations of production `name` currently in the CS.
inline int instantiation_count(Engine& e, const std::string& name) {
  int n = 0;
  for (const Instantiation* inst : e.cs().all()) {
    if (e.syms().name(inst->pnode->prod->name) == name) ++n;
  }
  return n;
}

/// A canonical dump of the CS: production name + wme contents (in CE order).
/// Content-based so it is comparable across engines with different timetags
/// and symbol tables. Used for serial-vs-parallel and incremental-vs-rebuild
/// equivalence checks.
inline std::multiset<std::string> cs_fingerprint(Engine& e) {
  std::multiset<std::string> out;
  for (const Instantiation* inst : e.cs().all()) {
    std::string s(e.syms().name(inst->pnode->prod->name));
    for (const Wme* w : inst->token) {
      s += "|" + w->to_string(e.syms(), e.schemas());
    }
    out.insert(s);
  }
  return out;
}

/// A run_update_phases drain: each phase drains through `m` when non-null,
/// else serially through `serial`. Returns the phase's task count.
inline auto update_drain(TraceExecutor& serial, ParallelMatcher* m) {
  return [&serial, m](std::vector<Activation>& seeds, const UpdateFilter& f,
                      UpdatePhase) -> uint64_t {
    if (m != nullptr) return m->run_cycle(seeds, &f).tasks;
    const uint64_t before = serial.executed();
    serial.run_to_quiescence(seeds, &f);
    return serial.executed() - before;
  };
}

/// Runs the §5.2 update of `cp` (compiled straight through e.builder(), so
/// no engine path has updated any state yet) on `e`'s memories from its
/// live WM, through `m` or a fresh serial executor. Returns the task count.
inline uint64_t update_state(Engine& e, const CompiledProduction& cp,
                             ParallelMatcher* m = nullptr) {
  TraceExecutor serial(e.net(), e.state(), /*record_tasks=*/false);
  UpdateScratch scratch;
  return run_update_phases(e.net(), e.state(), cp, e.wm().live(),
                           e.agent_id(), scratch, update_drain(serial, m));
}

}  // namespace psme::test
