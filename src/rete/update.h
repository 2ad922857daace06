// Run-time update of state for a newly added production (§5.2).
//
// The update re-runs working memory through the normal network under the
// task filter (activations of stateful nodes older than the first new node
// are ignored; see Network::should_execute), then specially executes the
// last shared node, replaying the partial instantiations it stores down to
// the new nodes only. Because it reuses the ordinary task machinery, the
// full parallelism of the match is available to the update — this is what
// Figure 6-9 measures.
//
// Phase order matters, and run_update_phases below is the one place that
// writes it down:
//   A. alpha seeds, drained with suppress_alpha_left set: fills new alpha
//      memories and the right memories of new two-input nodes fed by them.
//   B. right seeds, drained: fills right memories of new two-input nodes fed
//      by *old* (shared) alpha memories.
//   C. left seeds (computed only after A and B have drained), drained: the
//      last-shared-node replay. Left tokens now meet fully-populated right
//      memories, so no match can be missed and no duplicate state is added.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "rete/builder.h"
#include "rete/network.h"

namespace psme {

/// Reusable buffers for the three-phase update. A system that chunks
/// continuously (the paper's whole premise) runs the §5.2 update once per
/// chunk; holding one of these per engine keeps the seed vector and the
/// phase-C output buffer at their high-water capacity instead of
/// reallocating them per addition (tests/rete_update_test.cpp asserts the
/// whole update stays allocation-flat through either executor).
struct UpdateScratch {
  std::vector<Activation> seeds;
  std::vector<Token> outputs;  // phase-C node_outputs_into target
};

/// Phase A seeds: for each new alpha-network chain, every wme of the right
/// class that passes the shared prefix tests is appended to `out`, seeded at
/// the chain's entry node. Evaluating the prefix synthetically is the
/// run-time equivalent of the paper's queue filter, under which activations
/// of pre-existing nodes are never executed ("the task queues are changed to
/// ignore tasks with IDs less than the first new node").
void update_alpha_seeds(const CompiledProduction& cp,
                        const std::vector<const Wme*>& wm,
                        std::vector<Activation>& out, uint32_t agent = 0);

/// Phase B seeds, appended to `out`. Quiescent-only: reads `ms`'s alpha
/// memories without their locks (the §5.2 contract — structural add and
/// seeding happen while match is quiescent). The update fills one agent's
/// memories from that agent's WM; a shared network with N attached agents
/// runs the three phases once per agent.
void update_right_seeds(const Network& net, const MatchState& ms,
                        const CompiledProduction& cp,
                        std::vector<Activation>& out, uint32_t agent = 0)
    PSME_NO_THREAD_SAFETY_ANALYSIS;

/// Phase C seeds: the share point's stored outputs land in
/// `scratch.outputs`, the replay seeds in `scratch.seeds` (both cleared
/// first, capacity retained). Must be called after phases A and B have
/// fully drained.
void update_left_seeds(const Network& net, const MatchState& ms,
                       const CompiledProduction& cp, UpdateScratch& scratch,
                       uint32_t agent = 0);

/// The §5.2 phases of a drain, in order (the serial engine files A and B
/// into one trace, C into another).
enum class UpdatePhase : uint8_t { A, B, C };

/// The §5.2 state update of one agent's `ms` for the freshly compiled `cp`,
/// from that agent's working-memory snapshot `wm`. Builds each phase's seeds
/// (tagged `agent`) into `scratch` and drains them through the caller's
/// executor as `drain(seeds, filter, phase)`, which returns the number of
/// tasks it executed — so the serial executor and the threaded matcher run
/// the same update. A non-null `tracer` records one UpdateA/B/C span per
/// phase into `track`, so Perfetto shows where a chunk's state update spent
/// its time. Returns the total task count. Past `scratch`'s high-water
/// capacity this function itself never touches the heap; the drain is a
/// template parameter, not a type-erased callable, for the same reason.
template <typename Drain>
uint64_t run_update_phases(const Network& net, MatchState& ms,
                           const CompiledProduction& cp,
                           const std::vector<const Wme*>& wm, uint32_t agent,
                           UpdateScratch& scratch, Drain&& drain,
                           obs::Tracer* tracer = nullptr, size_t track = 0) {
  ms.ensure_alpha(net.alpha_mem_count());
  const UpdateFilter phase_a{cp.first_new_id, /*suppress_alpha_left=*/true};
  const UpdateFilter phase_bc{cp.first_new_id, /*suppress_alpha_left=*/false};
  uint64_t tasks = 0;
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateA, cp.first_new_id);
    scratch.seeds.clear();
    update_alpha_seeds(cp, wm, scratch.seeds, agent);
    tasks += drain(scratch.seeds, phase_a, UpdatePhase::A);
  }
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateB, cp.first_new_id);
    scratch.seeds.clear();
    update_right_seeds(net, ms, cp, scratch.seeds, agent);
    tasks += drain(scratch.seeds, phase_bc, UpdatePhase::B);
  }
  {
    obs::Span span(tracer, track, obs::EventKind::UpdateC, cp.first_new_id);
    update_left_seeds(net, ms, cp, scratch, agent);
    tasks += drain(scratch.seeds, phase_bc, UpdatePhase::C);
  }
  return tasks;
}

}  // namespace psme
