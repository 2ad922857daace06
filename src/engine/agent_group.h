// Multi-agent serving: N agent sessions (Engines) over ONE CompiledNetwork
// and ONE persistent ParallelMatcher. The group owns what sessions share —
// the network, the matcher (when match_workers > 0), the tracer, the
// profiler — and the one list of attached sessions; a standalone Engine is
// the single session of a private group. Each session keeps its own
// WorkingMemory, MatchState and ConflictSet, and every task carries its
// agent tag, so one session's drain can neither observe nor stall another's.
//
// One drain runs the threaded cycle for any set of sessions: all their
// removals, then all their additions. Engine::match() runs it for one
// session; step_all() for every session, paying the pool's fork-join
// dispatch once per group cycle instead of once per session. Runtime chunk
// addition from any session is copy-on-write on the shared jumptable, then a
// §5.2 state update per session. Destroying a session unregisters it; ids
// are never reused.
//
// Trace tracks: 0 = coordinator (or a standalone engine), 1..W = workers,
// W+1+id = group sessions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "engine/engine.h"

namespace psme {

class AgentGroup {
 public:
  /// `opts` governs every session: match_workers/steal build the shared
  /// matcher, trace/profile the shared tracer and profiler, and the rest
  /// (hash_lines, record_traces, builder) apply per session or to the
  /// network.
  /// Sessions constructed with Engine(group) must be destroyed before the
  /// group; the add_agent() ones die with it.
  explicit AgentGroup(EngineOptions opts = {});
  AgentGroup(const AgentGroup&) = delete;
  AgentGroup& operator=(const AgentGroup&) = delete;

  /// Creates a new group-owned session, valid for the group's lifetime.
  /// Quiescent-only.
  Engine& add_agent();

  /// Attached sessions, in attach order (agent(i).agent_id() == i until a
  /// session detaches).
  [[nodiscard]] size_t agent_count() const { return sessions_.size(); }
  Engine& agent(size_t i) { return *sessions_[i]; }
  [[nodiscard]] const Engine& agent(size_t i) const { return *sessions_[i]; }

  CompiledNetwork& network() { return *cnet_; }
  /// The shared matcher; null when options().match_workers == 0.
  [[nodiscard]] ParallelMatcher* matcher() const { return matcher_.get(); }
  /// Null unless options().trace.enabled.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }
  /// Null unless options().profile. Snapshot/reset only between step_all
  /// calls (quiescence); agent cells are indexed by agent_id().
  [[nodiscard]] obs::MatchProfiler* profiler() const {
    return profiler_.get();
  }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  /// Loads productions into the shared network (visible to every session).
  /// Every session whose network holds wmes gets the §5.2 memory update.
  std::vector<const Production*> load(std::string_view src);

  /// One group cycle. Threaded: drains every session's pending removals in
  /// one shared cycle, then every session's pending additions in another;
  /// each session ends exactly as if it had run Engine::match() alone.
  /// Returns the accumulated scheduler stats of both drains (also stored on
  /// every session as last_parallel_stats(), with the session's own arena).
  /// Serial: runs each session's match() and returns empty stats.
  ParallelStats step_all();

  /// Every session's metrics under "agentN.*" plus the group's own
  /// ("group.agents", "group.cow_publishes", shared-tracer "obs.*").
  void collect_metrics(obs::MetricsRegistry& m) const;

 private:
  friend class Engine;

  /// Registers `e` with the matcher and the profiler; returns its id.
  uint32_t attach(Engine& e);
  /// Unregisters `e` from the matcher and the session list.
  void detach(Engine& e);
  /// The threaded cycle for `sessions`: removals drain, then additions
  /// drain, with the drain spans on `track`.
  ParallelStats drain(std::span<Engine* const> sessions, uint32_t track);
  /// The §5.2 update of a new production for `first` (when non-null; its
  /// traces land in `res`) and then every other session holding wmes.
  uint64_t update_sessions(const CompiledProduction& cp, Engine* first,
                           Engine::RuntimeAddResult* res);
  /// PSME_NET_VERIFY hook: verifies every session's view of the network
  /// and aborts with the full report on a violation.
  void debug_verify(const char* action, std::string_view name) const;

  EngineOptions opts_;
  // Held on the heap: embedding it by value measured slower on query churn.
  std::unique_ptr<CompiledNetwork> cnet_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MatchProfiler> profiler_;
  std::unique_ptr<ParallelMatcher> matcher_;
  std::vector<Engine*> sessions_;  // every attached session
  // add_agent()'s sessions. Declared after sessions_ and matcher_, so they
  // detach while both are still alive.
  std::vector<std::unique_ptr<Engine>> owned_;
  uint32_t next_agent_ = 0;                     // ids are never reused
  std::vector<Activation> seed_scratch_;  // drain seeds, capacity reused
};

}  // namespace psme
