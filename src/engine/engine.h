// The production-system engine, post network/state split: an Engine is ONE
// AGENT SESSION — working memory, match state (hash tables, alpha lists,
// token arena), conflict set, RHS executor and pending wme queues — in an
// AgentGroup (engine/agent_group.h) that owns what sessions share; a
// standalone Engine is the single session of a private group. It provides
// the match/select/fire loop (OPS5 mode) plus the primitives the Soar kernel
// drives (batched wme changes, match-to-quiescence, fire-all, run-time
// production addition with the §5.2 state update for EVERY session).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/compiled_network.h"
#include "engine/conflict_set.h"
#include "engine/rhs.h"
#include "engine/trace.h"
#include "engine/working_memory.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "par/parallel_match.h"
#include "rete/add_production.h"
#include "rete/builder.h"
#include "rete/match_state.h"
#include "rete/network.h"
#include "rete/update.h"

namespace psme {

namespace analysis {
struct VerifyReport;
}

class AgentGroup;

/// Vestigial scheduler selector: ParallelMatcher has one scheduler (work
/// stealing), so this enum has one value and nothing reads it. It exists only
/// because perfbench/ sets EngineOptions::match_policy by this name; a later
/// change to the benchmark drops both.
struct TaskQueueSet {
  enum class Policy { Steal };
};

struct EngineOptions {
  size_t hash_lines = 4096;
  BuilderOptions builder;
  bool record_traces = true;

  /// 0 matches serially. N >= 1 builds an N-worker ParallelMatcher with the
  /// group (once; its worker pool persists across cycles), and match(),
  /// step_all() and every §5.2 state update (load onto a live WM, runtime
  /// add) drain through it. Parallel cycles record no per-task trace
  /// (CycleTrace comes back empty), so keep the serial default for psim
  /// trace collection.
  size_t match_workers = 0;
  /// Unread; see TaskQueueSet above.
  TaskQueueSet::Policy match_policy = TaskQueueSet::Policy::Steal;

  /// Scheduler tuning: the idle path's sweep-backoff ladder
  /// (steal.backoff_*) and the dependent-chain split depth
  /// (steal.chain_split_depth; 0 = never split, 1 = split every link).
  /// network_lint's cost table reports each production's chain depth
  /// against this split depth as the tuning hint.
  StealTuning steal;

  /// Tracing (src/obs). When enabled the group owns a Tracer. Track 0
  /// carries a standalone engine's spans (match cycles, drain sub-phases,
  /// chunk compiles, the §5.2 update phases, serial task spans), or a
  /// group's step_all cycles; tracks 1..W the parallel workers'
  /// task/steal/park events; track W+1+id each group session's own spans.
  /// All rings are preallocated (at attach and ParallelMatcher::prewarm),
  /// so tracing preserves the §10 zero-allocation guarantee.
  obs::TraceOptions trace;

  /// Match profiling (obs/profiler.h). When enabled the group owns a
  /// MatchProfiler wired into both executors: every executed task is
  /// attributed to its (node, agent) cell in the executing worker's shard.
  /// Shards grow only at quiescent drain boundaries, so profiling preserves
  /// the §10 guarantee (engine_alloc_test proves it). Read via
  /// profiler()/snapshot at quiescence; production attribution happens at
  /// reporting time (analysis/profile_report.h).
  bool profile = false;
  /// Power-of-two activation TIMING sampling: a worker times every
  /// 2^shift-th task it executes (0 = time all). Counts stay exact either
  /// way; reports scale time per cell. Shift 6 holds profiling overhead
  /// under the always-on budget for resident servers (EXPERIMENTS.md).
  uint32_t profile_sample_shift = 0;
};

class Engine {
 public:
  /// Standalone form: the single session of a private AgentGroup built
  /// from `opts` (network, matcher, tracer and profiler).
  explicit Engine(EngineOptions opts = {});

  /// A new session of `group`: shares its network, matcher, tracer and
  /// profiler, and the group's options govern. Its agent tag is stamped on
  /// every seed. Quiescent-only; the group must outlive the engine, whose
  /// destruction unregisters it.
  explicit Engine(AgentGroup& group);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SymbolTable& syms() { return cnet_.syms(); }
  ClassSchemas& schemas() { return cnet_.schemas(); }
  Network& net() { return cnet_.net(); }
  WorkingMemory& wm() { return wm_; }
  ConflictSet& cs() { return cs_; }
  Builder& builder() { return cnet_.builder(); }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  /// This session's match state (per-agent half of the split).
  MatchState& state() { return state_; }
  [[nodiscard]] const MatchState& state() const { return state_; }
  /// The shared compile-side half.
  CompiledNetwork& network() { return cnet_; }
  /// This session's agent id in its group (0 for a standalone engine).
  [[nodiscard]] uint32_t agent_id() const { return agent_; }
  /// This session's track on tracer().
  [[nodiscard]] uint32_t trace_track() const { return trace_track_; }

  /// Parses and compiles a source string (literalize forms + productions)
  /// into the shared network (AgentGroup::load). Returns the adopted
  /// productions. Throws std::invalid_argument, adopting nothing, when a
  /// production name repeats or is already loaded.
  std::vector<const Production*> load(std::string_view src);

  /// Compilation record of a loaded production.
  [[nodiscard]] const AddRecord& record(const Production* p) const {
    return cnet_.record(p);
  }
  [[nodiscard]] const std::vector<const Production*>& productions() const {
    return cnet_.productions();
  }

  /// Run-time addition (chunking path): compiles `ast` into the live network
  /// copy-on-write on the shared jumptable, then updates every session's
  /// memories from the wmes its network has seen (§5.2) — this session
  /// first, so the returned traces are the learning agent's. Returns the
  /// traces of the update phases (`ab`: alpha+right fill, which may run
  /// concurrently; `c`: the last-shared-node replay, which must follow).
  /// Throws std::invalid_argument, adopting nothing, when `ast`'s name is
  /// already loaded.
  struct RuntimeAddResult {
    const Production* prod = nullptr;
    CycleTrace ab, c;
    double compile_seconds = 0;
    size_t code_bytes = 0;
    uint64_t update_tasks = 0;  // summed over all attached agents
  };
  RuntimeAddResult add_production_runtime(Production&& ast);

  /// Run-time removal (the dual of add_production_runtime; the query
  /// subsystem's churn path and SoarKernel::excise both ride it). Sequence:
  /// plan the dead-set, unsplice it under a COW publish (the safe point —
  /// the production can never fire past it), drain EVERY attached agent's
  /// state for the dead nodes (beta entries with their token unpins, alpha
  /// wme lists, conflict-set instantiations), then free the nodes and drop
  /// the record/AST. Token memory itself is reclaimed by the existing epoch
  /// machinery: the unpins make the dead entries' chunks collectable at the
  /// next arena reclaim boundary. Quiescent-only, like addition; pending
  /// wme changes are allowed and stay pending (they never saw the victim).
  /// Throws std::out_of_range for a production that is not loaded here —
  /// never compiled, already removed, or null — and changes nothing.
  struct RuntimeRemoveResult {
    size_t nodes_removed = 0;    // victim-owned nodes freed (incl. P-node)
    size_t refs_unspliced = 0;   // jumptable successor entries erased
    size_t left_entries = 0;     // beta left entries drained, all agents
    size_t right_entries = 0;    // beta right entries drained, all agents
    size_t alpha_wmes = 0;       // alpha-memory wmes drained, all agents
    size_t instantiations = 0;   // CS instantiations dropped, all agents
  };
  RuntimeRemoveResult remove_production_runtime(const Production* p);

  /// Creates a wme now (visible in wm()) and queues its add for the next
  /// match(). The span form copies straight into a recycled wme (no
  /// temporary vector); the vector form delegates.
  const Wme* add_wme(Symbol cls, const Value* fields, size_t n);
  const Wme* add_wme(Symbol cls, const std::vector<Value>& fields) {
    return add_wme(cls, fields.data(), fields.size());
  }

  /// Convenience: parses a wme literal like "(block ^name b1 ^size 3)".
  const Wme* add_wme_text(std::string_view text);

  /// Removes `w` from WM now and queues its retraction for the next match().
  /// Throws std::invalid_argument for a null `w`.
  void remove_wme(const Wme* w);

  /// Injects all queued changes and runs the match to quiescence. One call
  /// is one "cycle" in the paper's corrected regime: all wme changes of the
  /// cycle are complete before matching starts.
  CycleTrace match();

  /// Fires one instantiation: evaluates its RHS, applies the delta (queues
  /// wme changes), marks it fired. With `remove_after_fire` the
  /// instantiation leaves the CS (OPS5). Returns true if a halt executed.
  bool fire(const Instantiation* inst, bool remove_after_fire,
            bool dedup_adds);

  /// Evaluates an instantiation's RHS without applying anything (the Soar
  /// kernel applies the delta itself to record provenance and levels).
  WmeDelta evaluate(const Instantiation* inst);

  /// See RhsExecutor::set_gensym_hook.
  void set_gensym_hook(std::function<void(Symbol)> fn) {
    rhs_.set_gensym_hook(std::move(fn));
  }

  /// OPS5 top level: match, select (LEX), fire, repeat.
  struct RunResult {
    uint64_t cycles = 0;
    bool halted = false;
  };
  RunResult run(uint64_t max_cycles);

  /// Everything `write` actions printed, in firing order.
  [[nodiscard]] const std::vector<std::string>& output() const {
    return output_;
  }

  [[nodiscard]] bool has_pending_changes() const {
    return !pending_adds_.empty() || !pending_removes_.empty();
  }

  /// True when match() drains on the group's threaded matcher.
  [[nodiscard]] bool parallel() const { return matcher_ != nullptr; }

  /// The group's persistent parallel matcher; nullptr when serial.
  [[nodiscard]] ParallelMatcher* parallel_matcher() const { return matcher_; }
  /// Scheduler statistics of the most recent parallel cycle this session
  /// ran (in a group, step_all's aggregate lands on every participant),
  /// with this session's own arena snapshot.
  [[nodiscard]] const ParallelStats& last_parallel_stats() const {
    return last_parallel_stats_;
  }

  /// The group's tracer; null unless options().trace.enabled. This
  /// session's spans go to track trace_track(). Read rings only at
  /// quiescence.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// The group's match profiler; null unless options().profile. Agent cells
  /// are indexed by agent_id(). Snapshot/reset only at quiescence.
  [[nodiscard]] obs::MatchProfiler* profiler() const { return profiler_; }

  /// Dumps the engine's current stats — last parallel cycle ("par.*"),
  /// token arena ("arena.*"), and for a standalone engine the tracer
  /// ("obs.*") and profiler accounting — into `m`. A group collects its
  /// shared tracer and profiler once (AgentGroup::collect_metrics).
  /// Reporting-time only: allocates, never call from the match hot path.
  void collect_metrics(obs::MetricsRegistry& m) const;

  /// Runs the static network verifier (src/analysis/verify.h) over the live
  /// network, this agent's match state, and all production records.
  /// Quiescent-only, like the §5.2 update. Builds with PSME_NET_VERIFY call
  /// it automatically after every add_production (and after every COW
  /// jumptable publish) and abort on violation; callers (tests,
  /// network_lint) may call it in any build type.
  [[nodiscard]] analysis::VerifyReport verify_network() const;

  /// The records of all loaded productions, in load order (the shape
  /// verify_network and the cost linter consume).
  [[nodiscard]] std::vector<const AddRecord*> all_records() const {
    return cnet_.all_records();
  }

 private:
  friend class AgentGroup;

  Engine(AgentGroup* group, std::unique_ptr<AgentGroup> own);
  void apply_delta(const WmeDelta& delta, bool dedup_adds);
  /// Injects this session's pending removes (adds=false) or adds
  /// (adds=true) as agent-tagged seeds into `out`; the queues stay.
  void inject_pending(bool adds, std::vector<Activation>& out);
  /// Clears the pending queues and closes the wme cycle (after the drains).
  void close_cycle();
  /// The wmes the network has matched: the live ones minus the pending
  /// adds, plus the pending removes, in timetag order.
  [[nodiscard]] std::vector<const Wme*> matched_wmes() const;
  /// One agent's §5.2 state update after a load or runtime add, drained
  /// through this agent's executor (the persistent serial one, or the
  /// matcher). Returns executed task count; fills `res` (traces) when
  /// non-null (the learning agent).
  uint64_t apply_runtime_update(const CompiledProduction& cp,
                                RuntimeAddResult* res);

  std::unique_ptr<AgentGroup> own_group_;  // a standalone engine's group
  AgentGroup& group_;
  CompiledNetwork& cnet_;
  const EngineOptions& opts_;  // the group's
  ParallelMatcher* matcher_;   // the group's; null when serial
  obs::Tracer* tracer_;        // the group's; null unless trace.enabled
  obs::MatchProfiler* profiler_;  // the group's; null unless profile
  MatchState state_;  // the per-agent half: tables, alpha lists, arena, sink
  WorkingMemory wm_;
  ConflictSet cs_;
  RhsExecutor rhs_;
  std::vector<const Wme*> pending_adds_;
  std::vector<const Wme*> pending_removes_;
  std::vector<std::string> output_;
  ParallelStats last_parallel_stats_;
  // Steady-state scratch, alive for the Engine's lifetime so repeated
  // cycles reuse high-water capacity (DESIGN.md §10): the serial executor
  // (ring + trace state), the per-cycle seed vector, and the fire delta.
  TraceExecutor serial_exec_;
  std::vector<Activation> seed_scratch_;
  WmeDelta fire_delta_;
  UpdateScratch update_scratch_;  // §5.2 update seeds, capacity reused
  uint32_t agent_ = 0;        // id in the group; the tag on every seed
  uint32_t trace_track_ = 0;  // this session's track on tracer_
};

}  // namespace psme
