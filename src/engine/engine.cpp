#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "analysis/verify.h"
#include "engine/agent_group.h"

namespace psme {
namespace {

class CollectCtx final : public ExecContext {
 public:
  CollectCtx(std::vector<Activation>& out, uint32_t agent_tag) : out_(out) {
    agent = agent_tag;
  }
  void emit(Activation&& a) override { out_.push_back(std::move(a)); }

 private:
  std::vector<Activation>& out_;
};

}  // namespace

Engine::Engine(EngineOptions opts)
    : Engine(nullptr, std::make_unique<AgentGroup>(std::move(opts))) {}

Engine::Engine(AgentGroup& group) : Engine(&group, nullptr) {}

Engine::Engine(AgentGroup* group, std::unique_ptr<AgentGroup> own)
    : own_group_(std::move(own)),
      group_(group != nullptr ? *group : *own_group_),
      cnet_(group_.network()),
      opts_(group_.options()),
      matcher_(group_.matcher()),
      tracer_(group_.tracer()),
      profiler_(group_.profiler()),
      state_(opts_.hash_lines),
      rhs_(cnet_.syms(), cnet_.schemas()),
      serial_exec_(cnet_.net(), state_, opts_.record_traces) {
  state_.sink = &cs_;
  state_.ensure_alpha(net().alpha_mem_count());
  agent_ = group_.attach(*this);
  if (tracer_ != nullptr) {
    // A standalone engine traces on track 0; group sessions after the W
    // worker tracks, on W+1+id.
    if (own_group_ == nullptr) {
      const size_t workers = matcher_ != nullptr ? matcher_->workers() : 0;
      trace_track_ = static_cast<uint32_t>(1 + workers + agent_);
      tracer_->ensure_tracks(trace_track_ + 1);
    }
    serial_exec_.set_tracer(tracer_, trace_track_);
  }
  serial_exec_.set_profiler(profiler_);
}

Engine::~Engine() { group_.detach(*this); }

std::vector<const Production*> Engine::load(std::string_view src) {
  return group_.load(src);
}

analysis::VerifyReport Engine::verify_network() const {
  return analysis::verify_network(cnet_.net(), &state_, cnet_.all_records());
}

Engine::RuntimeAddResult Engine::add_production_runtime(Production&& ast) {
  RuntimeAddResult res;
  const Production* p = cnet_.adopt(std::move(ast));
  obs::Span compile_span(tracer_, trace_track_, obs::EventKind::ChunkCompile);
  // Copy-on-write splice + publish; the publish is this call's quiescent
  // safe point (no agent has a cycle in flight — quiescent-only contract).
  const CompiledProduction& cp = cnet_.compile_cow(p).compiled;
  compile_span.set_node(cp.first_new_id);
  compile_span.end();
  res.prod = p;
  res.compile_seconds = cp.compile_seconds;
  res.code_bytes = cp.code_bytes();
  // §5.2 state update for every session, the learning agent first so the
  // returned traces are its own. A learning agent therefore never blocks a
  // peer's *matching* (the publish is the only shared mutation); peers pay
  // only their own memory fill, at their next safe point — here, since the
  // whole group is quiescent during a runtime add.
  res.update_tasks = group_.update_sessions(cp, this, &res);
#if PSME_NET_VERIFY
  // compile_cow already verified the structure; re-verify against every
  // session's state (stale-entry and lock-rank checks).
  group_.debug_verify("adding", syms().name(p->name));
#endif
  return res;
}

std::vector<const Wme*> Engine::matched_wmes() const {
  std::vector<const Wme*> seen = wm_.live();
  if (!has_pending_changes()) return seen;
  // Pending adds reach the network at the next match(); pending removes
  // are still in it until then.
  std::erase_if(seen, [this](const Wme* w) {
    return std::ranges::find(pending_adds_, w) != pending_adds_.end();
  });
  seen.insert(seen.end(), pending_removes_.begin(), pending_removes_.end());
  std::ranges::sort(seen, {}, &Wme::timetag);
  return seen;
}

uint64_t Engine::apply_runtime_update(const CompiledProduction& cp,
                                      RuntimeAddResult* res) {
  const std::vector<const Wme*> wm_snapshot = matched_wmes();
  if (parallel()) {
    // The §5.2 state update with full match parallelism (Figure 6-9's
    // regime): every phase is one threaded drain under the task filter.
    ParallelMatcher& m = *matcher_;
    return run_update_phases(
        net(), state_, cp, wm_snapshot, agent_, update_scratch_,
        [&m](std::vector<Activation>& seeds, const UpdateFilter& filter,
             UpdatePhase) { return m.run_cycle(seeds, &filter).tasks; },
        tracer_, trace_track_);
  }
  // The persistent serial executor records the update's task DAG: phases A
  // and B (which may run concurrently) into `ab`, the replay into `c`. Its
  // profiler matters too: the §5.2 update IS the evaluation for a transient
  // query, so without it a cue's new-node activations would be invisible to
  // the per-CE costing (query_demo --profile).
  CycleTrace ab, c;
  const uint64_t tasks = run_update_phases(
      net(), state_, cp, wm_snapshot, agent_, update_scratch_,
      [&](std::vector<Activation>& seeds, const UpdateFilter& filter,
          UpdatePhase phase) {
        const uint64_t before = serial_exec_.executed();
        CycleTrace t = serial_exec_.run_to_quiescence(seeds, &filter);
        switch (phase) {
          case UpdatePhase::A: ab = std::move(t); break;
          case UpdatePhase::B: ab.append(std::move(t)); break;
          case UpdatePhase::C: c = std::move(t); break;
        }
        return serial_exec_.executed() - before;
      },
      tracer_, trace_track_);
  if (res != nullptr) {
    res->ab = std::move(ab);
    res->c = std::move(c);
  }
  return tasks;
}

Engine::RuntimeRemoveResult Engine::remove_production_runtime(
    const Production* p) {
  RuntimeRemoveResult res;
  obs::Span remove_span(tracer_, trace_track_, obs::EventKind::ProdRemove);
  // Plan + unsplice under COW; the publish inside is the safe point. Past
  // it the victim can never fire, but its nodes are still alive — agents
  // drain their state against them before anything is freed. unsplice_cow
  // rejects a production that is not loaded (null, or already removed)
  // before anything dereferences `p`.
  const RemovePlan plan = cnet_.unsplice_cow(p, &res.refs_unspliced);
#if PSME_NET_VERIFY
  // The AST dies in finish_removal; keep the name for diagnostics.
  const std::string name(syms().name(p->name));
#endif
  remove_span.set_node(plan.pnode);
  const auto* pnode = static_cast<const ProdNode*>(net().node(plan.pnode));
  for (Engine* agent : group_.sessions_) {
    // Beta memories: erase_left unpins each drained token, which is what
    // lets the next epoch boundary reclaim the dead partial instantiations.
    const auto counts = agent->state_.tables.purge_nodes(plan.dead_mask);
    res.left_entries += counts.left;
    res.right_entries += counts.right;
    for (uint32_t mi : plan.dead_alpha_mems) {
      // An agent that never matched since the add may not have grown its
      // alpha array to cover this index yet — nothing to drain then.
      if (mi >= agent->state_.alpha_count()) continue;
      AlphaMemState& ams = agent->state_.alpha(mi);
      SpinGuard g(ams.lock);
      res.alpha_wmes += ams.wmes.size();
      ams.wmes.clear(agent->state_.alpha_pool);
    }
    res.instantiations += agent->cs_.purge_production(pnode);
  }
  res.nodes_removed = plan.dead_nodes.size();
  cnet_.finish_removal(plan, p);
  remove_span.end();
#if PSME_NET_VERIFY
  // The drain touched every session's state, so every view must be clean.
  group_.debug_verify("removing", name);
#endif
  return res;
}

const Wme* Engine::add_wme(Symbol cls, const Value* fields, size_t n) {
  const Wme* w = wm_.add(cls, fields, n);
  pending_adds_.push_back(w);
  return w;
}

const Wme* Engine::add_wme_text(std::string_view text) {
  const auto toks = lex(text);
  size_t i = 0;
  auto expect = [&](Tok k, const char* what) {
    if (toks[i].kind != k) {
      throw ParseError(std::string("wme literal: expected ") + what,
                       toks[i].line);
    }
    return toks[i++];
  };
  expect(Tok::LParen, "'('");
  const LexToken cls_tok = expect(Tok::Sym, "class name");
  const Symbol cls = syms().intern(cls_tok.text);
  std::vector<Value> fields(static_cast<size_t>(schemas().arity(cls)));
  while (toks[i].kind == Tok::Hat) {
    const Symbol attr = syms().intern(toks[i++].text);
    const int slot = schemas().slot(cls, attr);
    if (slot >= static_cast<int>(fields.size())) {
      fields.resize(static_cast<size_t>(slot) + 1);
    }
    Value v;
    switch (toks[i].kind) {
      case Tok::Sym: v = Value(syms().intern(toks[i].text)); break;
      case Tok::Int: v = Value(toks[i].int_val); break;
      case Tok::Float: v = Value(toks[i].float_val); break;
      default:
        throw ParseError("wme literal: expected constant value", toks[i].line);
    }
    ++i;
    fields[static_cast<size_t>(slot)] = v;
  }
  expect(Tok::RParen, "')'");
  return add_wme(cls, std::move(fields));
}

void Engine::remove_wme(const Wme* w) {
  if (w == nullptr) throw std::invalid_argument("remove_wme: null wme");
  if (!wm_.remove(w)) return;
  // A wme added and removed within the same batch never reaches the network:
  // cancel the pending add instead of queuing a retraction that would be
  // injected before the add.
  auto it = std::find(pending_adds_.begin(), pending_adds_.end(), w);
  if (it != pending_adds_.end()) {
    pending_adds_.erase(it);
    return;
  }
  pending_removes_.push_back(w);
}

void Engine::inject_pending(bool adds, std::vector<Activation>& out) {
  CollectCtx cc(out, agent_);
  const auto& pend = adds ? pending_adds_ : pending_removes_;
  for (const Wme* w : pend) net().inject(w, adds, cc);
}

void Engine::close_cycle() {
  pending_removes_.clear();
  pending_adds_.clear();
  wm_.end_cycle();
}

CycleTrace Engine::match() {
  obs::Span cycle_span(tracer_, trace_track_, obs::EventKind::MatchCycle);
  if (parallel()) {
    // Threaded drain on the group's matcher; no per-task trace.
    Engine* self = this;
    group_.drain({&self, 1}, trace_track_);
    return {};
  }
  std::vector<Activation>& seeds = seed_scratch_;  // capacity reused per cycle
  seeds.clear();
  inject_pending(false, seeds);
  inject_pending(true, seeds);
  CycleTrace trace = serial_exec_.run_to_quiescence(seeds);
  close_cycle();
  return trace;
}

void Engine::apply_delta(const WmeDelta& delta, bool dedup_adds) {
  for (const auto& add : delta.adds) {
    if (dedup_adds &&
        wm_.find(add.cls, add.fields.data(), add.fields.size()) != nullptr) {
      continue;
    }
    add_wme(add.cls, add.fields.data(), add.fields.size());
  }
  for (const Wme* w : delta.removes) remove_wme(w);
  for (const auto& s : delta.writes) output_.push_back(s);
}

WmeDelta Engine::evaluate(const Instantiation* inst) {
  const CompiledProduction& cp = record(inst->pnode->prod).compiled;
  WmeDelta delta;
  rhs_.fire(cp, inst->token, delta);
  return delta;
}

bool Engine::fire(const Instantiation* inst, bool remove_after_fire,
                  bool dedup_adds) {
  const CompiledProduction& cp = record(inst->pnode->prod).compiled;
  fire_delta_.reset();  // persistent delta: slot capacity reused every fire
  rhs_.fire(cp, inst->token, fire_delta_);
  cs_.mark_fired(inst);
  if (remove_after_fire) cs_.remove(inst);
  apply_delta(fire_delta_, dedup_adds);
  return fire_delta_.halt;
}

void Engine::collect_metrics(obs::MetricsRegistry& m) const {
  if (parallel()) {
    // Includes the arena snapshot taken at the end of the last cycle.
    obs::collect(m, last_parallel_stats_);
  } else {
    obs::collect(m, state_.arena.stats());
  }
  // A group's tracer and profiler hold every session's data: the group
  // collects them once, unless it is this standalone engine's own.
  if (own_group_ == nullptr) return;
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

Engine::RunResult Engine::run(uint64_t max_cycles) {
  RunResult res;
  match();
  while (res.cycles < max_cycles) {
    const Instantiation* inst = cs_.select_lex();
    if (inst == nullptr) break;
    ++res.cycles;
    const bool halted = fire(inst, /*remove_after_fire=*/true,
                             /*dedup_adds=*/false);
    if (halted) {
      res.halted = true;
      break;
    }
    match();
  }
  return res;
}

}  // namespace psme
