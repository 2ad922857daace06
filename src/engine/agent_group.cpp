#include "engine/agent_group.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/verify.h"

namespace psme {

AgentGroup::AgentGroup(EngineOptions opts)
    : opts_(std::move(opts)),
      cnet_(std::make_unique<CompiledNetwork>(opts_.builder)) {
  if (opts_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(opts_.trace);
  }
  if (opts_.profile) {
    profiler_ =
        std::make_unique<obs::MatchProfiler>(opts_.profile_sample_shift);
  }
  if (opts_.match_workers > 0) {
    // Agent-less matcher: sessions register as they attach. prewarm()
    // ensures worker tracks 1..W on the tracer; session tracks follow.
    matcher_ = std::make_unique<ParallelMatcher>(
        cnet_->net(), opts_.match_workers, tracer_.get(), opts_.steal,
        profiler_.get());
  }
}

Engine& AgentGroup::add_agent() {
  owned_.push_back(std::make_unique<Engine>(*this));
  return *owned_.back();
}

uint32_t AgentGroup::attach(Engine& e) {
  const uint32_t id =
      matcher_ != nullptr ? matcher_->register_agent(e.state_) : next_agent_;
  next_agent_ = id + 1;
  sessions_.push_back(&e);
  // Quiescent: grow the agent cells now so the next drain's ensure is a
  // compare.
  if (profiler_ != nullptr) profiler_->ensure_agents(next_agent_);
  return id;
}

void AgentGroup::detach(Engine& e) {
  if (matcher_ != nullptr) matcher_->unregister_agent(e.agent_);
  std::erase(sessions_, &e);
}

std::vector<const Production*> AgentGroup::load(std::string_view src) {
  auto out = cnet_->load(src);
  // The common build-time load onto empty WMs skips straight through.
  for (const Production* p : out) {
    update_sessions(cnet_->record(p).compiled, nullptr, nullptr);
#if PSME_NET_VERIFY
    debug_verify("adding", cnet_->syms().name(p->name));
#endif
  }
  return out;
}

uint64_t AgentGroup::update_sessions(const CompiledProduction& cp,
                                     Engine* first,
                                     Engine::RuntimeAddResult* res) {
  uint64_t tasks = 0;
  if (first != nullptr) tasks += first->apply_runtime_update(cp, res);
  for (Engine* e : sessions_) {
    // A session whose network holds none of its wmes has nothing to fill.
    if (e == first || (e->wm_.size() == 0 && e->pending_removes_.empty())) {
      continue;
    }
    tasks += e->apply_runtime_update(cp, nullptr);
  }
  return tasks;
}

void AgentGroup::debug_verify(const char* action, std::string_view name) const {
  for (const Engine* e : sessions_) {
    const analysis::VerifyReport rep = e->verify_network();
    if (rep.ok()) continue;
    std::fprintf(stderr,
                 "PSME_NET_VERIFY: invariant violation after %s '%s' "
                 "(agent %u)\n%s",
                 action, std::string(name).c_str(), e->agent_id(),
                 rep.to_string().c_str());
    std::abort();
  }
}

ParallelStats AgentGroup::drain(std::span<Engine* const> sessions,
                                uint32_t track) {
  // Every session's removals drain to quiescence before any addition: a
  // delete token racing a sibling addition is order-dependent (a join can
  // install a new PI behind a delete token that already passed that
  // memory), so each threaded drain gets a homogeneous seed batch. Serial
  // injection order (removes first) makes the final state identical.
  std::vector<Activation>& seeds = seed_scratch_;
  seeds.clear();
  bool any_adds = false;
  for (Engine* e : sessions) {
    e->inject_pending(false, seeds);
    any_adds |= !e->pending_adds_.empty();
  }
  ParallelStats total;
  if (!seeds.empty() || !any_adds) {
    obs::Span span(tracer_.get(), track, obs::EventKind::DrainRemoves);
    total = matcher_->run_cycle(seeds);
    seeds.clear();
  }
  if (any_adds) {
    obs::Span span(tracer_.get(), track, obs::EventKind::DrainAdds);
    for (Engine* e : sessions) e->inject_pending(true, seeds);
    total.accumulate(matcher_->run_cycle(seeds));
  }
  for (Engine* e : sessions) {
    e->close_cycle();
    // Shared scheduler numbers, each session's own arena snapshot.
    e->last_parallel_stats_ = total;
    e->last_parallel_stats_.arena = e->state_.arena.stats();
  }
  return total;
}

ParallelStats AgentGroup::step_all() {
  if (matcher_ == nullptr) {
    for (Engine* e : sessions_) e->match();
    return {};
  }
  obs::Span cycle_span(tracer_.get(), 0, obs::EventKind::MatchCycle);
  return drain(sessions_, 0);
}

void AgentGroup::collect_metrics(obs::MetricsRegistry& m) const {
  char prefix[32];
  for (const Engine* e : sessions_) {
    obs::MetricsRegistry per_agent;
    e->collect_metrics(per_agent);
    std::snprintf(prefix, sizeof prefix, "agent%u.", e->agent_id());
    for (const obs::Metric& metric : per_agent.metrics()) {
      const std::string name = prefix + metric.name;
      if (metric.kind == obs::MetricKind::Counter) {
        m.counter(name, metric.value);
      } else {
        m.gauge(name, metric.value);
      }
    }
  }
  m.gauge("group.agents", sessions_.size());
  m.gauge("group.cow_publishes", cnet_->cow_publishes());
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

}  // namespace psme
