#include "engine/compiled_network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "analysis/verify.h"
#include "lang/parser.h"

namespace psme {

std::vector<const Production*> CompiledNetwork::load(std::string_view src) {
  Parser parser(syms_, schemas_, ast_arena_);
  auto parsed = parser.parse_file(src);
  for (auto it = parsed.begin(); it != parsed.end(); ++it) {
    reject_loaded_name(it->name);
    for (auto prev = parsed.begin(); prev != it; ++prev) {
      if (prev->name == it->name) {
        throw std::invalid_argument("duplicate production name '" +
                                    std::string(syms_.name(it->name)) + "'");
      }
    }
  }
  std::vector<const Production*> out;
  out.reserve(parsed.size());
  for (Production& p : parsed) {
    const Production* adopted = store_.adopt(std::move(p));
    finish(adopted, builder_.add_production(*adopted));
    out.push_back(adopted);
  }
  return out;
}

const Production* CompiledNetwork::adopt(Production&& ast) {
  reject_loaded_name(ast.name);
  return store_.adopt(std::move(ast));
}

void CompiledNetwork::reject_loaded_name(Symbol name) const {
  for (const Production* p : productions_) {
    if (p->name == name) {
      throw std::invalid_argument("production '" +
                                  std::string(syms_.name(name)) +
                                  "' is already loaded");
    }
  }
}

const AddRecord& CompiledNetwork::compile_cow(const Production* p) {
  Jumptable& jt = net_.jumptable();
  jt.begin_cow();
  CompiledProduction cp = builder_.add_production(*p);
  // The caller is at a match-quiescent safe point (the same epoch boundary
  // the token arenas reclaim at), so the swap is unobserved by any in-
  // flight succs() walk; the retired table is still held one publish for
  // any reader the contract failed to cover to crash loudly on, not to
  // race.
  jt.publish_cow();
  return finish(p, std::move(cp));
}

const AddRecord& CompiledNetwork::finish(const Production* p,
                                         CompiledProduction&& cp) {
  auto [it, inserted] = records_.emplace(p, AddRecord{p, std::move(cp)});
  if (!inserted) {
    throw std::logic_error("CompiledNetwork: production compiled twice");
  }
  productions_.push_back(p);
#if PSME_NET_VERIFY
  debug_verify_after_add(p);
#endif
  return it->second;
}

void CompiledNetwork::debug_verify_after_add(const Production* p) const {
  // Structure-only pass (no MatchState): every session's state is
  // additionally checked by AgentGroup's own PSME_NET_VERIFY hook.
  const analysis::VerifyReport rep = analysis::verify_network(net_, all_records());
  if (rep.ok()) return;
  std::fprintf(stderr,
               "PSME_NET_VERIFY: invariant violation after adding '%s'\n%s",
               std::string(syms_.name(p->name)).c_str(),
               rep.to_string().c_str());
  std::abort();
}

RemovePlan CompiledNetwork::unsplice_cow(const Production* p,
                                         size_t* refs_unspliced) {
  const AddRecord& rec = record(p);  // throws for an unknown production
  RemovePlan plan = plan_removal(net_, rec.compiled.pnode);
  Jumptable& jt = net_.jumptable();
  jt.begin_cow();
  const size_t erased = jt.erase_refs(plan.dead_mask);
  // Same safe-point contract as compile_cow: the caller is match-quiescent,
  // so no succs() walk observes the swap. From this publish on, the victim
  // can never fire again — its P-node is unreachable from every root.
  jt.publish_cow();
  if (refs_unspliced != nullptr) *refs_unspliced = erased;
  return plan;
}

void CompiledNetwork::finish_removal(const RemovePlan& plan,
                                     const Production* p) {
#if PSME_NET_VERIFY
  // The AST dies below; keep the name for the verifier's diagnostics.
  const std::string name(syms_.name(p->name));
#endif
  for (uint32_t id : plan.dead_nodes) net_.free_node(id);
  records_.erase(p);
  productions_.erase(
      std::remove(productions_.begin(), productions_.end(), p),
      productions_.end());
  store_.release(p);
#if PSME_NET_VERIFY
  debug_verify_after_remove(name);
#endif
}

void CompiledNetwork::debug_verify_after_remove(const std::string& name) const {
  const analysis::VerifyReport rep =
      analysis::verify_network(net_, all_records());
  if (rep.ok()) return;
  std::fprintf(stderr,
               "PSME_NET_VERIFY: invariant violation after removing '%s'\n%s",
               name.c_str(), rep.to_string().c_str());
  std::abort();
}

const AddRecord& CompiledNetwork::record(const Production* p) const {
  auto it = records_.find(p);
  if (it == records_.end()) {
    throw std::out_of_range("CompiledNetwork::record: unknown production");
  }
  return it->second;
}

std::vector<const AddRecord*> CompiledNetwork::all_records() const {
  std::vector<const AddRecord*> recs;
  recs.reserve(productions_.size());
  for (const Production* p : productions_) {
    auto it = records_.find(p);
    if (it != records_.end()) recs.push_back(&it->second);
  }
  return recs;
}

}  // namespace psme
