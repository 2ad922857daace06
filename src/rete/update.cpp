#include "rete/update.h"

namespace psme {
namespace {

bool prefix_passes(const AlphaFrontier& f, const Wme* w) {
  for (const ConstTest& t : f.prefix_consts) {
    if (!eval_pred(t.pred, w->field(t.slot), t.value)) return false;
  }
  for (const DisjTest& t : f.prefix_disjs) {
    bool any = false;
    for (const Value& opt : t.options) any |= w->field(t.slot) == opt;
    if (!any) return false;
  }
  for (const IntraTestSpec& t : f.prefix_intras) {
    if (!eval_pred(t.pred, w->field(t.slot_a), w->field(t.slot_b))) {
      return false;
    }
  }
  return true;
}

Activation tagged(uint32_t node, Side side, bool add, Token token,
                  uint32_t agent) {
  Activation a{node, side, add, token};
  a.agent = agent;
  return a;
}

}  // namespace

void update_alpha_seeds(const CompiledProduction& cp,
                        const std::vector<const Wme*>& wm,
                        std::vector<Activation>& out, uint32_t agent) {
  for (const AlphaFrontier& f : cp.alpha_frontiers) {
    for (const Wme* w : wm) {
      if (w->cls != f.cls) continue;
      if (!prefix_passes(f, w)) continue;
      out.push_back(tagged(f.entry_node, Side::Left, true, Token{w}, agent));
    }
  }
}

void update_right_seeds(const Network& net, const MatchState& ms,
                        const CompiledProduction& cp,
                        std::vector<Activation>& out, uint32_t agent) {
  for (const uint32_t id : cp.new_nodes) {
    const Node* n = net.node(id);
    if (n->type != NodeType::Join && n->type != NodeType::Not) continue;
    const auto* t = static_cast<const TwoInputNode*>(n);
    if (t->alpha_mem >= cp.first_new_id) continue;  // new amem: phase A fed it
    const auto* am = static_cast<const AlphaMemNode*>(net.node(t->alpha_mem));
    for (const Wme* w : ms.alpha(am->mem_index).wmes) {
      out.push_back(tagged(id, Side::Right, true, Token{w}, agent));
    }
  }
}

void update_left_seeds(const Network& net, const MatchState& ms,
                       const CompiledProduction& cp, UpdateScratch& scratch,
                       uint32_t agent) {
  scratch.seeds.clear();
  scratch.outputs.clear();
  net.node_outputs_into(cp.share_point, ms, scratch.outputs);
  const uint32_t slot = net.node(cp.share_point)->jt_slot;
  for (const SuccessorRef& s : net.jumptable().peek(slot)) {
    if (s.side != Side::Left || s.node < cp.first_new_id) continue;
    for (const Token& t : scratch.outputs) {
      scratch.seeds.push_back(tagged(s.node, Side::Left, true, t, agent));
    }
  }
}

}  // namespace psme
