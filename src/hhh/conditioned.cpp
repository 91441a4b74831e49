#include "hhh/conditioned.hpp"

#include <algorithm>
#include <stdexcept>

namespace rhhh {

ConditionedIndex::ConditionedIndex(const Hierarchy& h) : h_(&h), P_(h.size()) {}

bool ConditionedIndex::shadowed(std::uint32_t idx, std::uint32_t node) const noexcept {
  // A member r strictly between the member and `node` sits at or above one
  // of the member's nearest member-ancestor nodes, so one of those lies
  // strictly below `node`; conversely each such ancestor is itself a
  // member in between.
  for (std::uint32_t l = link_head_[idx]; l != kNone; l = links_[l].next) {
    const std::uint32_t b = links_[l].node;
    if (b != node && h_->node_generalizes(node, b)) return true;
  }
  return false;
}

void ConditionedIndex::build_table(std::uint32_t node) {
  table_.clear();
  table_node_ = node;
  const Hierarchy::Node& top = h_->node(node);
  // The nodes strictly below `node`, walked by step arithmetic.
  for (int s0 = 0; s0 <= top.step[0]; ++s0) {
    for (int s1 = 0; s1 <= top.step[1]; ++s1) {
      const std::uint32_t nd = h_->node_index(s0, s1);
      if (nd == node) continue;
      for (const std::uint32_t idx : P_.at_node(nd)) {
        if (shadowed(idx, node)) continue;
        table_.push_back(TableEntry{P_[idx].prefix.key & top.mask, nd, idx});
      }
    }
  }
  // By masked key, ties in (node, index) order: each G(p|P) is one run of
  // the table, already in the order best_generalized promises.
  std::sort(table_.begin(), table_.end(), [](const TableEntry& a, const TableEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.node != b.node) return a.node < b.node;
    return a.index < b.index;
  });
}

std::span<const std::uint32_t> ConditionedIndex::best_generalized(const Prefix& p) {
  if (table_node_ != p.node) build_table(p.node);
  const auto lo = std::partition_point(
      table_.begin(), table_.end(), [&](const TableEntry& e) { return e.key < p.key; });
  g_.clear();
  for (auto it = lo; it != table_.end() && it->key == p.key; ++it) g_.push_back(it->index);
  return g_;
}

double ConditionedIndex::calc_pred(std::span<const std::uint32_t> g,
                                   const UpperEstimate& upper_estimate) {
  double r = 0.0;
  for (const std::uint32_t i : g) r -= P_[i].f_lo;  // Algorithm 2/3 line 4
  if (h_->dims() != 2 || g.size() < 2) return r;

  // Inclusion-exclusion add-back (Algorithm 3 lines 6-11): for each pair,
  // add back the glb's upper bound unless a third member of G(p|P)
  // generalizes it (its mass was then only subtracted once). A member that
  // generalizes the glb is the glb masked to that member's node, so the
  // test is one probe of G's prefixes per node holding a member of G. The
  // pair's own nodes are skipped: P's prefixes are distinct, so the only
  // member there that generalizes the glb is the pair member itself. For
  // the same reason two members at one node never have a glb, so each
  // member pairs only with those after its node's run (g is node-sorted).
  g_nodes_.clear();
  g_prefixes_.clear();
  for (const std::uint32_t i : g) {
    const Prefix& m = P_[i].prefix;
    g_members_.try_emplace(m, i);
    g_prefixes_.push_back(m);
    if (g_nodes_.empty() || g_nodes_.back() != m.node) g_nodes_.push_back(m.node);
  }
  std::size_t run_end = 0;
  for (std::size_t a = 0; a < g_prefixes_.size(); ++a) {
    const Prefix& pa = g_prefixes_[a];
    while (run_end < g_prefixes_.size() && g_prefixes_[run_end].node == pa.node) ++run_end;
    for (std::size_t b = run_end; b < g_prefixes_.size(); ++b) {
      const Prefix& pb = g_prefixes_[b];
      const auto q = h_->glb(pa, pb);
      if (!q.has_value()) continue;  // incompatible: count-0 item (Def. 12)
      bool third_covers = false;
      for (const std::uint32_t nd : g_nodes_) {
        if (nd == pa.node || nd == pb.node || !h_->node_generalizes(nd, q->node)) {
          continue;
        }
        if (g_members_.contains(h_->generalize_to(*q, nd))) {
          third_covers = true;
          break;
        }
      }
      if (!third_covers) r += upper_estimate(*q);
    }
  }
  for (const std::uint32_t i : g) g_members_.erase(P_[i].prefix);
  return r;
}

void ConditionedIndex::admit(const HhhCandidate& c) {
  const Prefix& p = c.prefix;
  const int level = h_->node(p.node).level;
  if (level < max_level_) {
    throw std::logic_error(
        "ConditionedIndex::admit: members must be admitted in level order");
  }
  max_level_ = level;
  // Every member of G(p|P) now has p's node among its nearest member
  // ancestors; members below those are already shadowed by them.
  for (const std::uint32_t q : best_generalized(p)) {
    links_.push_back(AncestorLink{p.node, link_head_[q]});
    link_head_[q] = static_cast<std::uint32_t>(links_.size() - 1);
  }
  P_.add(c);
  link_head_.push_back(kNone);
  // The table is p's node's (best_generalized above) and stays valid: a
  // member joins, and its links shadow entries of, only the tables of
  // nodes strictly above it, which are rebuilt when next queried.
}

}  // namespace rhhh
