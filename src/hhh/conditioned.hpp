// Conditioned-frequency estimation shared by the lattice algorithms:
// G(p|P) (Definition 14 / Definition 2) and calcPred (Algorithms 2 and 3),
// served by an index over the set P that Output (Algorithm 1) is building.
//
// Lifetime: one ConditionedIndex per output() call, on that call's stack.
// output() is const and runs concurrently on shared sealed windows, so the
// index is never cached in the algorithm object.
//
// Cost, for |P| members on a lattice of H nodes:
//   - best_generalized(): the first query at a node gathers the members
//     below it that no member in between shadows, walking the nodes below
//     by step arithmetic, and sorts them by key masked to the node:
//     O(|P| * b + |P| log |P|), b = the few nearest member-ancestor nodes
//     a member has. Every further query at that node is one binary search.
//   - admit(): that binary search, then each member of G(p|P) records p's
//     node as one of its nearest member-ancestor nodes.
//   - calc_pred(): O(|G|) in one dimension; in two, each glb pair probes a
//     hash of G once per node that holds a member of G, instead of testing
//     every third member.
// Output therefore costs O(H * |P| (b + log |P|) + sum over candidates of
// |G|^2 * (nodes holding G)), where scanning P cost O(|P| + |G|^3) per
// candidate. Transient memory is O(|P|): one table entry per member, the
// nearest-ancestor lists, and a hash sized to the largest G.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "hhh/hhh_types.hpp"
#include "hierarchy/hierarchy.hpp"
#include "util/flat_hash_map.hpp"

namespace rhhh {

/// Upper-bound estimate for an arbitrary prefix's frequency (used for the
/// glb add-back in two dimensions, where the glb prefix is usually not a
/// member of P).
using UpperEstimate = std::function<double(const Prefix&)>;

/// The set P under construction plus what answers G(p|P) and calcPred
/// against it without scanning P.
///
/// Contract: members are admitted in non-decreasing level order (Algorithm
/// 1's bottom-up ascent; admit() throws std::logic_error otherwise). Queries
/// may come in any order. Answers are bit-identical to the definitions:
/// G(p|P) comes back in (node, admission index) order, and calc_pred sums
/// in Algorithms 2/3's order.
class ConditionedIndex {
 public:
  explicit ConditionedIndex(const Hierarchy& h);

  /// P as admitted so far.
  [[nodiscard]] const HhhSet& members() const noexcept { return P_; }
  /// Hands P to the caller; the index is spent afterwards.
  [[nodiscard]] HhhSet take() && { return std::move(P_); }

  /// G(p|P): indices (into members().items()) of the members of P that p
  /// strictly generalizes with no other member of P strictly between them
  /// and p, ordered by (node, index). The span stays valid until the next
  /// call on this index.
  [[nodiscard]] std::span<const std::uint32_t> best_generalized(const Prefix& p);

  /// calcPred (Algorithm 2 in one dimension, Algorithm 3 in two) over
  /// g = best_generalized(p):
  ///   R = - sum_{h in G} f_lo(h)
  ///     + sum_{pairs h,h' in G, glb defined, no third member of G
  ///            generalizes the glb} f_hi(glb(h,h'))            (2D only)
  /// The caller adds f_hi(p) and the sampling-slack term (Algorithm 1 lines
  /// 12-13). The pair loop relies on g's node order.
  [[nodiscard]] double calc_pred(std::span<const std::uint32_t> g,
                                 const UpperEstimate& upper_estimate);

  /// Adds c to P (Algorithm 1 line 13).
  void admit(const HhhCandidate& c);

 private:
  /// True iff a member of P lies strictly between member `idx` and node
  /// `node` (which strictly generalizes the member's node).
  [[nodiscard]] bool shadowed(std::uint32_t idx, std::uint32_t node) const noexcept;
  /// Rebuilds table_ for `node`: the unshadowed members below it.
  void build_table(std::uint32_t node);

  struct TableEntry {
    Key128 key;           ///< member key masked to the table's node
    std::uint32_t node;   ///< member's own node
    std::uint32_t index;  ///< member's index in P
  };
  struct AncestorLink {
    std::uint32_t node;  ///< a nearest member-ancestor node
    std::uint32_t next;  ///< next link of the same member, or kNone
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  const Hierarchy* h_;
  HhhSet P_;
  int max_level_ = 0;

  // Per member of P: the nodes of the members that took it into their G --
  // its nearest member ancestors, an antichain of nodes.
  std::vector<std::uint32_t> link_head_;
  std::vector<AncestorLink> links_;

  // G-query table for one node, rebuilt when queries move to another node.
  std::uint32_t table_node_ = kNone;
  std::vector<TableEntry> table_;

  // Latest G: what best_generalized's span views.
  std::vector<std::uint32_t> g_;

  // calc_pred scratch: G's prefixes hashed (emptied after each call) and
  // in order, and G's distinct nodes.
  FlatHashMap<Prefix, std::uint32_t, PrefixHash> g_members_{16};
  std::vector<Prefix> g_prefixes_;
  std::vector<std::uint32_t> g_nodes_;
};

}  // namespace rhhh
