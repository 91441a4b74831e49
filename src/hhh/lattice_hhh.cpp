#include "hhh/lattice_hhh.hpp"

#include <algorithm>
#include <stdexcept>

namespace rhhh {

template <class Backend>
LatticeHhh<Backend>::LatticeHhh(const Hierarchy& h, LatticeMode mode, LatticeParams p)
    : h_(&h), mode_(mode), p_(p), sampler_(mode, 1, 1, p.r, p.seed) {
  H_ = static_cast<std::uint32_t>(h.size());
  if (H_ >= (1u << 16)) {
    // BlockSampler packs the lattice node into 16 bits of a pick word (and
    // reserves 0xffff for "every node"); every shipped hierarchy is orders
    // of magnitude below this.
    throw std::invalid_argument("LatticeHhh: hierarchy size must be < 65536");
  }
  if (!(p_.eps > 0.0) || p_.eps >= 1.0) {
    throw std::invalid_argument("LatticeHhh: eps must be in (0,1)");
  }
  if (!(p_.delta > 0.0) || p_.delta >= 1.0) {
    throw std::invalid_argument("LatticeHhh: delta must be in (0,1)");
  }
  if (p_.r == 0) throw std::invalid_argument("LatticeHhh: r must be >= 1");

  V_ = (p_.V == 0) ? H_ : p_.V;
  if (V_ < H_) throw std::invalid_argument("LatticeHhh: V must be >= H");
  if (mode_ == LatticeMode::kMst) V_ = H_;  // unused by the update rule
  if (mode_ != LatticeMode::kRhhh && p_.r != 1) {
    throw std::invalid_argument("LatticeHhh: r applies to RHHH only");
  }
  sampler_ = make_sampler();

  // Error-budget split (Theorem 6.6): eps = eps_a + eps_s,
  // delta = delta_a + 2*delta_s. MST is deterministic: no sampling share.
  if (mode_ == LatticeMode::kMst) {
    eps_a_ = p_.eps;
    eps_s_ = 0.0;
    delta_a_ = p_.delta;
    delta_s_ = 0.0;
    scale_ = 1.0;
  } else {
    eps_a_ = 0.5 * p_.eps;
    eps_s_ = 0.5 * p_.eps;
    delta_a_ = p_.delta / 3.0;
    delta_s_ = p_.delta / 3.0;
    scale_ = (mode_ == LatticeMode::kRhhh)
                 ? static_cast<double>(V_) / static_cast<double>(p_.r)
                 : static_cast<double>(V_) / static_cast<double>(H_);
  }

  // Over-sample compensation (Section 6.1): size each instance for
  // eps_a' = eps_a / (1 + eps_s), i.e. ceil((1+eps_s)/eps_a) counters --
  // the paper's "1000 counters become 1001" example.
  counters_ = p_.counters_override != 0
                  ? p_.counters_override
                  : static_cast<std::size_t>(std::ceil((1.0 + eps_s_) / eps_a_));
  z_corr_ = z_value(1.0 - p_.delta / 8.0);

  BackendConfig cfg;
  cfg.capacity = counters_;
  cfg.eps_a = 1.0 / static_cast<double>(counters_);
  cfg.delta_a = delta_a_;
  nodes_.reserve(H_);
  const std::uint64_t bseed = p_.backend_seed != 0 ? p_.backend_seed : p_.seed;
  for (std::uint32_t d = 0; d < H_; ++d) {
    cfg.seed = mix64(bseed ^ (0x5851f42d4c957f2dULL + d));
    nodes_.push_back(NodeSlot{Backend::make(cfg)});
  }

  name_ = std::string(to_string(mode_));
  if (mode_ != LatticeMode::kMst && V_ != H_) {
    // Annotate non-default V as in the paper ("10-RHHH" for V = 10H).
    if (V_ % H_ == 0) {
      name_ = std::to_string(V_ / H_) + "-" + name_;
    } else {
      name_ += "(V=" + std::to_string(V_) + ")";
    }
  }
  if (p_.r > 1) name_ += "(r=" + std::to_string(p_.r) + ")";
}

template <class Backend>
typename LatticeHhh<Backend>::Survivor LatticeHhh<Backend>::survivor(
    std::uint32_t d, const Key128& key) const noexcept {
  const Key128 mkey = h_->mask_key(d, key);
  std::uint64_t hash = 0;
  if constexpr (backend_prefetchable()) hash = Backend::hash_of(mkey);
  return Survivor{hash, mkey.hi, mkey.lo, d};
}

template <class Backend>
void LatticeHhh<Backend>::apply_survivors(const Survivor* s, std::size_t m) {
  // Stage 3: replay the work list against the per-node backends. Survivors
  // sit in packet order and each node's backend is an independent
  // structure, so the resulting state is byte-identical to the per-packet
  // interleaving. For backends with the hash/probe split, index slots are
  // prefetched `D` apply steps ahead and counter cells D/2 ahead (the cell
  // address is a dependent load through the index, so its prefetch runs at
  // a shorter distance, once the slot line has had time to arrive).
  if constexpr (backend_prefetchable()) {
    const std::size_t far = p_.prefetch_distance;
    const std::size_t near = (far + 1) / 2;
    constexpr bool has_counter_stage = requires(const Backend& b, const Key128& k,
                                                std::uint64_t h) {
      b.prefetch_counter(k, h);
    };
    for (std::size_t j = 0; j < m; ++j) {
      if (far != 0 && j + far < m) {
        const Survivor& f = s[j + far];
        node(f.node).prefetch(f.hash);
      }
      if constexpr (has_counter_stage) {
        if (far != 0 && j + near < m) {
          const Survivor& c = s[j + near];
          node(c.node).prefetch_counter(c.mkey(), c.hash);
        }
      }
      node(s[j].node).increment_hashed(s[j].mkey(), s[j].hash, 1);
    }
  } else {
    for (std::size_t j = 0; j < m; ++j) node(s[j].node).increment(s[j].mkey(), 1);
  }
}

template <class Backend>
void LatticeHhh<Backend>::update_batch(const Key128* keys, std::size_t n) {
  if (n == 0) return;
  n_ += n;
  // Stage 1: the block's draws, compacted to survivors (block_sampler.hpp).
  const std::size_t m = sampler_.draw(n);
  const std::uint64_t* pk = sampler_.picks();
  // Stage 2: survivor build over the compacted picks only -- a passing
  // draw pays its mask + hash here, once, off the probe path. MST and
  // Sampled-MST survivors fan out across all H nodes, which still
  // amortizes the per-node mask + hash away from the probes and lets the
  // apply loop prefetch across the whole sequence.
  const bool fan_out = mode_ != LatticeMode::kRhhh;
  Survivor* sv = survivors_.room(fan_out ? m * H_ : m);
  std::size_t w = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const Key128& key = keys[BlockSampler::packet_of(pk[j])];
    if (fan_out) {
      for (std::uint32_t d = 0; d < H_; ++d) sv[w++] = survivor(d, key);
    } else {
      sv[w++] = survivor(BlockSampler::node_of(pk[j]), key);
    }
  }
  apply_survivors(sv, w);
  updates_ += w;
}

template <class Backend>
template <class ForAll>
std::uint64_t LatticeHhh<Backend>::apply_records(const SampledUpdate* u,
                                                 std::size_t n, ForAll&& all) {
  // Stages 2-3 in fixed chunks on the stack: concurrent appliers share this
  // instance, so the work list cannot live in a member.
  constexpr std::size_t kChunk = 256;
  Survivor buf[kChunk];
  std::size_t fill = 0;
  std::uint64_t applied = 0;
  const auto push = [&](std::uint32_t d, const Key128& key) {
    buf[fill++] = survivor(d, key);
    if (fill == kChunk) {
      apply_survivors(buf, fill);
      applied += fill;
      fill = 0;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const SampledUpdate& r = u[i];
    if (r.node == BlockSampler::kAllNodes) {
      all([&](std::uint32_t d) { push(d, r.key); });
    } else if (r.node != BlockSampler::kNoNode) {
      push(r.node, r.key);
    }
  }
  apply_survivors(buf, fill);
  return applied + fill;
}

template <class Backend>
std::uint64_t LatticeHhh<Backend>::apply(const SampledUpdate* u, std::size_t n) {
  return apply_records(u, n, [&](auto&& f) {
    for (std::uint32_t d = 0; d < H_; ++d) f(d);
  });
}

template <class Backend>
std::uint64_t LatticeHhh<Backend>::apply(const SampledUpdate* u, std::size_t n,
                                         std::span<const std::uint32_t> nodes) {
  return apply_records(u, n, [&](auto&& f) {
    for (const std::uint32_t d : nodes) f(d);
  });
}

template <class Backend>
void LatticeHhh<Backend>::update_weighted(Key128 x, std::uint64_t w) {
  if (w == 0) return;
  n_ += w;
  switch (mode_) {
    case LatticeMode::kRhhh:
      for (std::uint32_t i = 0; i < p_.r; ++i) {
        const std::uint32_t d = sampler_.draw_one();
        if (d < H_) {
          node(d).increment(h_->mask_key(d, x), w);
          ++updates_;
        }
      }
      break;
    case LatticeMode::kMst:
      for (std::uint32_t d = 0; d < H_; ++d) {
        node(d).increment(h_->mask_key(d, x), w);
      }
      updates_ += H_;
      break;
    case LatticeMode::kSampledMst:
      if (sampler_.draw_one() < H_) {
        for (std::uint32_t d = 0; d < H_; ++d) {
          node(d).increment(h_->mask_key(d, x), w);
        }
        updates_ += H_;
      }
      break;
  }
}

template <class Backend>
double LatticeHhh<Backend>::correction() const noexcept {
  if (mode_ == LatticeMode::kMst) return 0.0;
  // Theorems 6.11 / 6.15: 2 * Z_{1-delta/8} * sqrt(N * V).
  return 2.0 * z_corr_ *
         std::sqrt(static_cast<double>(n_) * static_cast<double>(V_));
}

template <class Backend>
double LatticeHhh<Backend>::psi() const {
  if (mode_ == LatticeMode::kMst) return 0.0;
  // psi = Z_{1 - delta_s/2} * V * eps_s^-2 (Theorem 6.3); r draws per packet
  // converge r times faster (Corollary 6.8).
  const double z = z_value(1.0 - 0.5 * delta_s_);
  return z * static_cast<double>(V_) / (eps_s_ * eps_s_) /
         static_cast<double>(p_.r);
}

template <class Backend>
HhhSet LatticeHhh<Backend>::output(double theta) const {
  if (n_ == 0) return HhhSet(h_->size());
  ConditionedIndex P(*h_);
  const double N = static_cast<double>(n_);
  const double thresh = theta * N;
  const double corr = correction();

  const UpperEstimate glb_upper = [this](const Prefix& q) {
    return scale_ * static_cast<double>(node(q.node).upper(q.key));
  };

  // Levels from fully specified (0) to fully general (Definition 8's order).
  for (int level = 0; level < h_->num_levels(); ++level) {
    for (const std::uint32_t d : h_->nodes_at_level(level)) {
      node(d).for_each([&](const Key128& key, std::uint64_t up, std::uint64_t lo) {
        const Prefix p{d, key};
        const double f_hi = scale_ * static_cast<double>(up);
        const double f_lo = scale_ * static_cast<double>(lo);
        // Candidates whose upper bound plus sampling slack cannot reach the
        // threshold have (w.h.p.) true conditioned frequency below it --
        // their admission could only come from inclusion-exclusion bound
        // slop (calcPred > 0), so skipping them is sound and trims false
        // positives. In one dimension calcPred <= 0 makes this exact.
        if (f_hi + corr < thresh) return;
        const double c_hat =
            f_hi + P.calc_pred(P.best_generalized(p), glb_upper) + corr;
        if (c_hat >= thresh) {
          P.admit(HhhCandidate{p, f_hi, f_lo, f_hi, c_hat});
        }
      });
    }
  }
  return std::move(P).take();
}

template <class Backend>
void LatticeHhh<Backend>::merge(const LatticeHhh& other) {
  if (!mergeable_with(other)) {
    throw std::invalid_argument(
        "LatticeHhh::merge: instances must share hierarchy, mode, V and r");
  }
  if constexpr (backend_mergeable()) {
    for (std::uint32_t d = 0; d < H_; ++d) node(d).merge(other.node(d));
    n_ += other.n_;
    updates_ += other.updates_;
  } else {
    throw std::logic_error("LatticeHhh::merge: backend is not mergeable");
  }
}

template <class Backend>
std::vector<BackendProbe> LatticeHhh<Backend>::health_probes() const {
  std::vector<BackendProbe> out;
  if constexpr (backend_probeable()) {
    out.reserve(H_);
    for (std::uint32_t d = 0; d < H_; ++d) out.push_back(node(d).probe());
  }
  return out;
}

template <class Backend>
void LatticeHhh<Backend>::restore_node(std::uint32_t d,
                                       const std::vector<HhEntry<Key128>>& entries,
                                       std::uint64_t total) {
  if (d >= H_) {
    throw std::invalid_argument("LatticeHhh::restore_node: node out of range");
  }
  if constexpr (backend_loadable()) {
    node(d).load(entries, total);
  } else {
    throw std::logic_error("LatticeHhh::restore_node: backend has no load path");
  }
}

template <class Backend>
void LatticeHhh<Backend>::clear() {
  for (NodeSlot& slot : nodes_) slot.hh.clear();
  n_ = 0;
  updates_ = 0;
  sampler_.reseed(p_.seed);
}

template class LatticeHhh<SpaceSaving<Key128>>;
template class LatticeHhh<MisraGries<Key128>>;
template class LatticeHhh<LossyCounting<Key128>>;
template class LatticeHhh<CountMinHh<Key128>>;
template class LatticeHhh<CountSketchHh<Key128>>;
template class LatticeHhh<ExactCounter<Key128>>;

std::unique_ptr<RhhhSpaceSaving> make_rhhh(const Hierarchy& h, LatticeParams p) {
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, p);
}

std::unique_ptr<RhhhSpaceSaving> make_10rhhh(const Hierarchy& h, LatticeParams p) {
  p.V = 10 * static_cast<std::uint32_t>(h.size());
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, p);
}

std::unique_ptr<RhhhSpaceSaving> make_mst(const Hierarchy& h, LatticeParams p) {
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kMst, p);
}

}  // namespace rhhh
