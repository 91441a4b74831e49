// Space-Saving [Metwally, Agrawal & El Abbadi, ICDT'05] on the
// stream-summary structure.
//
// This is the paper's heavy-hitter building block (one instance per lattice
// node). The stream-summary keeps counters grouped into buckets of equal
// count, buckets in a doubly-linked list sorted by count, so a unit
// increment moves a counter to the adjacent bucket in O(1) *worst case* --
// the property Theorem 6.18 relies on for RHHH's O(1) update bound.
//
// Guarantees (m = capacity, N = total arrivals into this instance):
//   * tracked:   count - error <= f <= count, with error <= N/m
//   * untracked: f <= min-count over tracked counters (<= N/m)
//   * every key with f > N/m is tracked (heavy-hitter recall)
//
// Layout. Three arrays, each allocated once at construction:
//   * counters -- one per tracked key, in the order keys first took a slot;
//     for_each() walks them in that order. A counter holds the key (the only
//     copy of it), its count and error, its bucket and within-bucket links,
//     and the low 32 bits of the key's hash (its home in the index), which
//     fill what would otherwise be padding.
//   * buckets  -- one per distinct count, ascending in a linked list; each
//     heads a list of its counters, most recently arrived first.
//   * index    -- open addressing with robin-hood probing and backward-shift
//     deletion over next_pow2(4m) 8-byte slots {counter id, probe distance,
//     16-bit tag from the hash's top bits}. A probe compares tags and loads a
//     counter's key only on a tag match; an eviction erases the victim's
//     slot by counter id, walking from the home its counter records, so the
//     victim's key is never rehashed. The distance field saturates at 65535;
//     a saturated slot's true distance is recomputed from its counter's
//     home, so a cluster may grow to any capacity.
//
// Observable order. The victim is the head of the lowest bucket: the
// min-count counter that most recently reached its count. for_each() follows
// the counter array. Both are part of the contract (golden digests pin them
// through every caller). Bucket ids, the bucket free list and index slot
// positions are not observable, which is what lets advance() raise a bucket
// in place: a counter alone in its bucket, with no bucket at a value in
// (count, count + w], keeps its bucket and only the value moves -- the same
// list a detach, fresh bucket and free would have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "hh/backend.hpp"
#include "util/bits.hpp"
#include "util/key128.hpp"

namespace rhhh {

template <class Key, class Hash = KeyHash<Key>>
class SpaceSaving {
 public:
  /// Allocates every array once at `capacity` (so increments never
  /// allocate) but writes only the index: a counter slot is first written
  /// when a key takes it, a bucket slot when the bump pointer reaches it.
  explicit SpaceSaving(std::size_t capacity) : SpaceSaving(checked(capacity), Shape{}) {
    std::memset(static_cast<void*>(index_.get()), 0, index_bytes());
  }

  /// Copies allocate at capacity once and copy only the live slots (plus
  /// the whole index, whose live slots are scattered).
  SpaceSaving(const SpaceSaving& o) : SpaceSaving(o.cap_, Shape{}) {
    bucket_free_ = o.bucket_free_;
    bucket_head_ = o.bucket_head_;
    bucket_used_ = o.bucket_used_;
    size_ = o.size_;
    total_ = o.total_;
    evictions_ = o.evictions_;
    std::copy_n(o.counters_.get(), size_, counters_.get());
    std::copy_n(o.buckets_.get(), bucket_used_, buckets_.get());
    std::memcpy(static_cast<void*>(index_.get()), o.index_.get(), index_bytes());
  }
  SpaceSaving& operator=(const SpaceSaving& o) {
    if (this != &o) *this = SpaceSaving(o);
    return *this;
  }
  SpaceSaving(SpaceSaving&&) noexcept = default;
  SpaceSaving& operator=(SpaceSaving&&) noexcept = default;

  [[nodiscard]] static SpaceSaving make(const BackendConfig& cfg) {
    return SpaceSaving(cfg.capacity);
  }

  /// The key hash this instance's index uses. Exposed so batched callers can
  /// hash once, prefetch(), and later probe via increment_hashed() /
  /// find-paths without paying the hash again (the hash/probe split).
  [[nodiscard]] static std::uint64_t hash_of(const Key& k) noexcept {
    return Hash{}(k);
  }

  /// Pull the index slots for hash `h` toward L1 ahead of an
  /// increment_hashed(). Safe to issue for any hash value.
  void prefetch(std::uint64_t h) const noexcept {
    __builtin_prefetch(index_.get() + home_of(h), 0, 3);
  }

  /// Pull the counter cell of the key with hash `h` toward L1: a dependent
  /// second-stage prefetch (the cell address needs one index probe, so issue
  /// this at a shorter distance than prefetch(), once the slot line has
  /// arrived). Matches on the tag alone -- a hint may be wrong, never harmful.
  void prefetch_counter(const Key& /*k*/, std::uint64_t h) const noexcept {
    std::uint32_t i = home_of(h);
    const std::uint16_t tag = tag_of(h);
    for (std::uint32_t d = 1; d < kFar; ++d, i = (i + 1) & mask_) {
      const Slot s = index_[i];
      if (s.dist < d) return;
      if (s.tag == tag) {
        __builtin_prefetch(counters_.get() + s.id, 1, 3);
        return;
      }
    }
  }

  /// Count `w` arrivals of key `k`. O(1) for w == 1 (the RHHH datapath);
  /// weighted updates walk at most the number of distinct counts crossed.
  void increment(const Key& k, std::uint64_t w = 1) {
    increment_hashed(k, hash_of(k), w);
  }

  /// increment() with the key hash precomputed: the key hashes once per
  /// arrival -- tracked hit, fresh-counter insert and eviction alike.
  void increment_hashed(const Key& k, std::uint64_t h, std::uint64_t w = 1) {
    if (w == 0) return;
    total_ += w;
    const Probe p = probe(k, h);
    if (p.id != kNil) {
      advance(p.id, w);
      return;
    }
    if (size_ < cap_) {
      const std::uint32_t c = size_++;
      counters_[c] = Counter{k, 0, 0, kNil, kNil, kNil, static_cast<std::uint32_t>(h)};
      index_place(p.at, Slot{c, saturate(p.dist), tag_of(h)});
      place(c, w, kNil);
      return;
    }
    // Evict the minimum: replace its key, inherit its count as the error
    // bound (the classic Space-Saving replacement step). The victim keeps
    // its counter and its bucket; only its index slot moves, and the erase
    // may shift the probe's insertion point, so the insert walks again.
    const Bucket& low = buckets_[bucket_head_];
    const std::uint32_t c = low.head;
    index_erase(c);
    Counter& cn = counters_[c];
    cn.key = k;
    cn.error = low.value;
    cn.home = static_cast<std::uint32_t>(h);
    index_insert(c, h);
    ++evictions_;
    advance(c, w);
  }

  /// Upper bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t upper(const Key& k) const noexcept {
    const std::uint32_t c = find_id(k, hash_of(k));
    return c != kNil ? counters_[c].count : min_bound();
  }
  /// Lower bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t lower(const Key& k) const noexcept {
    const std::uint32_t c = find_id(k, hash_of(k));
    if (c == kNil) return 0;
    return counters_[c].count - counters_[c].error;
  }
  [[nodiscard]] bool tracked(const Key& k) const noexcept {
    return find_id(k, hash_of(k)) != kNil;
  }

  /// Upper bound on the arrivals of *any* untracked key.
  [[nodiscard]] std::uint64_t min_bound() const noexcept {
    return size_ == cap_ ? buckets_[bucket_head_].value : 0;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Roster evictions since construction (or the last clear()). Churn over
  /// any window is the difference of two readings.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Introspection snapshot for the estimator health layer. O(1).
  [[nodiscard]] BackendProbe probe() const noexcept {
    BackendProbe p;
    p.total = total_;
    p.min_count = min_bound();
    p.evictions = evictions_;
    p.occupancy = size_;
    p.capacity = cap_;
    p.saturation = static_cast<double>(size_) / static_cast<double>(cap_);
    p.noise = static_cast<double>(min_bound());
    return p;
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Counter& c = counters_[i];
      f(c.key, c.count, c.count - c.error);
    }
  }

  [[nodiscard]] std::vector<HhEntry<Key>> entries() const {
    std::vector<HhEntry<Key>> out;
    out.reserve(size_);
    for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      out.push_back(HhEntry<Key>{k, up, lo});
    });
    return out;
  }

  /// Tracked keys whose upper bound meets `threshold` (superset of the true
  /// heavy hitters at that threshold).
  [[nodiscard]] std::vector<HhEntry<Key>> heavy_hitters(std::uint64_t threshold) const {
    std::vector<HhEntry<Key>> out;
    for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      if (up >= threshold) out.push_back(HhEntry<Key>{k, up, lo});
    });
    return out;
  }

  void clear() {
    std::memset(static_cast<void*>(index_.get()), 0, index_bytes());
    size_ = 0;
    total_ = 0;
    evictions_ = 0;
    bucket_head_ = kNil;
    bucket_free_ = kNil;
    bucket_used_ = 0;
  }

  /// Merge another summary into this one (mergeable-summaries semantics:
  /// Agarwal et al.). Counts add where keys overlap; a key tracked on only
  /// one side is charged the other side's min bound as additional count and
  /// error; the top `capacity()` merged counters are kept. Upper/lower
  /// bound guarantees are preserved for the combined stream. This is the
  /// paper's Section 7 multi-device aggregation path ("analyzing data from
  /// multiple network devices").
  void merge(const SpaceSaving& other) {
    struct Merged {
      Key key;
      std::uint64_t count;
      std::uint64_t error;
    };
    const std::uint64_t my_min = min_bound();
    const std::uint64_t their_min = other.min_bound();
    std::vector<Merged> merged;
    merged.reserve(size_ + other.size_);
    for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      const std::uint64_t extra = other.tracked(k) ? other.upper(k) : their_min;
      const std::uint64_t extra_err =
          other.tracked(k) ? other.upper(k) - other.lower(k) : their_min;
      merged.push_back(Merged{k, up + extra, (up - lo) + extra_err});
    });
    other.for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      if (tracked(k)) return;  // handled above
      merged.push_back(Merged{k, up + my_min, (up - lo) + my_min});
    });
    std::sort(merged.begin(), merged.end(),
              [](const Merged& a, const Merged& b) { return a.count > b.count; });
    if (merged.size() > cap_) merged.resize(cap_);

    const std::uint64_t combined_total = total_ + other.total_;
    // The rebuild below inserts <= cap_ entries into an empty structure, so
    // it never evicts; churn from both input streams carries through.
    const std::uint64_t combined_evictions = evictions_ + other.evictions_;
    clear();
    // Rebuild smallest-first so bucket insertion walks stay short.
    for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
      increment(it->key, it->count);
      counters_[find_id(it->key, hash_of(it->key))].error = it->error;
    }
    total_ = combined_total;
    evictions_ = combined_evictions;
  }

  /// Rebuild this summary from a serialized roster (the durable store's
  /// reload path). Entries must arrive in the counter-array order for_each
  /// emits, so the reloaded instance reproduces the original's iteration
  /// order (hence byte-identical downstream HHH sets); each increment()
  /// assigns array slots sequentially, which preserves exactly that order.
  /// `total` restores the arrivals count, which merge() legitimately keeps
  /// above the sum of the retained counters. Throws std::invalid_argument
  /// on impossible rosters (over capacity, zero counts, error > count) --
  /// corrupt input must fail loudly, never corrupt the structure.
  void load(const std::vector<HhEntry<Key>>& entries, std::uint64_t total) {
    if (entries.size() > cap_) {
      throw std::invalid_argument("SpaceSaving::load: roster exceeds capacity");
    }
    for (const HhEntry<Key>& e : entries) {
      if (e.upper == 0 || e.lower > e.upper) {
        throw std::invalid_argument("SpaceSaving::load: impossible entry bounds");
      }
    }
    clear();
    for (const HhEntry<Key>& e : entries) {
      increment(e.key, e.upper);
      counters_[find_id(e.key, hash_of(e.key))].error = e.upper - e.lower;
    }
    total_ = total;
  }

  /// Structural invariant check for tests: bucket list ascending and
  /// consistent, keys distinct, and every live index slot mapping back to
  /// its own counter, at the true probe distance of the counter's hash and
  /// in robin-hood order -- which makes every counter findable.
  [[nodiscard]] bool validate() const {
    std::size_t seen = 0;
    std::uint64_t prev_value = 0;
    bool first_bucket = true;
    for (std::uint32_t b = bucket_head_; b != kNil; b = buckets_[b].next) {
      const Bucket& bk = buckets_[b];
      if (!first_bucket && bk.value <= prev_value) return false;
      first_bucket = false;
      prev_value = bk.value;
      if (bk.head == kNil) return false;  // empty buckets must be freed
      std::uint32_t prev_c = kNil;
      for (std::uint32_t c = bk.head; c != kNil; c = counters_[c].next) {
        const Counter& cn = counters_[c];
        if (c >= size_ || cn.bucket != b || cn.prev != prev_c) return false;
        if (cn.count != bk.value || cn.error > cn.count) return false;
        if (cn.home != static_cast<std::uint32_t>(hash_of(cn.key))) return false;
        ++seen;
        prev_c = c;
      }
    }
    std::size_t live = 0;
    std::vector<bool> slotted(size_, false);
    for (std::size_t at = 0; at <= mask_; ++at) {
      const auto i = static_cast<std::uint32_t>(at);
      const Slot s = index_[i];
      if (s.dist == 0) continue;
      ++live;
      if (s.id >= size_ || slotted[s.id]) return false;
      slotted[s.id] = true;
      const Counter& cn = counters_[s.id];
      if (s.tag != tag_of(hash_of(cn.key))) return false;
      const std::uint32_t d = ((i - (cn.home & mask_)) & mask_) + 1;
      if (s.dist != saturate(d)) return false;
      // Robin-hood order: a slot is at most one step farther from home
      // than the slot before it, so every home group stays contiguous.
      const Slot before = index_[(i - 1) & mask_];
      if (d > 1 && (before.dist == 0 || true_dist((i - 1) & mask_) + 1 < d)) return false;
    }
    std::vector<Key> keys(size_);
    for (std::uint32_t c = 0; c < size_; ++c) keys[c] = counters_[c].key;
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) return false;
    return seen == size_ && live == size_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return std::size_t{cap_} * sizeof(Counter) + (std::size_t{cap_} + 1) * sizeof(Bucket) +
           index_bytes();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Saturated probe distance: the true distance is at least this and is
  /// recomputed from the counter's home.
  static constexpr std::uint16_t kFar = 0xffff;
  /// Largest capacity: the index (4x capacity, rounded up to a power of
  /// two) must stay addressable by the 32-bit home a counter records.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  struct Counter {
    Key key{};
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint32_t bucket = kNil;
    std::uint32_t prev = kNil;  // within-bucket list
    std::uint32_t next = kNil;
    std::uint32_t home = 0;     // low 32 bits of hash_of(key)
  };
  struct Bucket {
    std::uint64_t value = 0;
    std::uint32_t head = kNil;  // first counter in this bucket
    std::uint32_t prev = kNil;  // bucket list (ascending by value)
    std::uint32_t next = kNil;
  };
  struct Slot {
    std::uint32_t id;    // counter id
    std::uint16_t dist;  // 0 = empty, else probe distance + 1 (saturating at kFar)
    std::uint16_t tag;   // tag_of(hash)
  };
  static_assert(sizeof(Slot) == 8);

  /// Raw storage for n slots. Counter, Bucket and Slot are aggregates, so
  /// the allocation itself begins their lifetimes; each slot is written in
  /// full before it is first read (the index by the constructor's zeroing).
  struct ReleaseStorage {
    void operator()(void* p) const noexcept { ::operator delete(p); }
  };
  template <class T>
  using Storage = std::unique_ptr<T[], ReleaseStorage>;
  template <class T>
  [[nodiscard]] static Storage<T> uninitialized(std::size_t n) {
    return Storage<T>(static_cast<T*>(::operator new(n * sizeof(T))));
  }

  struct Shape {};
  /// Allocation only; the public constructors fill the index.
  SpaceSaving(std::size_t capacity, Shape)
      : counters_(uninitialized<Counter>(capacity)),
        buckets_(uninitialized<Bucket>(capacity + 1)),
        index_(uninitialized<Slot>(next_pow2(4 * capacity))),
        mask_(static_cast<std::uint32_t>(next_pow2(4 * capacity) - 1)),
        cap_(static_cast<std::uint32_t>(capacity)) {}

  [[nodiscard]] static std::size_t checked(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("SpaceSaving: capacity must be > 0");
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument("SpaceSaving: capacity must be <= 2^30");
    }
    return capacity;
  }

  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return (std::size_t{mask_} + 1) * sizeof(Slot);
  }
  [[nodiscard]] std::uint32_t home_of(std::uint64_t h) const noexcept {
    return static_cast<std::uint32_t>(h) & mask_;
  }
  [[nodiscard]] static std::uint16_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint16_t>(h >> 48);
  }
  [[nodiscard]] static std::uint16_t saturate(std::uint32_t d) noexcept {
    return static_cast<std::uint16_t>(d < kFar ? d : kFar);
  }
  /// Probe distance + 1 of the (live) slot at i, past saturation too.
  [[nodiscard]] std::uint32_t true_dist(std::uint32_t i) const noexcept {
    const Slot s = index_[i];
    if (s.dist != kFar) return s.dist;
    return ((i - (counters_[s.id].home & mask_)) & mask_) + 1;
  }

  /// Where a probe for a key ended: its counter, or (id == kNil) the slot
  /// and distance + 1 at which it would be inserted.
  struct Probe {
    std::uint32_t id;
    std::uint32_t at;
    std::uint32_t dist;
  };

  /// Robin-hood order ends a probe at the first slot closer to its home
  /// than the key would be (or empty): the key's insertion point.
  [[nodiscard]] Probe probe(const Key& k, std::uint64_t h) const noexcept {
    std::uint32_t i = home_of(h);
    const std::uint16_t tag = tag_of(h);
    for (std::uint32_t d = 1;; ++d, i = (i + 1) & mask_) {
      const Slot s = index_[i];
      if (s.dist < d && (s.dist != kFar || true_dist(i) < d)) return Probe{kNil, i, d};
      if (s.tag == tag && counters_[s.id].key == k) return Probe{s.id, i, d};
    }
  }
  /// Counter id of key k (hash h), or kNil.
  [[nodiscard]] std::uint32_t find_id(const Key& k, std::uint64_t h) const noexcept {
    return probe(k, h).id;
  }

  /// Index counter c (whose home is set) under hash h, walking to its
  /// insertion point.
  void index_insert(std::uint32_t c, std::uint64_t h) noexcept {
    std::uint32_t i = home_of(h);
    std::uint32_t d = 1;
    for (;; ++d, i = (i + 1) & mask_) {
      const std::uint16_t r = index_[i].dist;
      if (r < d && (r != kFar || true_dist(i) < d)) break;
    }
    index_place(i, Slot{c, saturate(d), tag_of(h)});
  }
  /// Write `carry` at insertion point i, shifting the rest of the cluster
  /// one slot on.
  void index_place(std::uint32_t i, Slot carry) noexcept {
    while (true) {
      const Slot s = index_[i];
      index_[i] = carry;
      if (s.dist == 0) return;
      carry = Slot{s.id, saturate(std::uint32_t{s.dist} + 1), s.tag};
      i = (i + 1) & mask_;
    }
  }

  /// Remove counter c's slot, found by id from the home c records, and
  /// shift the rest of its cluster back one slot.
  void index_erase(std::uint32_t c) noexcept {
    std::uint32_t i = counters_[c].home & mask_;
    while (index_[i].id != c || index_[i].dist == 0) i = (i + 1) & mask_;
    std::uint32_t next = (i + 1) & mask_;
    while (index_[next].dist > 1) {
      const Slot s = index_[next];
      index_[i] = Slot{s.id, saturate(true_dist(next) - 1), s.tag};
      i = next;
      next = (next + 1) & mask_;
    }
    index_[i].dist = 0;
  }

  /// A freed bucket if there is one, else the next never-used slot. At most
  /// cap + 1 buckets are live at once (one per distinct count, plus the
  /// target bucket place() allocates before advance() frees the source).
  [[nodiscard]] std::uint32_t alloc_bucket(std::uint64_t value) noexcept {
    std::uint32_t b = bucket_free_;
    if (b != kNil) {
      bucket_free_ = buckets_[b].next;
    } else {
      b = bucket_used_++;
    }
    buckets_[b] = Bucket{value, kNil, kNil, kNil};
    return b;
  }

  void detach_counter(std::uint32_t c) noexcept {
    Counter& cn = counters_[c];
    if (cn.prev != kNil) {
      counters_[cn.prev].next = cn.next;
    } else {
      buckets_[cn.bucket].head = cn.next;
    }
    if (cn.next != kNil) counters_[cn.next].prev = cn.prev;
  }

  void push_counter(std::uint32_t c, std::uint32_t b) noexcept {
    Counter& cn = counters_[c];
    cn.bucket = b;
    cn.prev = kNil;
    cn.next = buckets_[b].head;
    if (cn.next != kNil) counters_[cn.next].prev = c;
    buckets_[b].head = c;
  }

  void insert_bucket_after(std::uint32_t b, std::uint32_t after) noexcept {
    Bucket& bn = buckets_[b];
    if (after == kNil) {
      bn.prev = kNil;
      bn.next = bucket_head_;
      if (bucket_head_ != kNil) buckets_[bucket_head_].prev = b;
      bucket_head_ = b;
    } else {
      bn.prev = after;
      bn.next = buckets_[after].next;
      if (bn.next != kNil) buckets_[bn.next].prev = b;
      buckets_[after].next = b;
    }
  }

  void remove_bucket(std::uint32_t b) noexcept {
    const Bucket& bn = buckets_[b];
    if (bn.prev != kNil) {
      buckets_[bn.prev].next = bn.next;
    } else {
      bucket_head_ = bn.next;
    }
    if (bn.next != kNil) buckets_[bn.next].prev = bn.prev;
    buckets_[b].next = bucket_free_;
    bucket_free_ = b;
  }

  /// Raise bucketed counter c by w.
  void advance(std::uint32_t c, std::uint64_t w) noexcept {
    Counter& cn = counters_[c];
    const std::uint32_t ob = cn.bucket;
    Bucket& old = buckets_[ob];
    const std::uint64_t target = cn.count + w;
    if (old.head == c && cn.next == kNil &&
        (old.next == kNil || buckets_[old.next].value > target)) {
      // Alone, and nothing in (count, target]: the bucket moves with it.
      old.value = target;
      cn.count = target;
      return;
    }
    detach_counter(c);
    place(c, w, ob);  // its value == the old count < target
    if (buckets_[ob].head == kNil) remove_bucket(ob);
  }

  /// Put detached (or brand-new) counter c into the bucket for count + w,
  /// searching the bucket list after `last` (kNil: from the head).
  void place(std::uint32_t c, std::uint64_t w, std::uint32_t last) noexcept {
    Counter& cn = counters_[c];
    const std::uint64_t target = cn.count + w;
    std::uint32_t next = (last == kNil) ? bucket_head_ : buckets_[last].next;
    while (next != kNil && buckets_[next].value < target) {
      last = next;
      next = buckets_[next].next;
    }
    if (next != kNil && buckets_[next].value == target) {
      push_counter(c, next);
    } else {
      const std::uint32_t b = alloc_bucket(target);
      insert_bucket_after(b, last);
      push_counter(c, b);
    }
    cn.count = target;
  }

  Storage<Counter> counters_;  ///< cap slots; [0, size_) live
  Storage<Bucket> buckets_;    ///< cap + 1 slots; [0, bucket_used_) ever handed out
  Storage<Slot> index_;        ///< mask_ + 1 slots (4 x cap, power of two)
  std::uint32_t mask_;
  std::uint32_t bucket_free_ = kNil;
  std::uint32_t bucket_head_ = kNil;
  std::uint32_t bucket_used_ = 0;
  std::uint32_t cap_;
  std::uint32_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rhhh
