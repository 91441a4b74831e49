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
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "hh/backend.hpp"
#include "util/flat_hash_map.hpp"
#include "util/key128.hpp"

namespace rhhh {

template <class Key, class Hash = KeyHash<Key>>
class SpaceSaving {
 public:
  /// Allocates every array once at `capacity` (so increments never
  /// allocate) but writes only the index: a counter slot is first written
  /// when a key takes it, a bucket slot when the bump pointer reaches it.
  explicit SpaceSaving(std::size_t capacity)
      : counters_(uninitialized<Counter>(capacity)),
        buckets_(uninitialized<Bucket>(capacity + 1)),
        index_(2 * capacity),
        cap_(capacity) {
    if (capacity == 0) throw std::invalid_argument("SpaceSaving: capacity must be > 0");
    index_.reserve(cap_);
  }

  /// Copies allocate at capacity once and copy only the live slots.
  SpaceSaving(const SpaceSaving& o)
      : counters_(uninitialized<Counter>(o.cap_)),
        buckets_(uninitialized<Bucket>(o.cap_ + 1)),
        bucket_free_(o.bucket_free_),
        bucket_head_(o.bucket_head_),
        bucket_used_(o.bucket_used_),
        index_(o.index_),
        cap_(o.cap_),
        size_(o.size_),
        total_(o.total_),
        evictions_(o.evictions_) {
    std::copy_n(o.counters_.get(), size_, counters_.get());
    std::copy_n(o.buckets_.get(), bucket_used_, buckets_.get());
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
  void prefetch(std::uint64_t h) const noexcept { index_.prefetch(h); }

  /// Pull the counter cell of key `k` toward L1: a dependent second-stage
  /// prefetch (the cell address needs one index probe, so issue this at a
  /// shorter distance than prefetch(), once the slot line has arrived).
  void prefetch_counter(const Key& k, std::uint64_t h) const noexcept {
    if (const std::uint32_t* slot = index_.find_hashed(k, h)) {
      __builtin_prefetch(counters_.get() + *slot, 1, 3);
    }
  }

  /// Count `w` arrivals of key `k`. O(1) for w == 1 (the RHHH datapath);
  /// weighted updates walk at most the number of distinct counts crossed.
  void increment(const Key& k, std::uint64_t w = 1) {
    increment_hashed(k, hash_of(k), w);
  }

  /// increment() with the key hash precomputed. The lookup and the
  /// insertion share ONE index probe (find-or-insert), so every arrival
  /// hashes and walks the probe sequence exactly once -- tracked hit,
  /// fresh-counter insert and eviction alike.
  void increment_hashed(const Key& k, std::uint64_t h, std::uint64_t w = 1) {
    if (w == 0) return;
    total_ += w;
    std::uint32_t c;
    bool attached = true;
    auto [slot, inserted] = index_.try_emplace_hashed(k, h, kNil);
    if (!inserted) {
      c = *slot;
    } else if (size_ < cap_) {
      c = static_cast<std::uint32_t>(size_++);
      counters_[c] = Counter{k, 0, 0, kNil, kNil, kNil};
      *slot = c;
      attached = false;
    } else {
      // Evict the minimum: replace its key, inherit its count as the error
      // bound (the classic Space-Saving replacement step). Write the slot
      // value BEFORE erasing the evicted key: backward-shift deletion may
      // relocate our freshly inserted entry (copying its value along), so
      // the pointer is only trustworthy until the erase.
      const std::uint32_t b = bucket_head_;
      c = buckets_[b].head;
      const std::uint64_t min = buckets_[b].value;
      *slot = c;
      index_.erase(counters_[c].key);
      counters_[c].key = k;
      counters_[c].error = min;
      counters_[c].count = min;
      ++evictions_;
    }
    advance(c, w, attached);
  }

  /// Upper bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t upper(const Key& k) const noexcept {
    const std::uint32_t* slot = index_.find(k);
    return slot != nullptr ? counters_[*slot].count : min_bound();
  }
  /// Lower bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t lower(const Key& k) const noexcept {
    const std::uint32_t* slot = index_.find(k);
    if (slot == nullptr) return 0;
    const Counter& c = counters_[*slot];
    return c.count - c.error;
  }
  [[nodiscard]] bool tracked(const Key& k) const noexcept { return index_.contains(k); }

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
    p.saturation =
        cap_ > 0 ? static_cast<double>(size_) / static_cast<double>(cap_) : 0.0;
    p.noise = static_cast<double>(min_bound());
    return p;
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) {
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
    index_.clear();
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
      counters_[*index_.find(it->key)].error = it->error;
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
      counters_[*index_.find(e.key)].error = e.upper - e.lower;
    }
    total_ = total;
  }

  /// Structural invariant check for tests: bucket list ascending and
  /// consistent, every counter indexed, counts summing to total().
  [[nodiscard]] bool validate() const {
    std::size_t seen = 0;
    std::uint64_t sum = 0;
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
        if (cn.bucket != b || cn.prev != prev_c) return false;
        if (cn.count != bk.value || cn.error > cn.count) return false;
        const std::uint32_t* slot = index_.find(cn.key);
        if (slot == nullptr || *slot != c) return false;
        sum += cn.count;
        ++seen;
        prev_c = c;
      }
    }
    (void)sum;  // equals total() for pure streams; merge() legitimately drops mass
    return seen == size_ && index_.size() == size_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cap_ * sizeof(Counter) + (cap_ + 1) * sizeof(Bucket) +
           index_.capacity() * (sizeof(Key) + sizeof(std::uint32_t) + 2);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Counter {
    Key key{};
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint32_t bucket = kNil;
    std::uint32_t prev = kNil;  // within-bucket list
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint64_t value = 0;
    std::uint32_t head = kNil;  // first counter in this bucket
    std::uint32_t prev = kNil;  // bucket list (ascending by value)
    std::uint32_t next = kNil;
  };

  /// Raw storage for n slots. Counter and Bucket are aggregates, so the
  /// allocation itself begins their lifetimes; each slot is assigned in
  /// full before it is first read.
  struct ReleaseStorage {
    void operator()(void* p) const noexcept { ::operator delete(p); }
  };
  template <class T>
  using Storage = std::unique_ptr<T[], ReleaseStorage>;
  template <class T>
  [[nodiscard]] static Storage<T> uninitialized(std::size_t n) {
    return Storage<T>(static_cast<T*>(::operator new(n * sizeof(T))));
  }

  /// A freed bucket if there is one, else the next never-used slot. At most
  /// cap + 1 buckets are live at once (one per distinct count, plus the
  /// target bucket advance() allocates before it frees the source).
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
  void free_bucket(std::uint32_t b) noexcept {
    buckets_[b].next = bucket_free_;
    bucket_free_ = b;
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
    free_bucket(b);
  }

  /// Move counter c forward by w; `attached` says whether c currently sits
  /// in a bucket (false only for a brand-new counter).
  void advance(std::uint32_t c, std::uint64_t w, bool attached) noexcept {
    Counter& cn = counters_[c];
    const std::uint64_t target = cn.count + w;
    std::uint32_t old_bucket = kNil;
    std::uint32_t last = kNil;  // last bucket with value < target
    if (attached) {
      old_bucket = cn.bucket;
      detach_counter(c);
      last = old_bucket;  // its value == old count < target
    }
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
    if (old_bucket != kNil && buckets_[old_bucket].head == kNil) {
      remove_bucket(old_bucket);
    }
  }

  Storage<Counter> counters_;  ///< cap slots; [0, size_) live
  Storage<Bucket> buckets_;    ///< cap + 1 slots; [0, bucket_used_) ever handed out
  std::uint32_t bucket_free_ = kNil;
  std::uint32_t bucket_head_ = kNil;
  std::uint32_t bucket_used_ = 0;
  FlatHashMap<Key, std::uint32_t, Hash> index_;
  std::size_t cap_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rhhh
