// SpscRing: a bounded lock-free single-producer/single-consumer queue.
//
// This is the forwarding channel of the "distributed" measurement deployment
// (paper §5.2) and of every producer→worker link in the multi-core engine
// (src/engine/): a dataplane thread pushes packet records, a measurement /
// worker thread pops them. A full ring drops the record (and the caller
// counts it), mirroring a saturated forwarding port.
//
// Each side caches the opposing index (producer caches head_, consumer
// caches tail_), so the hot path touches the shared cache line only on
// apparent-full / apparent-empty; the batch operations amortize even that
// over up to `n` records per reload and publish with a single store.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "util/bits.hpp"

namespace rhhh {

/// Destructive-interference distance. Pinned to 64 (every mainstream x86/ARM
/// server core) rather than std::hardware_destructive_interference_size,
/// whose value shifts with -mtune and would silently change the ABI.
inline constexpr std::size_t kCacheLine = 64;

template <class T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing is specialized for POD records");

 public:
  /// Capacity is rounded up to a power of two; one slot is kept free to
  /// distinguish full from empty, so usable capacity is `capacity() - 1`.
  explicit SpscRing(std::size_t capacity)
      : mask_(next_pow2(capacity < 2 ? 2 : capacity) - 1),
        buf_(static_cast<T*>(::operator new(sizeof(T) * (mask_ + 1),
                                            std::align_val_t{alignof(T)}))) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false (drops) when the ring is full.
  bool try_push(const T& v) noexcept {
    // order: relaxed -- tail_ is producer-owned; only this thread writes it,
    // so its own last store is always visible without synchronization.
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      // order: acquire -- pairs with the consumer's release store of head_;
      // guarantees the consumer has finished reading buf_[head] before the
      // producer may overwrite that slot.
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    buf_.get()[tail] = v;
    // order: release -- publishes buf_[tail]; pairs with the consumer's
    // acquire load of tail_, which must observe the record, not the slot's
    // stale bytes.
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) noexcept {
    // order: relaxed -- head_ is consumer-owned; only this thread writes it.
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      // order: acquire -- pairs with the producer's release store of tail_;
      // makes the published record in buf_[head] visible before we read it.
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = buf_.get()[head];
    // order: release -- returns the slot to the producer; pairs with the
    // producer's acquire load of head_ so our read of buf_[head] completes
    // before the slot can be overwritten.
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Producer side, batched: pushes up to `n` records from `v`, returning
  /// how many were accepted (0..n; the tail of the batch is what a full ring
  /// rejects). The opposing index is reloaded at most once per call, and the
  /// accepted records become visible with one release store.
  std::size_t try_push_n(const T* v, std::size_t n) noexcept {
    // order: relaxed -- tail_ is producer-owned (same as try_push).
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = mask_ - ((tail - head_cache_) & mask_);
    if (free < n) {  // apparent shortfall: refresh the cached consumer index
      // order: acquire -- pairs with the consumer's release of head_; the
      // freed slots must be fully read before this batch overwrites them.
      head_cache_ = head_.load(std::memory_order_acquire);
      free = mask_ - ((tail - head_cache_) & mask_);
      if (free == 0) return 0;
    }
    const std::size_t cnt = std::min(n, free);
    T* buf = buf_.get();
    for (std::size_t i = 0; i < cnt; ++i) buf[(tail + i) & mask_] = v[i];
    // order: release -- one publish for the whole batch; pairs with the
    // consumer's acquire load of tail_.
    tail_.store((tail + cnt) & mask_, std::memory_order_release);
    return cnt;
  }

  /// Consumer side, batched: pops up to `max` records into `out`, returning
  /// how many were taken. The opposing index is reloaded only on apparent
  /// empty (unlike push, a partial batch costs the consumer nothing), and
  /// consumption is published with one release store.
  std::size_t try_pop_n(T* out, std::size_t max) noexcept {
    // order: relaxed -- head_ is consumer-owned (same as try_pop).
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = (tail_cache_ - head) & mask_;
    if (avail == 0) {
      // order: acquire -- pairs with the producer's release of tail_; every
      // record in the batch is visible before the copy loop reads it.
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = (tail_cache_ - head) & mask_;
      if (avail == 0) return 0;
    }
    const std::size_t cnt = std::min(max, avail);
    const T* buf = buf_.get();
    for (std::size_t i = 0; i < cnt; ++i) out[i] = buf[(head + i) & mask_];
    // order: release -- one publish returns the whole batch of slots; pairs
    // with the producer's acquire load of head_.
    head_.store((head + cnt) & mask_, std::memory_order_release);
    return cnt;
  }

  /// Approximate number of queued records (exact only when quiescent).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    // order: acquire x2 -- callable from any thread; acquire keeps each index
    // no staler than the matching release store, though the pair is still a
    // non-atomic snapshot (hence "approx").
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return (t - h) & mask_;
  }

 private:
  struct Release {
    void operator()(T* p) const noexcept {
      ::operator delete(p, std::align_val_t{alignof(T)});
    }
  };

  std::size_t mask_;
  /// Raw slot storage, never value-initialized: T is trivially copyable and
  /// every slot is written before it is read, so constructing a ring
  /// touches no pages -- a large ring costs page faults only as far as
  /// traffic actually reaches.
  std::unique_ptr<T, Release> buf_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer index
  alignas(kCacheLine) std::size_t tail_cache_ = 0;        // consumer's view of tail
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producer index
  alignas(kCacheLine) std::size_t head_cache_ = 0;        // producer's view of head
};

}  // namespace rhhh
