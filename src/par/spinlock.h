// Instrumented test-and-test-and-set spinlock.
//
// The paper measures contention as "spins before the lock is acquired"
// (spins/access for hash-bucket lines), so the lock counts its own spins. Counters are relaxed atomics: they are
// diagnostics, not synchronization.
//
// Every Spinlock carries a LockRank (see par/lock_order.h). In builds with
// PSME_LOCKDEP=1 each acquire/release is checked against the global lock
// hierarchy and the calling thread's held set; in release builds the hooks
// (and the rank/name storage) compile away entirely.
//
// The class is annotated as a Clang thread-safety capability so that
// -Wthread-safety statically checks every PSME_GUARDED_BY member against
// SpinGuard scopes.
#pragma once

#include <atomic>
#include <cstdint>

#include "base/thread_annotations.h"
#include "par/lock_order.h"

namespace psme {

class PSME_CAPABILITY("mutex") Spinlock {
 public:
  explicit Spinlock(LockRank rank = LockRank::Unranked,
                    const char* name = nullptr) noexcept {
#if PSME_LOCKDEP
    rank_ = rank;
    name_ = name;
#else
    (void)rank;
    (void)name;
#endif
  }
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  /// Acquires the lock; returns the number of spins (failed acquisition
  /// attempts) performed while waiting.
  uint64_t lock() PSME_ACQUIRE() {
#if PSME_LOCKDEP
    // Checked before spinning: a self-deadlock would otherwise hang here.
    lockdep::on_acquire(this, rank_, name_);
#endif
    uint64_t spins = 0;
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) break;
      ++spins;
      // Test loop: wait for the lock to look free before retrying the RMW.
      while (flag_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    total_spins_.fetch_add(spins, std::memory_order_relaxed);
    total_acquires_.fetch_add(1, std::memory_order_relaxed);
    return spins;
  }

  void unlock() PSME_RELEASE() {
#if PSME_LOCKDEP
    lockdep::on_release(this);
#endif
    flag_.store(false, std::memory_order_release);
  }

  /// The rank this lock was constructed with. Ranks are only stored when
  /// PSME_LOCKDEP is on; otherwise every lock reports Unranked (callers like
  /// the network verifier skip rank checks in that case).
  [[nodiscard]] LockRank rank() const noexcept {
#if PSME_LOCKDEP
    return rank_;
#else
    return LockRank::Unranked;
#endif
  }

  [[nodiscard]] uint64_t total_spins() const {
    return total_spins_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t total_acquires() const {
    return total_acquires_.load(std::memory_order_relaxed);
  }
  void reset_stats() {
    total_spins_.store(0, std::memory_order_relaxed);
    total_acquires_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
  std::atomic<uint64_t> total_spins_{0};
  std::atomic<uint64_t> total_acquires_{0};
#if PSME_LOCKDEP
  LockRank rank_ = LockRank::Unranked;
  const char* name_ = nullptr;
#endif
};

/// RAII guard.
class PSME_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(Spinlock& l) PSME_ACQUIRE(l) : lock_(l) {
    spins_ = lock_.lock();
  }
  ~SpinGuard() PSME_RELEASE() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

  [[nodiscard]] uint64_t spins() const { return spins_; }

 private:
  Spinlock& lock_;
  uint64_t spins_ = 0;
};

}  // namespace psme
