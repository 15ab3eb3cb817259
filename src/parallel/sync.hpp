// Blocking-synchronization primitives for the serving layer, wrapped so the
// raw std threading machinery stays confined to src/parallel/ (the
// raw-thread and atomic-outside-parallel lint rules enforce that boundary).
//
// These are NOT for compute code: the deterministic pool primitives in
// parallel_for.hpp remain the only sanctioned way to parallelize numeric
// work, and nothing here may appear inside a pool task. The daemon layer
// composes these for control-plane concurrency only — request hand-off,
// lifecycle gating, artifact swaps — where blocking is the point and no
// floating-point result depends on scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace vmincqr::parallel {

/// Plain mutual exclusion for control-plane state (queue bookkeeping, LRU
/// maps, stats counters). Lockable with ScopedLock below.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() { mutex_.lock(); }
  void unlock() { mutex_.unlock(); }

 private:
  friend class ConditionVar;
  std::mutex mutex_;
};

/// RAII lock over Mutex; never copied, never moved, never unlocked early.
class ScopedLock {
 public:
  explicit ScopedLock(Mutex& mutex) : mutex_(mutex) { mutex_.lock(); }
  ~ScopedLock() { mutex_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mutex_;
};

/// One-shot completion event: set() exactly once, any number of waiters.
/// The daemon fulfils one per admitted request; shed requests are set
/// before the ticket is handed back, so wait() never blocks on them.
///
/// One atomic flag and C++20 atomic wait/notify: set() is a release store
/// plus a wake, and a waiter takes no lock. Whatever the setter wrote
/// before set() is visible to a thread once its wait() returns or its
/// is_set() reads true (acquire loads).
class OneShotEvent {
 public:
  /// Marks the event set and wakes every waiter. Idempotent.
  void set();
  /// Blocks until set() has happened (returns immediately afterwards).
  void wait() const;
  [[nodiscard]] bool is_set() const;

 private:
  std::atomic<bool> set_{false};
};

/// Reusable open/closed gate, open on construction. wait_open() blocks while
/// closed. The daemon parks its batcher on one for pause(): closing the gate
/// holds the NEXT batch, it never interrupts one in flight.
class Gate {
 public:
  void open();
  void close();
  void wait_open() const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = true;
};

}  // namespace vmincqr::parallel
