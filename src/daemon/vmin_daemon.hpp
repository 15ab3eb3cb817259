// VminDaemon: long-running fleet-scale serving core around
// serve::VminPredictor (DESIGN.md §11).
//
// Shape of the machine:
//
//   clients --submit()--> BoundedQueue --pop_batch--> batcher thread
//                                                        |
//                                     SwapCell<Epoch> ---+--> predict_batch
//                                                              (thread pool)
//
//   * Request batching. submit() enqueues one chip's query; a single
//     batcher ServiceThread drains up to max_batch_rows at a time and
//     serves them with ONE predict_batch call, sharded across the
//     deterministic pool. The batcher is the pool's sole external caller
//     while the daemon runs (the pool admits one at a time).
//   * Hot swap. install_bytes/activate publish a new immutable Epoch
//     {id, predictor} through a SwapCell. Each batch snapshots the cell
//     once, so every response is computed bit-exactly by exactly one
//     epoch — never a mix — and the old bundle retires when its last
//     in-flight batch drops the snapshot (refcount retirement).
//   * Admission control. The queue is bounded; overload sheds with a
//     typed kShedQueueFull response instead of queueing unboundedly, and
//     shutdown sheds with kShedShutdown. Shed tickets are pre-resolved:
//     wait() never blocks on them.
//   * FIFO fairness. Admission stamps a monotone sequence under the queue
//     lock; the batcher stamps served_sequence in drain order. For every
//     admitted request the two agree — the soak battery asserts it.
//
// Lifecycle is one-shot: start() once, stop() once (idempotent, also run
// by the destructor); pause()/resume() hold the NEXT batch for
// deterministic overload tests without interrupting one in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/bundle_cache.hpp"
#include "daemon/request.hpp"
#include "parallel/bounded_queue.hpp"
#include "parallel/service_thread.hpp"
#include "parallel/swap_cell.hpp"
#include "parallel/sync.hpp"

namespace vmincqr::daemon {

struct DaemonConfig {
  /// Admission queue bound; submissions past this shed with kShedQueueFull.
  std::size_t queue_capacity = 1024;
  /// Largest coalesced batch handed to one predict_batch call.
  std::size_t max_batch_rows = 256;
  /// Resident decoded-bundle slots in the LRU cache.
  std::size_t cache_capacity = 4;
};

/// Daemon counters; a consistent snapshot is returned by stats(). All are
/// monotone except max_queue_depth (a high-water mark).
struct DaemonStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t served_ok = 0;
  std::uint64_t served_bad_width = 0;
  std::uint64_t served_no_artifact = 0;
  std::uint64_t served_internal_error = 0;
  std::uint64_t batches = 0;
  std::uint64_t installs = 0;
  std::uint64_t activations = 0;
  std::size_t max_queue_depth = 0;
  BundleCacheStats cache;
};

namespace detail {
/// Shared slot between a submitter and the batcher: the batcher (or the
/// shedding producer) writes `response`, then sets `done`; the ticket
/// holder reads `response` only after waiting on `done`.
struct Pending {
  parallel::OneShotEvent done;
  ServeResponse response;
};
}  // namespace detail

/// Handle to one in-flight (or already shed) request.
class Ticket {
 public:
  Ticket() = default;

  /// Blocks until the request is resolved, then returns its response.
  /// Contract violation on a default-constructed ticket. Must not be
  /// called from inside the daemon's own batcher (self-deadlock).
  [[nodiscard]] const ServeResponse& wait() const;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// True once the response is written (wait() would return immediately).
  /// Shed tickets are born resolved; admitted ones resolve when served.
  [[nodiscard]] bool resolved() const {
    return state_ != nullptr && state_->done.is_set();
  }

 private:
  friend class VminDaemon;
  explicit Ticket(std::shared_ptr<detail::Pending> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::Pending> state_;
};

class VminDaemon {
 public:
  explicit VminDaemon(DaemonConfig config = DaemonConfig{});
  /// Stops the daemon (clean drain) if still running.
  ~VminDaemon();
  VminDaemon(const VminDaemon&) = delete;
  VminDaemon& operator=(const VminDaemon&) = delete;

  /// Spawns the batcher. Contract violation if already started. While the
  /// daemon runs it must be the thread pool's only external caller: do not
  /// call predict_batch / parallel_for / set_max_threads concurrently.
  void start();

  /// Closes admissions, drains every already-admitted request, joins the
  /// batcher. Idempotent; requests submitted afterwards shed kShedShutdown.
  void stop();

  /// Holds the batcher before its NEXT batch (in-flight work completes).
  /// Queued and newly submitted requests park until resume(). Test hook
  /// for building deterministic overload without sleeps.
  void pause();
  void resume();

  /// Decodes VQAF bytes, caches the bundle under `key`, and activates it
  /// as a new epoch. Decoding happens before any state changes, so a
  /// throw (artifact::ArtifactError on malformed bytes) leaves the
  /// previously active epoch serving untouched — swap is all-or-nothing.
  /// Returns the new epoch id (monotone from 1).
  std::uint64_t install_bytes(const std::string& key,
                              const std::vector<std::uint8_t>& bytes);
  /// install_bytes for a .vqa file on disk.
  std::uint64_t install_file(const std::string& key, const std::string& path);

  /// Re-activates a previously installed bundle from the LRU cache.
  /// Throws std::invalid_argument if `key` is not resident (installed
  /// bundles can be evicted; re-install to recover). Returns the epoch id.
  std::uint64_t activate(const std::string& key);

  /// Id of the currently serving epoch; 0 before the first install.
  [[nodiscard]] std::uint64_t active_epoch() const;

  /// Non-blocking admission: always returns a resolved-or-resolvable
  /// ticket. Overload and shutdown come back as pre-resolved typed sheds.
  [[nodiscard]] Ticket submit(ChipQuery query);

  /// submit() + wait(): the one-chip synchronous convenience call.
  [[nodiscard]] ServeResponse ask(ChipQuery query);

  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }

 private:
  /// One immutable published artifact generation.
  struct Epoch {
    std::uint64_t id = 0;
    std::shared_ptr<const serve::VminPredictor> predictor;
  };

  struct WorkItem {
    ChipQuery query;
    std::shared_ptr<detail::Pending> pending;
  };

  void run_loop();
  void serve_batch(std::vector<WorkItem>& batch);
  std::uint64_t publish(std::shared_ptr<const serve::VminPredictor> predictor,
                        bool is_install);

  /// Submitters write the queue and the counters on every request; the
  /// batcher writes the queue, the epoch cell, the gate and its sequence on
  /// every batch. The queue, the epoch cell and the counters each start a
  /// cache line, so no line mixes one thread's private writes with state
  /// the other thread uses (false sharing). Unaligned, which members shared
  /// a line depended on where the heap placed the daemon (DESIGN.md §11).
  static constexpr std::size_t kCacheLine = 64;

  DaemonConfig config_;
  BundleCache cache_;
  alignas(kCacheLine) parallel::BoundedQueue<WorkItem> queue_;
  alignas(kCacheLine) parallel::SwapCell<Epoch> epoch_cell_;
  parallel::Gate gate_;
  parallel::ServiceThread batcher_;

  /// Serializes lifecycle transitions and epoch-id allocation.
  mutable parallel::Mutex control_mutex_;
  std::uint64_t next_epoch_id_ = 1;
  bool started_ = false;
  bool stopped_ = false;

  /// Batcher-private service counter (only the batcher thread touches it).
  std::uint64_t next_served_sequence_ = 0;

  alignas(kCacheLine) mutable parallel::Mutex stats_mutex_;
  DaemonStats stats_;
};

}  // namespace vmincqr::daemon
