// In-memory span recorder for the traced benchmark run.
//
// A span is {name, start, end, parent, id}: one timed call into a library
// layer, made from the benchmark's own code. Spans go to a per-thread buffer
// (no lock on the recording path) and are merged when the run ends. A
// disabled tracer records nothing; ScopedSpan then costs one branch.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover (the union of the children's intervals, clipped to the
// parent), so overlapping children on other threads are not counted twice.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the one clock the benchmark uses).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t uid = 0;     ///< unique per tracer; 0 is "no span"
  std::uint64_t parent = 0;  ///< uid of the enclosing span, 0 for a root
  std::uint32_t name = 0;    ///< index into Tracer::names()
  std::uint64_t id = 0;      ///< query or cell id the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name aggregate over a span set.
struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Self time and call count per span name (keyed by name index).
std::map<std::uint32_t, LayerTime> layer_times(const std::vector<Span>& spans);

class Tracer {
 public:
  static constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Interns a span name; safe from any thread.
  std::uint32_t name_id(const std::string& name);
  [[nodiscard]] std::vector<std::string> names() const;

  /// Opens a span on this thread and makes it the parent of later spans
  /// opened on this thread until end(). `parent` defaults to the innermost
  /// open span of this thread. Returns the span's uid (0 when disabled).
  std::uint64_t begin(std::uint32_t name, std::uint64_t id,
                      std::uint64_t parent = kCurrentParent);
  /// Closes the innermost open span of this thread, which must be `uid`
  /// (anything else is a bug in the caller: the process aborts).
  void end(std::uint64_t uid) noexcept;

  /// Records an already-timed span (e.g. from per-query timestamps).
  void record(std::uint32_t name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Innermost open span of this thread (0 if none).
  [[nodiscard]] std::uint64_t current() const;

  /// Every recorded span, merged across threads. Call after all recording
  /// threads have finished.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  struct ThreadBuffer {
    std::uint64_t index = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans of open spans
  };
  ThreadBuffer& buffer() const;

  bool enabled_;
  std::uint64_t serial_;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  mutable std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::uint32_t name, std::uint64_t id = 0,
             std::uint64_t parent = Tracer::kCurrentParent)
      : tracer_(tracer),
        uid_(tracer.enabled() ? tracer.begin(name, id, parent) : 0) {}
  ~ScopedSpan() {
    if (uid_ != 0) tracer_.end(uid_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

 private:
  Tracer& tracer_;
  std::uint64_t uid_;
};

}  // namespace perfbench
