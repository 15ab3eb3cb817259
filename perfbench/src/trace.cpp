#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr int kLocalBits = 40;

std::atomic<std::uint64_t> g_next_serial{1};

struct ThreadSlot {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const std::int64_t s = std::max(start, reach);
    const std::int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

std::map<std::uint32_t, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::uint32_t, LayerTime> out;
  for (const Span& span : spans) {
    LayerTime& layer = out[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++layer.calls;
    layer.total_ns += duration;
    const auto it = children.find(span.uid);
    layer.self_ns +=
        it == children.end()
            ? duration
            : duration - covered_ns(it->second, span.start_ns, span.end_ns);
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), serial_(g_next_serial++) {}

std::uint32_t Tracer::name_id(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<std::string> Tracer::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return names_;
}

Tracer::ThreadBuffer& Tracer::buffer() const {
  if (t_slot.serial != serial_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->index = buffers_.size() + 1;
    buffer->spans.reserve(1024);
    t_slot.serial = serial_;
    t_slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

std::uint64_t Tracer::begin(std::uint32_t name, std::uint64_t id,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  ThreadBuffer& buf = buffer();
  Span span;
  span.uid = (buf.index << kLocalBits) | (buf.spans.size() + 1);
  span.parent = parent == kCurrentParent ? current() : parent;
  span.name = name;
  span.id = id;
  span.start_ns = now_ns();
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back(span);
  return span.uid;
}

void Tracer::end(std::uint64_t uid) noexcept {
  const std::int64_t stop = now_ns();
  ThreadBuffer& buf = buffer();
  if (buf.open.empty() || buf.spans[buf.open.back()].uid != uid) {
    std::fputs("Tracer::end: span closed out of order\n", stderr);
    std::abort();
  }
  buf.spans[buf.open.back()].end_ns = stop;
  buf.open.pop_back();
}

void Tracer::record(std::uint32_t name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  ThreadBuffer& buf = buffer();
  Span span;
  span.uid = (buf.index << kLocalBits) | (buf.spans.size() + 1);
  span.parent = parent == kCurrentParent ? current() : parent;
  span.name = name;
  span.id = id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buf.spans.push_back(span);
}

std::uint64_t Tracer::current() const {
  if (!enabled_) return 0;
  const ThreadBuffer& buf = buffer();
  return buf.open.empty() ? 0 : buf.spans[buf.open.back()].uid;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

}  // namespace perfbench
