#include "parallel/sync.hpp"

namespace vmincqr::parallel {

void OneShotEvent::set() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    set_ = true;
  }
  cv_.notify_all();
}

void OneShotEvent::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return set_; });
}

bool OneShotEvent::is_set() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return set_;
}

void Gate::open() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
  }
  cv_.notify_all();
}

void Gate::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_ = false;
}

void Gate::wait_open() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return open_; });
}

}  // namespace vmincqr::parallel
