// Golden fixture: raw-thread — a std::thread outside src/parallel/ must
// fire exactly once. All concurrency goes through the deterministic pool.
// (No #include <thread> here: that would additionally fire the
// atomic-outside-parallel include ban; fixtures are linted, never compiled.)

void spawn_worker() {
  std::thread worker([] {});
  worker.join();
}
