// fcm_lint fixture: thread-owner rule (linted as src/index/fixture.cc).
#include <future>
#include <thread>
#include <vector>

struct BackgroundLoop {
  std::thread worker;                       // expect[thread-owner]
  std::vector<std::jthread> helpers;        // expect[thread-owner]
};

int Bad() {
  auto f = std::async([] { return 1; });    // expect[thread-owner]
  return f.get();
}

unsigned Good() {
  // Sizing a pool from the hardware spawns nothing:
  const unsigned n = std::thread::hardware_concurrency();
  // Sanctioned escape hatch for a deliberate extra thread:
  std::thread t([] {});  // fcm-lint: disable=thread-owner
  t.join();
  return n;
}
