// One-shot fork-join for tests that need raw threads outside a
// ParallelMatcher (deque races, concurrent arena traffic).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psme::test {

/// Calls fn(worker_index) once per worker, concurrently, on `n` fresh
/// threads (inline when n <= 1); joins them all and rethrows the first
/// worker exception.
inline void run_workers(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace psme::test
