// Deterministic data-parallel loops on top of runtime::ThreadPool.
//
// parallel_for(begin, end, grain, fn)  — fn(i) for every i in [begin, end),
//     executed in chunks of `grain` consecutive indices. Chunk boundaries
//     depend only on the range and grain, never on the thread count, so a
//     body that writes to disjoint per-index slots produces bit-identical
//     output whether it runs on 1 thread or 64.
// parallel_map(begin, end, grain, fn)  — collects fn(i) into a vector in
//     index order. Combined with a serial fold over that vector this gives
//     reductions whose floating-point rounding matches the plain serial
//     loop exactly — the property the determinism tests pin down.
//
// Exceptions: the first exception thrown by any chunk (first by completion,
// not by index) is captured and rethrown on the calling thread after all
// chunks have finished or been skipped; remaining chunks are abandoned
// cheaply (claimed, not executed) once a failure is recorded.
//
// The calling thread always participates in chunk execution, so these
// helpers never deadlock when invoked from inside a pool worker and never
// enqueue helpers that outlive the call's own stack frame unprotected.
//
// Nesting: a parallel_for called from inside another parallel_for's body
// runs serially, inline on the thread executing the outer chunk, and puts
// nothing on the pool. The outer loop already keeps the pool busy, so
// inner helpers would only queue behind it as no-ops. Chunk boundaries
// never depend on the thread count, so an inner loop's results are the
// same either way. The rule keys on a thread-local depth that
// detail::drain_chunks raises while it runs a body; an outer loop that
// itself ran serially (one thread or one chunk) raises nothing, so loops
// inside it still fan out.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace dnj::runtime {

/// Maps a user-facing thread knob to an actual count: positive values pass
/// through, zero (the "default" sentinel every config uses) resolves to
/// DNJ_THREADS / hardware concurrency.
inline unsigned resolve_threads(int num_threads) {
  return num_threads > 0 ? static_cast<unsigned>(num_threads) : ThreadPool::default_threads();
}

namespace detail {

/// Number of parallel_for bodies this thread is executing right now.
inline thread_local int region_depth = 0;

struct LoopState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable cv;
};

/// Claims chunks until none remain. Returns after contributing to `done`
/// for every claimed chunk; the last finisher signals the condition
/// variable. `body` is invoked as (*body)(index) and is dereferenced only
/// while a chunk is actually claimed — a straggler helper that wakes after
/// the loop completed (and the caller's body was destroyed) sees next >=
/// chunks and never touches the pointer.
template <typename Body>
void drain_chunks(const std::shared_ptr<LoopState>& st, const Body* body) {
  for (;;) {
    const std::size_t c = st->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= st->chunks) return;
    if (!st->failed.load(std::memory_order_relaxed)) {
      const std::size_t lo = st->begin + c * st->grain;
      const std::size_t hi = std::min(st->end, lo + st->grain);
      ++region_depth;
      try {
        for (std::size_t i = lo; i < hi; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->mutex);
        if (!st->error) st->error = std::current_exception();
        st->failed.store(true, std::memory_order_relaxed);
      }
      --region_depth;
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->chunks) {
      std::lock_guard<std::mutex> lock(st->mutex);
      st->cv.notify_all();
    }
  }
}

}  // namespace detail

template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, const Body& body,
                  int num_threads = 0) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  ThreadPool& pool = ThreadPool::global();
  const unsigned threads = std::min<unsigned>(resolve_threads(num_threads),
                                              pool.worker_count() + 1);
  if (threads <= 1 || chunks <= 1 || detail::region_depth > 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto st = std::make_shared<detail::LoopState>();
  st->begin = begin;
  st->end = end;
  st->grain = grain;
  st->chunks = chunks;

  // Helpers capture the state by shared_ptr but the body by pointer: any
  // helper that starts after the loop already completed finds next >=
  // chunks and returns without dereferencing the (dead) body.
  const Body* body_ptr = &body;
  const unsigned helpers =
      static_cast<unsigned>(std::min<std::size_t>(threads - 1, chunks - 1));
  for (unsigned h = 0; h < helpers; ++h)
    pool.submit([st, body_ptr] { detail::drain_chunks(st, body_ptr); });

  detail::drain_chunks(st, body_ptr);

  std::unique_lock<std::mutex> lock(st->mutex);
  st->cv.wait(lock, [&st] { return st->done.load(std::memory_order_acquire) == st->chunks; });
  if (st->error) std::rethrow_exception(st->error);
}

/// fn(i) for i in [begin, end), results returned in index order. The result
/// type must be default-constructible and move-assignable.
template <typename Fn>
auto parallel_map(std::size_t begin, std::size_t end, std::size_t grain, const Fn& fn,
                  int num_threads = 0) -> std::vector<std::decay_t<decltype(fn(begin))>> {
  using R = std::decay_t<decltype(fn(begin))>;
  std::vector<R> out(end > begin ? end - begin : 0);
  parallel_for(
      begin, end, grain, [&](std::size_t i) { out[i - begin] = fn(i); }, num_threads);
  return out;
}

}  // namespace dnj::runtime
