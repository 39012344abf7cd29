// snapshot_cell.h — a read-mostly publication point for immutable,
// versioned state (the RCU/epoch half of the concurrent-store toolkit;
// ValidatedMemo is the mutable, mutex-guarded half).
//
// One writer (or several, externally serialized) builds the next version
// of some state off to the side, then publishes it with a single atomic
// shared_ptr swap. Any number of readers acquire() concurrently and
// lock-free: each gets a refcounted pointer to ONE consistent version
// that stays alive — and byte-stable, the pointee is const — for as long
// as the reader holds it, no matter how many newer versions are
// published meanwhile. There is no read lock, no writer starvation, and
// no torn state: a reader sees either the version before a publish or
// the version after it, never a mix.
//
// Memory ordering: publish() is a release store and acquire() an acquire
// load, so everything the writer wrote into the new version
// happens-before any reader that observes it. The version counter is
// bumped BEFORE the pointer swap, so version() can only run ahead of the
// published pointer, never behind it — a reader that re-checks version()
// after acquire() may detect a concurrent publish, but can never miss
// one (the seqlock-style validation the corpus service's tests use).
//
// Under ThreadSanitizer the cell swaps its storage for a mutex-boxed
// shared_ptr with identical observable semantics: libstdc++ implements
// std::atomic<shared_ptr> as a bit-lock on the refcount word guarding a
// PLAIN pointer word, a protocol TSan cannot model before the GCC 13
// annotations — every reader/writer pair reports a false race on the
// pointer word. The mutex variant is fully instrumented, so the TSan CI
// leg genuinely checks the publication discipline (epoch ordering, the
// arena append-beyond-published-size rule) instead of drowning it in
// library noise.
#ifndef DFSM_RUNTIME_SNAPSHOT_CELL_H
#define DFSM_RUNTIME_SNAPSHOT_CELL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#if defined(__SANITIZE_THREAD__)
#define DFSM_SNAPSHOT_CELL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DFSM_SNAPSHOT_CELL_TSAN 1
#endif
#endif

#ifdef DFSM_SNAPSHOT_CELL_TSAN
#include <mutex>
#endif

namespace dfsm::runtime {

template <typename T>
class SnapshotCell {
 public:
  SnapshotCell() = default;
  explicit SnapshotCell(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {
    version_.store(1, std::memory_order_release);
  }

  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  /// Publishes `next` as the current version (release). The previous
  /// version stays alive until its last reader drops it. Null is a valid
  /// publication (an "empty" state). Writers must be externally
  /// serialized — concurrent publishes are atomic but their order is
  /// then unspecified.
  void publish(std::shared_ptr<const T> next) {
    version_.fetch_add(1, std::memory_order_release);
#ifdef DFSM_SNAPSHOT_CELL_TSAN
    std::lock_guard<std::mutex> lock{mu_};
    ptr_ = std::move(next);
#else
    ptr_.store(std::move(next), std::memory_order_release);
#endif
  }

  /// Returns the current version's pointer (acquire); never blocks a
  /// writer. The returned pointer pins that version for the caller's
  /// lifetime of use.
  [[nodiscard]] std::shared_ptr<const T> acquire() const {
#ifdef DFSM_SNAPSHOT_CELL_TSAN
    std::lock_guard<std::mutex> lock{mu_};
    return ptr_;
#else
    return ptr_.load(std::memory_order_acquire);
#endif
  }

  /// Number of publishes so far (monotone). May run ahead of acquire()
  /// by an in-flight publish, never behind.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

 private:
#ifdef DFSM_SNAPSHOT_CELL_TSAN
  mutable std::mutex mu_;
  std::shared_ptr<const T> ptr_;
#else
  std::atomic<std::shared_ptr<const T>> ptr_;
#endif
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace dfsm::runtime

#endif  // DFSM_RUNTIME_SNAPSHOT_CELL_H
