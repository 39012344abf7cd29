// validated_memo.h — the fingerprint-validated memo and its one fill.
//
// ValidatedMemo<K, V, Hash> is the cache every re-check of the same
// model goes through: the sweep engine's per-(operation, sub-mask) cells
// (analysis::SweepMemoStore, DESIGN.md §11) and the linter's
// per-(model, rule) findings (staticlint::LintMemoStore, §13).
//
//   * Full keys are compared by equality; the hash only buckets, so a
//     hash collision cannot alias two entries.
//   * Every entry carries the fingerprint of what it was computed from.
//     A lookup with a different fingerprint finds a STALE entry: it is
//     dropped under the same lock that found it and the lookup misses.
//     A value a concurrent writer inserted can therefore never be
//     dropped by a lookup that saw an older one.
//   * Values go in and come out by copy; no reference escapes the lock.
//
// memo_fill runs n cells through an optional memo in three phases —
// serial lookup, parallel evaluation of the misses, serial insertion in
// index order — so the values, and the counts it returns, are the same
// at every DFSM_THREADS setting.
#ifndef DFSM_RUNTIME_VALIDATED_MEMO_H
#define DFSM_RUNTIME_VALIDATED_MEMO_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/parallel.h"

namespace dfsm::runtime {

template <typename K, typename V, typename Hash = std::hash<K>>
class ValidatedMemo {
 public:
  ValidatedMemo() = default;
  ValidatedMemo(const ValidatedMemo&) = delete;
  ValidatedMemo& operator=(const ValidatedMemo&) = delete;

  /// Returns a copy of the value stored under `key` when its fingerprint
  /// equals `fp`. A stale entry is erased; `invalidated`, when non-null,
  /// is set to whether THIS lookup erased one.
  [[nodiscard]] std::optional<V> lookup(const K& key, std::uint64_t fp,
                                        bool* invalidated = nullptr) {
    if (invalidated != nullptr) *invalidated = false;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    if (it->second.first != fp) {
      entries_.erase(it);
      if (invalidated != nullptr) *invalidated = true;
      return std::nullopt;
    }
    return it->second.second;
  }

  /// Inserts or overwrites the entry, validated by `fp`.
  void insert(const K& key, std::uint64_t fp, V value) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.insert_or_assign(key, std::pair{fp, std::move(value)});
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<K, std::pair<std::uint64_t, V>, Hash> entries_;
};

/// What one memo_fill call produced. The counts are zero without a memo.
template <typename V>
struct MemoFill {
  std::vector<V> values;        ///< cell i's value, in index order
  std::size_t evaluated = 0;    ///< cells computed (every cell without a memo)
  std::size_t hits = 0;         ///< cells served by the memo
  std::size_t misses = 0;       ///< cells the memo could not serve
  std::size_t invalidated = 0;  ///< stale entries dropped by the lookups
};

/// Fills cells 0..n-1: cell i is served from `memo` under
/// (key_at(i), fp_at(i)) when it holds a fresh entry, and is otherwise
/// computed as eval(i) — concurrently with the other misses — and then
/// inserted. `memo` may be null: every cell is evaluated and key_at /
/// fp_at are never called. V must be default-constructible.
template <typename K, typename V, typename Hash, typename KeyAt,
          typename FpAt, typename Eval>
[[nodiscard]] MemoFill<V> memo_fill(ValidatedMemo<K, V, Hash>* memo,
                                    std::size_t n, KeyAt&& key_at,
                                    FpAt&& fp_at, Eval&& eval,
                                    ThreadPool& pool = ThreadPool::global()) {
  MemoFill<V> fill;
  fill.values.resize(n);
  // Phase 1 (serial): look every cell up in index order.
  std::vector<std::size_t> missed;
  for (std::size_t i = 0; i < n; ++i) {
    if (memo == nullptr) {
      missed.push_back(i);
      continue;
    }
    bool invalidated = false;
    if (auto v = memo->lookup(key_at(i), fp_at(i), &invalidated)) {
      fill.values[i] = std::move(*v);
      ++fill.hits;
    } else {
      missed.push_back(i);
      ++fill.misses;
      if (invalidated) ++fill.invalidated;
    }
  }
  // Phase 2 (parallel): evaluate the misses; each writes its own slot.
  parallel_for(
      missed.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          fill.values[missed[j]] = eval(missed[j]);
        }
      },
      pool);
  fill.evaluated = missed.size();
  // Phase 3 (serial): insert the fresh values in index order.
  if (memo != nullptr) {
    for (const std::size_t i : missed) {
      memo->insert(key_at(i), fp_at(i), fill.values[i]);
    }
  }
  return fill;
}

}  // namespace dfsm::runtime

#endif  // DFSM_RUNTIME_VALIDATED_MEMO_H
