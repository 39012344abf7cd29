// fingerprint.h — structural identity fingerprints for the model layer.
//
// Predicates are opaque callables, so two pFSMs can only be compared by
// their declared structure: name, Figure-8 type, activity text, the
// spec/impl predicate descriptions plus their construction provenance
// (PredicateKind), the accept action, and the declared_secure bit — the
// same identity contract the static linter's IR snapshot uses. The
// fingerprint of an operation (and transitively of a chain) is a pure
// function of that structure: it changes exactly when the operation's
// pFSM set changes, which is what the cross-sweep memo store validates
// its entries by (analysis::SweepMemoStore, a runtime::ValidatedMemo;
// DESIGN.md §11).
//
// The hash is 64-bit FNV-1a over a length-delimited field stream, so
// concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot alias. A
// fingerprint is an INVALIDATION token, not an identity proof — any
// store keyed by it must also compare full keys (see MemoKey).
#ifndef DFSM_CORE_FINGERPRINT_H
#define DFSM_CORE_FINGERPRINT_H

#include <cstdint>
#include <string_view>

#include "core/chain.h"
#include "core/model.h"
#include "core/operation.h"
#include "core/pfsm.h"

namespace dfsm::core {

/// Incremental 64-bit FNV-1a over length-delimited fields.
class Fingerprinter {
 public:
  /// Mixes an integral field (8 bytes, little-endian).
  Fingerprinter& mix(std::uint64_t v) noexcept;

  /// Mixes a string field as its length followed by its bytes.
  Fingerprinter& mix(std::string_view s) noexcept;

  /// Bulk-payload variant of mix(string_view): eight interleaved FNV-1a
  /// lanes (lane j hashes bytes j, j+8, j+16, ...) folded into the
  /// running hash as the payload length followed by the eight lane
  /// digests. Detection strength per byte matches mix() — every byte
  /// feeds exactly one full FNV-1a chain — but the eight independent
  /// multiply chains pipeline where the single mix() chain serializes,
  /// so bulk throughput is ~5x. This is a DIFFERENT function than
  /// mix(s): pick one per field and stick with it (the corpus snapshot
  /// column checksums, colsnap.h, are striped).
  Fingerprinter& mix_striped(std::string_view s) noexcept;

  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV offset basis
};

/// Structural fingerprint of one pFSM (name, type, activity, spec/impl
/// descriptions + kinds, action, declared_secure).
[[nodiscard]] std::uint64_t fingerprint(const Pfsm& pfsm) noexcept;

/// Structural fingerprint of an operation: its name, object description,
/// and the ordered fingerprints of its pFSMs. Changes iff the operation's
/// declared check set changes.
[[nodiscard]] std::uint64_t fingerprint(const Operation& op) noexcept;

/// Structural fingerprint of a whole chain: name, then each operation's
/// fingerprint interleaved with its propagation-gate condition.
[[nodiscard]] std::uint64_t fingerprint(const ExploitChain& chain) noexcept;

/// Structural fingerprint of a model: metadata plus its chain.
[[nodiscard]] std::uint64_t fingerprint(const FsmModel& model) noexcept;

}  // namespace dfsm::core

#endif  // DFSM_CORE_FINGERPRINT_H
