// Capped, keep-oldest, append-only trace buffer with explicit drop
// accounting.
//
// Unlike the framework's event queue (util::RingBuffer, statically sized and
// drained whenever it fills) this buffer is never drained: it IS the
// retained trace.  Its memory grows geometrically as records arrive, never
// past capacity() records, so a run pays for the records it keeps rather
// than for the worst-case cap.  Once capacity() records are held, new
// records are dropped and counted (keep-oldest policy), so the retained
// trace is always an exact, gapless prefix of the run — which is what lets
// the time-resolved analysis pass replay it with the Processor's own state
// machine and still reconcile against the summary report.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace ovp::trace {

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : cap_(capacity) {
    assert(capacity > 0 && "TraceRing capacity must be positive");
  }

  /// Appends a record; when capacity() records are already held the record
  /// is dropped (and counted) instead.  Returns whether it was retained.
  bool push(const Record& r) {
    if (recs_.size() == cap_) {
      ++dropped_;
      return false;
    }
    if (recs_.size() == recs_.capacity()) grow();
    recs_.push_back(r);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  /// The cap on retained records (not the current allocation).
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Bytes currently allocated for records: never more than
  /// capacity() * sizeof(Record), and under twice the bytes in use once
  /// the first allocation is full.
  [[nodiscard]] std::size_t reservedBytes() const {
    return recs_.capacity() * sizeof(Record);
  }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  /// Restores a drop count when a ring is rebuilt from an exported trace
  /// (the reader's counterpart of the "# dropped" CSV metadata line).
  void restoreDropped(std::int64_t n) { dropped_ = n; }
  /// i-th record in push order (0 = oldest retained).
  [[nodiscard]] const Record& at(std::size_t i) const {
    assert(i < recs_.size());
    return recs_[i];
  }

 private:
  /// First allocation, in records: 3 KiB, so a rank that logs a handful of
  /// records costs less than a page.
  static constexpr std::size_t kFirstRecords = 64;

  /// Doubles the allocation, clamped to the cap so a full ring never holds
  /// slack it can no longer use.
  void grow() {
    const std::size_t want = std::max(kFirstRecords, 2 * recs_.capacity());
    recs_.reserve(std::min(cap_, want));
  }

  std::vector<Record> recs_;
  std::size_t cap_;
  std::int64_t dropped_ = 0;
};

}  // namespace ovp::trace
