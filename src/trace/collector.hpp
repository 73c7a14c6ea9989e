// Collector: per-job trace state — one TraceRing per rank plus the shared
// context the analysis passes need (section names, the a-priori transfer
// table, per-rank end times).
//
// The collector itself is passive.  The machine layer installs two thin
// adapters (a Monitor event observer and a net::WireObserver tap) that
// translate their native event types into Records; the MPI and ARMCI
// libraries, given the collector as their trace sink, emit their own
// library-origin records (message posts and matches, RMA accesses, syncs).
// Rank threads never run concurrently in the simulator, so no locking is
// needed; NIC-origin records are pushed from engine handlers, which are
// serialized with rank code by construction.
//
// Cost model: monitor-origin records are charged through the Monitor's
// observer cost (per event, folded into queue-drain cost); library-origin
// records are pushed by Mpi/Armci through emit(), which charges
// config().record_cost to the emitting rank.  NIC-origin records are free,
// matching the NIC model (autonomous hardware consumes no host time).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "overlap/events.hpp"
#include "overlap/xfer_table.hpp"
#include "trace/record.hpp"
#include "trace/ring.hpp"
#include "util/types.hpp"

namespace ovp::sim {
class Context;
}  // namespace ovp::sim

namespace ovp::trace {

struct CollectorConfig {
  /// Master switch; a disabled config means no Collector is created at all
  /// and every library/NIC path stays bit-identical to an untraced run.
  bool enabled = false;
  /// Per-rank cap on retained records (48 B each).  Rings allocate as
  /// records arrive, so the cap costs nothing until it is reached.  The
  /// default holds a NAS class-A run with plenty of headroom; when it
  /// overflows the drop counters say exactly how much of the tail is
  /// missing.
  std::size_t ring_capacity = 1u << 19;
  /// Host cost charged per record in virtual time: a cycle-counter read and
  /// one append to the rank's ring, same order as the Monitor's
  /// event_cost.  This is what keeps Figure-20-style overhead claims honest
  /// — tracing is visible in the reported times, not hidden.
  DurationNs record_cost = 12;
};

class Collector {
 public:
  Collector(CollectorConfig cfg, int nranks);

  [[nodiscard]] const CollectorConfig& config() const { return cfg_; }
  [[nodiscard]] int nranks() const { return static_cast<int>(rings_.size()); }
  [[nodiscard]] const TraceRing& ring(Rank r) const {
    return rings_[static_cast<std::size_t>(r)];
  }

  void push(Rank r, const Record& rec) {
    rings_[static_cast<std::size_t>(r)].push(rec);
  }

  /// Appends a library-origin record to the calling rank's ring, stamped
  /// with that rank and the current virtual time, and charges the rank
  /// config().record_cost right there, where a real tool's callback runs.
  void emit(sim::Context& ctx, Record rec);

  /// Reader-side restore of a rank's drop counter (see TraceRing).
  void restoreDropped(Rank r, std::int64_t n) {
    rings_[static_cast<std::size_t>(r)].restoreDropped(n);
  }

  /// Translates one Monitor event (seen by the machine's composed event
  /// observer at queue-drain time) into a Record.
  void onMonitorEvent(Rank r, const overlap::Event& e);

  /// Remembers rank-local section-id -> name (ids are interned per rank by
  /// that rank's Processor).
  void noteSectionName(Rank r, std::int64_t id, std::string_view name);
  /// Name for a section id; "" when never noted.
  [[nodiscard]] std::string_view sectionName(Rank r, std::int64_t id) const;

  // ---- registered memory segments (one-sided race analysis) ----
  //
  // RMA trace records name remote bytes as (segment id, offset) pairs so the
  // exported trace is position-independent and bit-identical across reruns.
  // Segment ids are assigned per owning rank in registration order, which is
  // deterministic because rank code is serialized by the engine.

  /// Registers [base, base+bytes) as owned by rank `owner`; returns the
  /// segment id.  Re-registering an identical interval returns the old id.
  std::int32_t registerSegment(Rank owner, const void* base, Bytes bytes);
  /// Resolves a remote interval [p, p+n) against `owner`'s segments.
  /// Returns {segment id, offset}, or {-1, -1} when no registered segment
  /// fully contains the interval.
  struct SegmentRef {
    std::int32_t segment = -1;
    std::int64_t offset = -1;
  };
  [[nodiscard]] SegmentRef resolveSegment(Rank owner, const void* p,
                                          Bytes n) const;
  /// Number of segments registered for `owner` (reader restores this count
  /// so segment ids in a reloaded trace keep their meaning).
  [[nodiscard]] std::int32_t segmentCount(Rank owner) const;
  /// Reader-side restore: declares that `owner` had `count` segments of the
  /// given sizes (base pointers are not persisted; resolution is unavailable
  /// on a reloaded trace, but the ids/sizes keep diagnostics meaningful).
  void restoreSegment(Rank owner, Bytes bytes);
  /// Size of `owner`'s segment `seg`; 0 when unknown.
  [[nodiscard]] Bytes segmentBytes(Rank owner, std::int32_t seg) const;

  /// The a-priori transfer-time table the rank monitors used; the
  /// time-resolved analysis replays bounds with exactly this table.
  void setTable(const overlap::XferTimeTable& table) { table_ = table; }
  [[nodiscard]] const overlap::XferTimeTable& table() const { return table_; }

  /// Virtual time at which rank r finalized its report; the analysis pass
  /// closes open state at the same instant the Processor did.
  void setEndTime(Rank r, TimeNs t) {
    end_times_[static_cast<std::size_t>(r)] = t;
  }
  [[nodiscard]] TimeNs endTime(Rank r) const {
    return end_times_[static_cast<std::size_t>(r)];
  }
  /// Latest end time over all ranks (the merged-timeline horizon).
  [[nodiscard]] TimeNs jobEndTime() const;

  [[nodiscard]] std::int64_t recordedTotal() const;
  [[nodiscard]] std::int64_t droppedTotal() const;
  /// Bytes allocated for records over all rings (TraceRing::reservedBytes).
  [[nodiscard]] std::size_t reservedBytes() const;

 private:
  struct Segment {
    const std::byte* base = nullptr;  // null on reader-restored segments
    Bytes bytes = 0;
  };

  CollectorConfig cfg_;
  std::vector<TraceRing> rings_;
  std::vector<TimeNs> end_times_;
  std::vector<std::map<std::int64_t, std::string>> section_names_;
  std::vector<std::vector<Segment>> segments_;  // indexed by owner rank
  overlap::XferTimeTable table_;
};

}  // namespace ovp::trace
