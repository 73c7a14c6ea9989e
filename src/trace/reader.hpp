// Trace CSV reader — the inverse of writeCsv.
//
// Rebuilds a Collector (records, per-rank end times, drop counters, the
// a-priori transfer table, registered-segment sizes, section names) from the
// v2 CSV export, so the offline analyzer (`ovprof_lint`) can run the same
// cross-rank passes on a file that the in-process path runs on live state.
// Registered segments come back base-less (sizes only): segment ids and
// offsets in the records keep their meaning, but pointer resolution is
// naturally unavailable on a reloaded trace.
//
// The reader is strict about what it understands and lenient about what it
// doesn't: unknown '#' metadata lines are skipped, while a malformed record
// row fails the whole load with a line-numbered error (a trace that cannot
// be trusted should not be silently analyzed).  So does a record row or
// "# end_time" line whose rank is negative or not below the rank count:
// "# ranks" when given, kMaxTraceRanks otherwise.  A "# ranks" above
// kMaxTraceRanks is rejected too, so the Collector is never sized from an
// unchecked number.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "trace/collector.hpp"

namespace ovp::trace {

/// The most ranks a trace file may name.  Far above any job the simulator
/// runs, and low enough that the per-rank tables of a hostile or corrupt
/// file cannot exhaust memory.
inline constexpr std::int64_t kMaxTraceRanks = std::int64_t{1} << 16;

struct ReadResult {
  /// Rebuilt collector; null when the load failed.
  std::shared_ptr<Collector> collector;
  /// First parse error ("line N: ..."); empty on success.
  std::string error;
};

[[nodiscard]] ReadResult readCsv(std::istream& is);
[[nodiscard]] ReadResult readCsvFile(const std::string& path);

}  // namespace ovp::trace
