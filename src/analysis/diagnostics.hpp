// Diagnostics emitted by the analysis layer (StreamVerifier, UsageChecker).
//
// The instrumentation framework's measures are only as trustworthy as the
// event stream they are computed from: one unbalanced CALL_ENTER or orphaned
// XFER_BEGIN silently corrupts every downstream [min,max] overlap bound.
// The analysis layer checks those invariants and reports violations as
// structured diagnostics that carry enough context (severity, rank, stream
// position, offending event) to locate the bug in the instrumented library
// or the application.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "overlap/events.hpp"
#include "util/types.hpp"

namespace ovp::analysis {

enum class Severity : std::uint8_t {
  /// Expected-but-noteworthy end states (e.g. transfers the processor will
  /// close as the paper's inconclusive case 3 at finalize).
  Note,
  /// Likely application misuse; measures may still be meaningful.
  Warning,
  /// Invariant violation; downstream overlap bounds cannot be trusted.
  Error,
};

enum class DiagCode : std::uint8_t {
  // ---- StreamVerifier: event-stream invariants ----
  TimeRegression,         // event timestamp earlier than its predecessor
  CallEnterNested,        // CALL_ENTER while already inside a call
  CallExitWithoutEnter,   // CALL_EXIT with no matching CALL_ENTER
  CallOpenAtEnd,          // stream ended inside a library call
  XferBeginMalformed,     // XFER_BEGIN with invalid id or non-positive size
  XferBeginDuplicate,     // XFER_BEGIN reusing a still-active transfer id
  XferEndUnknownId,       // XFER_END whose id was never begun (not case 3)
  XferEndMalformed,       // unmatched XFER_END carrying no size (not case 3)
  XferOpenAtEnd,          // transfers still open at end of stream (case 3)
  SectionEndWithoutBegin, // SECTION_END with empty section stack
  SectionOpenAtEnd,       // named sections still open at end of stream
  EnableWithoutDisable,   // ENABLE while monitoring was not disabled
  DisableWhileDisabled,   // DISABLE while already disabled
  EventWhileDisabled,     // any event logged inside an exclusion window
  EventCountMismatch,     // drained events != events the monitor logged
  // ---- UsageChecker: library-API misuse ----
  RequestLeak,            // nonblocking request never waited/tested
  DoubleWait,             // wait on an already-completed/inactive handle
  SendBufferReuse,        // buffer aliased by an in-flight opposite-direction op
  RecvBufferOverlap,      // two posted receives target overlapping bytes
  SectionMismatch,        // section end without begin / open at finalize
  // ---- offline lint (cross-rank trace analysis) ----
  RmaRace,                // conflicting RMA accesses unordered by sync
  DeadlockCycle,          // cycle in the cross-rank wait-for graph
  BlockingChain,          // near-cycle: head-of-line blocking chain
  SerializedTransfer,     // XFER begins and ends inside one blocking call
  EarlyWait,              // wait entered long before the transfer finished
  LateWait,               // completion retired long after the wire was done
  TraceIncomplete,        // dropped/missing records limited the analysis
  // ---- static skeleton analysis (src/skeleton, ovprof_check) ----
  StaticUnmatchedSend,     // skeleton send no receive can ever match
  StaticUnmatchedRecv,     // skeleton receive no send can ever match
  StaticTagMismatch,       // channel sends/receives left over, tags disjoint
  StaticWildcardRecv,      // wildcard receive: match order nondeterministic
  StaticSizeMismatch,      // matched send/receive disagree on byte count
  StaticDeadlock,          // cycle in the static blocking-dependency graph
  StaticSerializedWindow,  // nonblocking post->wait window holds no compute
  StaticOverlapShortfall,  // window compute shorter than the priced transfer
  ConformMismatch,         // traced edge not admissible in the skeleton
  // ---- rank-symbolic skeleton analysis (src/skeleton/symbolic) ----
  SymMatchUnproven,        // send/recv family outside the prover's schemas
  SymMatchMismatch,        // matched symbolic families disagree on bytes
  SymUnmatchedSend,        // symbolic send no receive family can match
  SymUnmatchedRecv,        // symbolic receive no send family can match
  SymDeadlockCycle,        // blocking cycle provable for a rank-count family
  SymDeadlockUnproven,     // blocking structure outside the safe fragments
  SymBarrierDivergence,    // collective guarded by a rank-dependent condition
};

[[nodiscard]] const char* severityName(Severity s);
[[nodiscard]] const char* diagCodeName(DiagCode c);

/// One finding, shared by every checker (StreamVerifier, UsageChecker, the
/// offline lint passes).  Location is the (rank, virtual-time, call-site)
/// triple; `event`/`event_index` are additionally set for stream-level
/// diagnostics (event_index is the 0-based position in the rank's drained
/// event sequence).
struct Diagnostic {
  Severity severity = Severity::Error;
  DiagCode code = DiagCode::TimeRegression;
  Rank rank = -1;
  /// Virtual time the finding anchors to; -1 when unknown (e.g. finalize
  /// summaries).
  TimeNs time = -1;
  /// Call-site / section context ("ARMCI_NbPut", "mg.resid", ...); empty
  /// when unknown.
  std::string site;
  std::int64_t event_index = -1;
  bool has_event = false;
  overlap::Event event{};
  std::string detail;
  /// Advisor findings: estimated recoverable overlap in virtual ns (what
  /// fixing this would buy, from xfer_time(size)); 0 when not applicable.
  DurationNs gain = 0;
  /// Multiplicity after dedup: how many raw findings this one stands for.
  std::int64_t count = 1;
  /// Dedup key: findings with the same (code, group) collapse into one
  /// (gains and counts summed).  Empty = never merged.
  std::string group;

  /// "error[XFER_END_UNKNOWN_ID] rank 2 event #17 (XFER_END t=120 id=9): ..."
  [[nodiscard]] std::string toString() const;
};

/// True when no finding rises above Note level.  Notes describe expected
/// end states (e.g. transfers finalize closes as case 3) and must not fail
/// a run.
[[nodiscard]] bool clean(const std::vector<Diagnostic>& diags);

/// Collapses repeated findings: diagnostics sharing (code, group) — group
/// non-empty — merge into the first exemplar with `count` and `gain`
/// accumulated.  Relative order of surviving diagnostics is preserved.
[[nodiscard]] std::vector<Diagnostic> dedupDiagnostics(
    std::vector<Diagnostic> diags);

/// Deterministic ranking: severity desc, gain desc, rank asc, time asc,
/// code asc, detail asc.  Stable, so equal keys keep insertion order.
void sortDiagnostics(std::vector<Diagnostic>& diags);

/// Shared process exit code: 0 clean (Notes allowed), 1 findings at Warning
/// or above.  (2 is reserved for tool-level errors — unreadable trace, bad
/// flags — and is produced by the drivers, not from diagnostics.)
[[nodiscard]] int exitCode(const std::vector<Diagnostic>& diags);

/// Machine-readable export: a deterministic JSON array (one object per
/// diagnostic, in the given order) — the artifact CI diffs and uploads.
void writeDiagnosticsJson(const std::vector<Diagnostic>& diags,
                          std::ostream& os);

}  // namespace ovp::analysis
