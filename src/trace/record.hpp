// Time-resolved trace record model (extension of the paper's framework).
//
// The paper's framework deliberately keeps no trace ("no tracing, no
// inter-process communication", Sec. 2.4): it can say HOW MUCH overlap a run
// achieved but not WHEN it was lost or WHICH rank caused it.  src/trace is
// the bounded-footprint middle ground: a capped per-rank buffer of
// fixed-size binary records that grows as records arrive and, like the
// framework's event queue, counts every record it cannot keep — fed from
// three sources:
//
//   * the overlap Monitor's event stream (CALL/XFER/SECTION/DISABLE events,
//     observed at queue-drain time, timestamps preserved);
//   * the PERUSE-style library hooks (send/recv posts and receiver-side
//     matches, which give the cross-rank message edges);
//   * the NIC (work-request post/completion and, under the fault model,
//     retransmissions and ack timeouts).
//
// Records are fixed-size PODs (48 B) so the buffer's memory is a plain
// multiple of the records it holds and the per-record logging cost is a
// constant that can be charged in virtual time (keeping Figure-20-style
// overhead claims honest).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/types.hpp"

namespace ovp::trace {

enum class RecordKind : std::uint8_t {
  // Monitor-origin (mirror overlap::EventType, same timestamps).
  CallEnter,
  CallExit,
  XferBegin,
  XferEnd,
  SectionBegin,
  SectionEnd,
  Disable,
  Enable,
  // MPI-library-origin (cross-rank message bookkeeping).
  SendPost,  // a send operation was started: peer=dst, tag, bytes
  RecvPost,  // a receive was posted: peer=src (may be any), tag, bytes
  Match,     // an incoming message matched a receive: peer=src, tag, bytes
  // NIC-origin (work requests and the reliability protocol).
  NicPost,        // id=work id, aux=WorkType, peer=dst/target, bytes=wire,
                  // tag=resolved VCI channel (0 when the layer is disabled)
  NicComplete,    // id=work id, aux=WorkType, tag=status (0 Ok, 1 exhausted)
  NicRetransmit,  // id=tx seq, tag=attempt, peer=dst, bytes=wire
  NicTimeout,     // id=tx seq, tag=attempt
  // One-sided (ARMCI) origin: remote-memory accesses and synchronization.
  // RMA records name the *target-side* byte interval through a registered
  // memory segment (see Collector::registerSegment): tag = segment id in
  // the target's registration order, addr = byte offset inside it, bytes =
  // interval length.  tag = -1 when the target memory was never registered
  // (the access is then invisible to the race detector).  A multi-row
  // strided operation emits one record per row, all sharing the op id.
  RmaPut,       // id=op id, peer=target, tag=segment, addr=offset, bytes=len
  RmaGet,       // same fields; remote interval is read, not written
  RmaAcc,       // same fields; atomic remote combine (acc-acc never races)
  RmaComplete,  // id=op id; origin-side completion (ARMCI_Wait/fence retire)
  Fence,        // peer=target (-1 = all); prior puts now remotely complete
  Barrier,      // id=barrier epoch; full-job synchronization point
};

[[nodiscard]] constexpr const char* recordKindName(RecordKind k) {
  switch (k) {
    case RecordKind::CallEnter: return "CALL_ENTER";
    case RecordKind::CallExit: return "CALL_EXIT";
    case RecordKind::XferBegin: return "XFER_BEGIN";
    case RecordKind::XferEnd: return "XFER_END";
    case RecordKind::SectionBegin: return "SECTION_BEGIN";
    case RecordKind::SectionEnd: return "SECTION_END";
    case RecordKind::Disable: return "DISABLE";
    case RecordKind::Enable: return "ENABLE";
    case RecordKind::SendPost: return "SEND_POST";
    case RecordKind::RecvPost: return "RECV_POST";
    case RecordKind::Match: return "MATCH";
    case RecordKind::NicPost: return "NIC_POST";
    case RecordKind::NicComplete: return "NIC_COMPLETE";
    case RecordKind::NicRetransmit: return "NIC_RETRANSMIT";
    case RecordKind::NicTimeout: return "NIC_TIMEOUT";
    case RecordKind::RmaPut: return "RMA_PUT";
    case RecordKind::RmaGet: return "RMA_GET";
    case RecordKind::RmaAcc: return "RMA_ACC";
    case RecordKind::RmaComplete: return "RMA_COMPLETE";
    case RecordKind::Fence: return "FENCE";
    case RecordKind::Barrier: return "BARRIER";
  }
  return "?";
}

inline constexpr RecordKind kAllRecordKinds[] = {
    RecordKind::CallEnter,     RecordKind::CallExit,
    RecordKind::XferBegin,     RecordKind::XferEnd,
    RecordKind::SectionBegin,  RecordKind::SectionEnd,
    RecordKind::Disable,       RecordKind::Enable,
    RecordKind::SendPost,      RecordKind::RecvPost,
    RecordKind::Match,         RecordKind::NicPost,
    RecordKind::NicComplete,   RecordKind::NicRetransmit,
    RecordKind::NicTimeout,    RecordKind::RmaPut,
    RecordKind::RmaGet,        RecordKind::RmaAcc,
    RecordKind::RmaComplete,   RecordKind::Fence,
    RecordKind::Barrier,
};

/// Inverse of recordKindName (the CSV reader's parse); false on unknown.
[[nodiscard]] inline bool recordKindFromName(std::string_view name,
                                             RecordKind& out) {
  for (const RecordKind k : kAllRecordKinds) {
    if (name == recordKindName(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// One fixed-size trace record.  Field meaning is kind-specific (see the
/// enum comments); unused fields stay at their defaults so the binary CSV
/// export is lossless.
struct Record {
  RecordKind kind = RecordKind::CallEnter;
  /// Kind-specific discriminator: net::WorkType for NIC records.
  std::uint8_t aux = 0;
  /// Message tag / completion status / retransmission attempt.
  std::int32_t tag = 0;
  Rank rank = -1;  // owning rank (redundant per-ring, kept for merges)
  Rank peer = -1;  // other endpoint, -1 when not applicable
  TimeNs time = 0;
  /// Transfer id / interned section id / NIC work id / reliable tx seq /
  /// RMA op id / barrier epoch.
  std::int64_t id = 0;
  Bytes bytes = 0;
  /// RMA records: byte offset of the accessed interval inside the target's
  /// registered segment (-1 when the target memory was never registered).
  /// Offsets are segment-relative on purpose — raw pointers would differ
  /// across reruns and break the exporters' bit-identical guarantee.
  std::int64_t addr = -1;
};
static_assert(sizeof(Record) == 48,
              "trace docs and memory budgets assume 48 B records");

}  // namespace ovp::trace
