// Cross-rank merged-timeline analysis: send/recv matching, late-sender /
// late-receiver classification, and a simple wait-chain critical path.
//
// Message edges are reconstructed offline from the MPI library's records:
// SEND_POST on the sender, RECV_POST and MATCH on the receiver.  Each MATCH,
// which names the resolved source and tag, is paired with a SEND_POST
// through trace::pairMessages (MPI's non-overtaking rule, pairing.hpp), and
// RECV_POSTs are consumed FIFO per rank, honouring wildcard source/tag
// (-1).  No protocol knowledge is needed beyond that ordering guarantee,
// so the same matcher works across eager and all rendezvous presets.
//
// Classification per edge (Scalasca's late-sender/late-receiver states):
//   late sender    — the receive was posted before the send existed
//                    (recv_post < send_post): the receiver's wait interval
//                    [recv_post, match) is sender-limited.
//   late receiver  — the send was posted first (send_post < recv_post):
//                    the interval [send_post, match) on the sender may be
//                    receiver-limited (matters for rendezvous, where the
//                    sender cannot complete until the receiver shows up).
//
// The critical path is the classic backward wait-chain walk: start on the
// rank that finished last; walk its timeline backwards; at each point, if a
// late-sender edge into this rank matched at-or-before the cursor, the
// blame jumps to the sending rank at that edge's send_post; otherwise the
// segment down to the run start stays on the current rank.  The result is a
// partition of [0, job end) into per-rank segments whose lengths say which
// rank the job's makespan was waiting on, and when.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/collector.hpp"
#include "util/types.hpp"

namespace ovp::trace {

/// One matched message: send side and receive side joined.
struct MessageEdge {
  Rank src = -1;
  Rank dst = -1;
  std::int32_t tag = 0;
  Bytes bytes = 0;
  TimeNs send_post = 0;
  TimeNs recv_post = 0;  // -1 when no RECV_POST was observed (dropped)
  TimeNs match = 0;
  /// Ring positions of the paired records: the SEND_POST in src's ring and
  /// the MATCH in dst's ring.
  std::size_t send_index = 0;
  std::size_t match_index = 0;
  [[nodiscard]] bool lateSender() const {
    return recv_post >= 0 && recv_post < send_post;
  }
  [[nodiscard]] bool lateReceiver() const {
    return recv_post >= 0 && send_post < recv_post;
  }
};

/// Joins SEND_POST / RECV_POST / MATCH records across all ranks.  Edges are
/// returned sorted by (match time, dst rank); unmatched posts (trailing
/// sends whose match fell after the ring filled, etc.) are skipped, and so
/// is a MATCH whose peer is not a rank of the trace (a corrupt file).
[[nodiscard]] std::vector<MessageEdge> matchMessages(const Collector& c);

/// One critical-path segment: the job's completion was limited by `rank`
/// during [begin, end).
struct PathSegment {
  Rank rank = -1;
  TimeNs begin = 0;
  TimeNs end = 0;
};

struct CriticalPath {
  /// Segments in increasing time order, partitioning [0, job end).
  std::vector<PathSegment> segments;
  /// Per-rank total time on the path (indexed by rank).
  std::vector<DurationNs> rank_share;
  std::int64_t late_sender_edges = 0;
  std::int64_t late_receiver_edges = 0;
  TimeNs end_time = 0;
};

[[nodiscard]] CriticalPath computeCriticalPath(
    const Collector& c, const std::vector<MessageEdge>& edges);

}  // namespace ovp::trace
