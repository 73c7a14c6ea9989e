// Wait-for-graph deadlock / stall analysis over matched send/recv records.
//
// Pairs each SEND_POST with a RECV_POST through trace::pairMessages (MPI's
// non-overtaking rule, trace/pairing.hpp), because a deadlocked trace has
// no MATCH, and derives directed wait-for edges between ranks.  Wildcard-
// source receives constrain no one and are skipped, as is a post whose
// peer is not a rank of the trace.
//
//   * sender side: A waits on B over [send_post, min(next CALL_EXIT on A,
//     B's matching recv_post)) — A is blocked in the call while B has not
//     yet posted the receive.  A sendrecv-style exchange posts the receive
//     first, so its matching recv_post precedes the send_post and the
//     interval is empty: head-to-head sendrecv never false-positives.
//   * receiver side: B waits on A over [recv_post, min(next CALL_EXIT on B,
//     A's send_post)).
//
// An edge whose interval never closes (the call never exits and the peer
// never acts before the trace ends) is *open*.  A cycle among open edges is
// a deadlock: every rank on it is provably blocked forever in the recorded
// schedule — an Error.  Long but closed mutual-wait chains of three or more
// ranks (head-of-line blocking) are reported as Notes: the schedule made
// progress, but serialization rippled across ranks.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "trace/collector.hpp"

namespace ovp::analysis {

struct DeadlockConfig {
  /// Report at most this many head-of-line chain notes.
  std::size_t max_chain_notes = 4;
  /// Ignore blocking edges shorter than this when looking for chains.
  DurationNs min_chain_block = 50 * 1000;  // 50 us
  /// Consider only the longest such edges (bounds the chain sweep).
  std::size_t max_chain_edges = 256;
};

[[nodiscard]] std::vector<Diagnostic> analyzeWaitFor(
    const trace::Collector& c, const DeadlockConfig& cfg = {});

}  // namespace ovp::analysis
