// MPI's non-overtaking pairing rule: the one place in ovprof where sends
// are paired with receives.  Every offline pass that needs message edges
// pairs through it — trace::matchMessages (SEND_POST with MATCH),
// analysis::analyzeWaitFor (SEND_POST with RECV_POST) and skel::runMatch
// (skeleton send ops with receive ops).
//
// Input is each rank's sends and receives in program order.  The rule
// runs in two passes:
//
//   1. for each receiver rank ascending, each receive naming a concrete
//      source takes, in program order, the first unpaired send from that
//      source to it whose tag the receive accepts;
//   2. then each wildcard-source receive, in the same order, takes the
//      first such send over source ranks ascending (a deterministic
//      stand-in for the run-time race the wildcard admits).
//
// A receive with tag kAnyTag accepts every tag.  A half whose peer is not
// a rank of the job stays unpaired.  Each candidate is found through
// per-channel cursors, so pairing costs O(log channels) per half plus, for
// a wildcard-source receive, one probe per source sending to its rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace ovp::trace {

/// Wildcard source or tag of a receive (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr Rank kAnySource = -1;
inline constexpr std::int32_t kAnyTag = -1;

/// One posted send or receive.  A send's peer is its destination; a
/// receive's is its source or kAnySource, and its tag may be kAnyTag.
struct PostedHalf {
  Rank peer = -1;
  std::int32_t tag = 0;
};

/// Rank `src`'s send number `send` paired with rank `dst`'s receive number
/// `recv` (positions in the per-rank input lists).
struct MessagePair {
  Rank src = -1;
  std::size_t send = 0;
  Rank dst = -1;
  std::size_t recv = 0;
};

/// Pairs sends[r] and recvs[r] (both indexed by rank, one entry per rank of
/// the job) under the rule above.  Pairs come in pass order: pass 1's by
/// receiver rank and receive, then pass 2's the same way.
[[nodiscard]] std::vector<MessagePair> pairMessages(
    const std::vector<std::vector<PostedHalf>>& sends,
    const std::vector<std::vector<PostedHalf>>& recvs);

}  // namespace ovp::trace
