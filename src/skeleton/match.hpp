// Static message matching over a skeleton.
//
// Pairs every send-like half with a receive-like half through
// trace::pairMessages (MPI's non-overtaking rule, trace/pairing.hpp), in
// program order and without executing anything.  Produces:
//
//   * diagnostics: unmatched sends/receives, tag mismatches, byte-count
//     disagreements, wildcard-receive nondeterminism notes;
//   * the concrete pairing (op-to-op edges) the deadlock analysis walks;
//   * the admissible match relation the trace-conformance gate queries.
#pragma once

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "skeleton/ir.hpp"

namespace ovp::skel {

/// Identifies one op instance inside a skeleton.
struct OpRef {
  Rank rank = -1;
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const { return rank >= 0; }
  [[nodiscard]] bool operator<(const OpRef& o) const {
    return std::tie(rank, index) < std::tie(o.rank, o.index);
  }
  [[nodiscard]] bool operator==(const OpRef& o) const {
    return rank == o.rank && index == o.index;
  }
};

/// One concrete matched pair (send half -> receive half).
struct MatchEdge {
  OpRef send;
  OpRef recv;
};

/// The set of message edges a skeleton can produce, as the conformance
/// gate needs it: a traced MATCH (src, dst, tag, bytes) is admissible iff
/// some skeleton send could have produced it and some receive on dst could
/// have accepted it.  kAnyBytes/kAnySource/kAnyTag act as wildcards.
class MatchRelation {
 public:
  void addSend(Rank src, Rank dst, int tag, Bytes bytes);
  void addRecv(Rank dst, Rank src, int tag, Bytes bytes);
  void addPut(Rank origin, Rank target, Bytes bytes);
  void addGet(Rank origin, Rank target, Bytes bytes);

  [[nodiscard]] bool admitsMatch(Rank src, Rank dst, int tag,
                                 Bytes bytes) const;
  [[nodiscard]] bool admitsPut(Rank origin, Rank target, Bytes bytes) const;
  [[nodiscard]] bool admitsGet(Rank origin, Rank target, Bytes bytes) const;

 private:
  using Key = std::tuple<Rank, Rank, int>;  // (src, dst, tag)
  static bool setAdmits(const std::map<Key, std::set<Bytes>>& m,
                        const Key& key, Bytes bytes);
  std::map<Key, std::set<Bytes>> sends_;
  std::map<Key, std::set<Bytes>> recvs_;  // concrete src and tag only
  /// Wildcard receive patterns per destination: (src|any, tag|any, bytes|any).
  std::map<Rank, std::vector<std::tuple<Rank, int, Bytes>>> recv_wild_;
  std::map<std::pair<Rank, Rank>, std::set<Bytes>> puts_;
  std::map<std::pair<Rank, Rank>, std::set<Bytes>> gets_;
};

struct MatchResult {
  std::vector<analysis::Diagnostic> diagnostics;  // deduped, sorted
  std::vector<MatchEdge> edges;                   // concrete pairing
  std::int64_t matched = 0;    // pairs formed
  std::int64_t unmatched = 0;  // halves left over
};

/// Runs the static matching pass.
[[nodiscard]] MatchResult runMatch(const Skeleton& skel);

/// Builds just the admissible match relation (used by conformance even
/// when the matching diagnostics are not wanted).
[[nodiscard]] MatchRelation buildMatchRelation(const Skeleton& skel);

}  // namespace ovp::skel
