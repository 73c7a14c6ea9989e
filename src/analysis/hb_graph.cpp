#include "analysis/hb_graph.hpp"

#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "trace/critical_path.hpp"

namespace ovp::analysis {

namespace {

using trace::Record;
using trace::RecordKind;

struct BarrierEpoch {
  VectorClock joined;
  int arrivals = 0;
  bool forced = false;  // completed without all ranks (dropped records)
};

constexpr std::size_t kNoEdge = std::numeric_limits<std::size_t>::max();

struct Builder {
  explicit Builder(const trace::Collector& c)
      : c_(c), nranks_(c.nranks()) {
    clocks_.reserve(static_cast<std::size_t>(nranks_));
    edge_at_.resize(static_cast<std::size_t>(nranks_));
    for (Rank r = 0; r < nranks_; ++r) {
      clocks_.emplace_back(nranks_);
      edge_at_[static_cast<std::size_t>(r)].assign(c.ring(r).size(), kNoEdge);
    }
    pos_.assign(static_cast<std::size_t>(nranks_), 0);
    const std::vector<trace::MessageEdge> edges = trace::matchMessages(c);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const trace::MessageEdge& e = edges[k];
      edge_at_[static_cast<std::size_t>(e.src)][e.send_index] = k;
      edge_at_[static_cast<std::size_t>(e.dst)][e.match_index] = k;
    }
    send_clock_.resize(edges.size());
  }

  HbGraph run() {
    bool all_done = false;
    while (!all_done) {
      bool progressed = false;
      all_done = true;
      for (Rank r = 0; r < nranks_; ++r) {
        progressed |= advance(r);
        all_done &= pos_[static_cast<std::size_t>(r)] == c_.ring(r).size();
      }
      if (!all_done && !progressed) forceProgress();
    }
    return std::move(out_);
  }

 private:
  /// Processes rank r's records until it blocks or finishes.  Returns
  /// whether at least one record was consumed.
  bool advance(Rank r) {
    const trace::TraceRing& ring = c_.ring(r);
    std::size_t& i = pos_[static_cast<std::size_t>(r)];
    bool progressed = false;
    while (i < ring.size()) {
      if (blockedOn(r, i)) break;
      consume(r, i);
      ++i;
      progressed = true;
    }
    return progressed;
  }

  /// The matchMessages edge whose SEND_POST or MATCH is rank r's record i.
  [[nodiscard]] std::size_t edgeAt(Rank r, std::size_t i) const {
    return edge_at_[static_cast<std::size_t>(r)][i];
  }

  [[nodiscard]] bool blockedOn(Rank r, std::size_t i) {
    const Record& rec = c_.ring(r).at(i);
    if (rec.kind == RecordKind::Match) {
      // Needs the paired sender snapshot; the sender may not have produced
      // it yet, or (no edge) the trace lost it.  A peer that is not a rank
      // of the trace never joins.
      if (rec.peer < 0 || rec.peer >= nranks_) return false;
      const std::size_t k = edgeAt(r, i);
      return k == kNoEdge || send_clock_[k].size() == 0;
    }
    if (rec.kind == RecordKind::Barrier) {
      BarrierEpoch& e = epochs_[rec.id];
      if (e.joined.size() == 0) e.joined = VectorClock(nranks_);
      if (e.forced) return false;
      // Arrive once; releases when everyone has.
      if (!arrived_[rec.id].insert(r).second) {
        return e.arrivals < nranks_;
      }
      VectorClock& my = clocks_[static_cast<std::size_t>(r)];
      my.tick(r);  // the barrier record's own tick, before the join
      e.joined.join(my);
      ++e.arrivals;
      ticked_barrier_[rec.id].insert(r);
      return e.arrivals < nranks_;
    }
    return false;
  }

  void consume(Rank r, std::size_t i) {
    const Record& rec = c_.ring(r).at(i);
    VectorClock& my = clocks_[static_cast<std::size_t>(r)];
    // Barrier records tick at arrival time inside blockedOn (their tick must
    // be part of the epoch join); everything else ticks here.
    const bool barrier_ticked =
        rec.kind == RecordKind::Barrier &&
        ticked_barrier_[rec.id].contains(r);
    if (!barrier_ticked) my.tick(r);

    switch (rec.kind) {
      case RecordKind::SendPost: {
        const std::size_t k = edgeAt(r, i);
        if (k != kNoEdge) send_clock_[k] = my;
        break;
      }
      case RecordKind::Match: {
        const std::size_t k = edgeAt(r, i);
        // Force-progressed matches find no snapshot: join unavailable.
        if (k == kNoEdge || send_clock_[k].size() == 0) break;
        my.join(send_clock_[k]);
        send_clock_[k] = VectorClock();
        break;
      }
      case RecordKind::Barrier: {
        my.join(epochs_[rec.id].joined);
        break;
      }
      case RecordKind::RmaPut:
      case RecordKind::RmaGet:
      case RecordKind::RmaAcc: {
        RmaAccess a;
        a.origin = r;
        a.target = rec.peer;
        a.kind = rec.kind;
        a.op = rec.id;
        a.segment = rec.tag;
        a.offset = rec.addr;
        a.bytes = rec.bytes;
        a.post_time = rec.time;
        a.post_clock = my;
        open_ops_[std::make_pair(r, rec.id)].push_back(out_.accesses.size());
        out_.accesses.push_back(std::move(a));
        break;
      }
      case RecordKind::RmaComplete: {
        const auto it = open_ops_.find(std::make_pair(r, rec.id));
        if (it == open_ops_.end()) break;
        for (const std::size_t idx : it->second) {
          RmaAccess& a = out_.accesses[idx];
          a.settled = true;
          a.settle_time = rec.time;
          a.settle_clock = my;
        }
        open_ops_.erase(it);
        break;
      }
      default:
        break;  // local records only tick
    }
  }

  /// Called when every unfinished rank is blocked: the trace is missing the
  /// records that would release someone (ring overflow dropped them).
  /// Releases the lowest blocked rank without its join so the walk
  /// terminates, and records why.
  void forceProgress() {
    out_.incomplete = true;
    for (Rank r = 0; r < nranks_; ++r) {
      std::size_t& i = pos_[static_cast<std::size_t>(r)];
      if (i >= c_.ring(r).size()) continue;
      const Record& rec = c_.ring(r).at(i);
      if (rec.kind == RecordKind::Barrier) {
        epochs_[rec.id].forced = true;
        out_.incomplete_reasons.push_back(
            "barrier epoch " + std::to_string(rec.id) +
            " released with " + std::to_string(epochs_[rec.id].arrivals) +
            "/" + std::to_string(nranks_) + " arrivals (records dropped?)");
      } else {
        // A Match with no sender snapshot: consume without joining.
        out_.incomplete_reasons.push_back(
            "rank " + std::to_string(r) + " match from rank " +
            std::to_string(rec.peer) +
            " had no recorded send (records dropped?)");
        consume(r, i);
        ++i;
      }
      return;
    }
  }

  const trace::Collector& c_;
  int nranks_;
  HbGraph out_;
  std::vector<VectorClock> clocks_;
  std::vector<std::size_t> pos_;
  /// Per rank, ring position -> index of the edge whose SEND_POST or MATCH
  /// sits there (kNoEdge for every other record).
  std::vector<std::vector<std::size_t>> edge_at_;
  /// Per edge, the sender's clock at its SEND_POST; empty until the walk
  /// reaches that record, and again once the MATCH has joined it.
  std::vector<VectorClock> send_clock_;
  std::map<std::int64_t, BarrierEpoch> epochs_;
  std::map<std::int64_t, std::set<Rank>> arrived_;
  std::map<std::int64_t, std::set<Rank>> ticked_barrier_;
  /// (origin, op id) -> access indices awaiting their RMA_COMPLETE.
  std::map<std::pair<Rank, std::int64_t>, std::vector<std::size_t>> open_ops_;
};

}  // namespace

HbGraph buildHbGraph(const trace::Collector& c) { return Builder(c).run(); }

}  // namespace ovp::analysis
