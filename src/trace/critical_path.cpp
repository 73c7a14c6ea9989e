#include "trace/critical_path.hpp"

#include <algorithm>

#include "trace/pairing.hpp"

namespace ovp::trace {

namespace {

struct PendingRecv {
  Rank src = kAnySource;
  std::int32_t tag = kAnyTag;
  TimeNs time = 0;
  bool consumed = false;
};

}  // namespace

std::vector<MessageEdge> matchMessages(const Collector& c) {
  const int n = c.nranks();
  // Each rank's SEND_POSTs are its sends and its MATCHes, which name the
  // resolved sender and tag, its receives; both keep their ring positions.
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<PostedHalf>> sends(un), matches(un);
  std::vector<std::vector<std::size_t>> send_at(un), match_at(un);
  std::vector<std::vector<PendingRecv>> recvs(un);
  for (Rank r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const TraceRing& ring = c.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      if (rec.kind == RecordKind::SendPost) {
        sends[ri].push_back({rec.peer, rec.tag});
        send_at[ri].push_back(i);
      } else if (rec.kind == RecordKind::Match && rec.peer >= 0 &&
                 rec.peer < n) {  // a MATCH from no such sender is skipped
        matches[ri].push_back({rec.peer, rec.tag});
        match_at[ri].push_back(i);
      } else if (rec.kind == RecordKind::RecvPost) {
        recvs[ri].push_back({rec.peer, rec.tag, rec.time, false});
      }
    }
  }

  // Pairs come per receiver in MATCH order, so each receiver's posted
  // receives are consumed in that order.  A MATCH whose send fell outside
  // the retained prefix stays unpaired.
  std::vector<MessageEdge> edges;
  std::vector<std::size_t> first_open(un, 0);
  for (const MessagePair& p : pairMessages(sends, matches)) {
    const auto di = static_cast<std::size_t>(p.dst);
    const std::size_t send_index =
        send_at[static_cast<std::size_t>(p.src)][p.send];
    const Record& match = c.ring(p.dst).at(match_at[di][p.recv]);
    MessageEdge e{.src = p.src, .dst = p.dst, .tag = match.tag,
                  .bytes = match.bytes,
                  .send_post = c.ring(p.src).at(send_index).time,
                  .recv_post = -1, .match = match.time,
                  .send_index = send_index,
                  .match_index = match_at[di][p.recv]};
    std::vector<PendingRecv>& posted = recvs[di];
    // posted[0, first_open) are all consumed
    while (first_open[di] < posted.size() && posted[first_open[di]].consumed) {
      ++first_open[di];
    }
    for (std::size_t j = first_open[di]; j < posted.size(); ++j) {
      PendingRecv& pr = posted[j];
      if (pr.consumed || pr.time > e.match) continue;
      if ((pr.src == kAnySource || pr.src == e.src) &&
          (pr.tag == kAnyTag || pr.tag == e.tag)) {
        pr.consumed = true;
        e.recv_post = pr.time;
        break;
      }
    }
    edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end(),
            [](const MessageEdge& a, const MessageEdge& b) {
              return a.match != b.match ? a.match < b.match : a.dst < b.dst;
            });
  return edges;
}

CriticalPath computeCriticalPath(const Collector& c,
                                 const std::vector<MessageEdge>& edges) {
  CriticalPath out;
  const int n = c.nranks();
  out.rank_share.assign(static_cast<std::size_t>(n), 0);
  out.end_time = c.jobEndTime();
  for (const MessageEdge& e : edges) {
    if (e.lateSender()) ++out.late_sender_edges;
    if (e.lateReceiver()) ++out.late_receiver_edges;
  }

  // Per-destination late-sender edges, sorted by match time.
  std::vector<std::vector<const MessageEdge*>> into(
      static_cast<std::size_t>(n));
  for (const MessageEdge& e : edges) {
    if (e.lateSender()) into[static_cast<std::size_t>(e.dst)].push_back(&e);
  }

  // Start on the rank that finished last (lowest rank on ties).
  Rank cur = 0;
  for (Rank r = 1; r < n; ++r) {
    if (c.endTime(r) > c.endTime(cur)) cur = r;
  }
  TimeNs cursor = out.end_time;
  while (cursor > 0) {
    const MessageEdge* blame = nullptr;
    for (auto it = into[static_cast<std::size_t>(cur)].rbegin();
         it != into[static_cast<std::size_t>(cur)].rend(); ++it) {
      if ((*it)->match < cursor) {
        blame = *it;
        break;
      }
    }
    if (blame == nullptr) {
      out.segments.push_back({cur, 0, cursor});
      break;
    }
    out.segments.push_back({cur, blame->match, cursor});
    cursor = blame->match;  // strictly decreases: guarantees termination
    cur = blame->src;
  }
  std::reverse(out.segments.begin(), out.segments.end());
  for (const PathSegment& s : out.segments) {
    out.rank_share[static_cast<std::size_t>(s.rank)] += s.end - s.begin;
  }
  return out;
}

}  // namespace ovp::trace
