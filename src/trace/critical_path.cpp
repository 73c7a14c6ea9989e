#include "trace/critical_path.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

namespace ovp::trace {

namespace {

constexpr Rank kAny = -1;

struct PendingRecv {
  Rank src = kAny;
  std::int32_t tag = kAny;
  TimeNs time = 0;
  bool consumed = false;
};

}  // namespace

std::vector<MessageEdge> matchMessages(const Collector& c) {
  const int n = c.nranks();
  // Per sender, FIFO of SEND_POST ring positions keyed by (dst, tag) —
  // MPI's non-overtaking order for one (src, dst, tag) stream.
  std::vector<
      std::map<std::pair<Rank, std::int32_t>, std::deque<std::size_t>>>
      sends(static_cast<std::size_t>(n));
  std::vector<std::vector<PendingRecv>> recvs(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    const TraceRing& ring = c.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      if (rec.kind == RecordKind::SendPost) {
        sends[static_cast<std::size_t>(r)][{rec.peer, rec.tag}].push_back(i);
      } else if (rec.kind == RecordKind::RecvPost) {
        recvs[static_cast<std::size_t>(r)].push_back(
            {rec.peer, rec.tag, rec.time, false});
      }
    }
  }

  std::vector<MessageEdge> edges;
  for (Rank r = 0; r < n; ++r) {
    const TraceRing& ring = c.ring(r);
    std::vector<PendingRecv>& posted = recvs[static_cast<std::size_t>(r)];
    std::size_t first_open = 0;  // posted[0, first_open) are all consumed
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      if (rec.kind != RecordKind::Match) continue;
      if (rec.peer < 0 || rec.peer >= n) continue;  // no such sender
      MessageEdge e;
      e.src = rec.peer;
      e.dst = r;
      e.tag = rec.tag;
      e.bytes = rec.bytes;
      e.match = rec.time;
      e.match_index = i;
      auto& q = sends[static_cast<std::size_t>(e.src)][{r, e.tag}];
      if (q.empty()) continue;  // send fell outside the retained prefix
      e.send_index = q.front();
      e.send_post = c.ring(e.src).at(e.send_index).time;
      q.pop_front();
      e.recv_post = -1;
      while (first_open < posted.size() && posted[first_open].consumed) {
        ++first_open;
      }
      for (std::size_t j = first_open; j < posted.size(); ++j) {
        PendingRecv& pr = posted[j];
        if (pr.consumed || pr.time > e.match) continue;
        if ((pr.src == kAny || pr.src == e.src) &&
            (pr.tag == kAny || pr.tag == e.tag)) {
          pr.consumed = true;
          e.recv_post = pr.time;
          break;
        }
      }
      edges.push_back(e);
    }
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
