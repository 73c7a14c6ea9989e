#include "analysis/deadlock.hpp"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/pairing.hpp"
#include "trace/record.hpp"

namespace ovp::analysis {

namespace {

using trace::Record;
using trace::RecordKind;

struct Post {
  TimeNs time = 0;
  TimeNs next_call_exit = kTimeNever;  // never: blocked until trace end
  TimeNs partner_post = kTimeNever;    // the paired half's post, if any
  Rank peer = -1;
  std::int32_t tag = 0;
  Bytes bytes = 0;
};

struct Edge {
  Rank from = -1;  // the blocked rank
  Rank to = -1;    // the rank it waits on
  TimeNs lo = 0;
  TimeNs hi = kTimeNever;  // exclusive; kTimeNever = open (never released)
  Bytes bytes = 0;
  std::int32_t tag = 0;

  [[nodiscard]] bool open() const { return hi == kTimeNever; }
  [[nodiscard]] DurationNs span() const {
    return hi == kTimeNever ? 0 : hi - lo;
  }
};

/// Collects rank r's SEND_POST / RECV_POST records whose peer is a rank of
/// the trace (so wildcard-source receives are skipped), with each post's
/// enclosing-call exit time (the moment the rank stopped being blocked,
/// whatever else happened).
void collectPosts(const trace::Collector& c, Rank r, std::vector<Post>& sends,
                  std::vector<Post>& recvs) {
  const trace::TraceRing& ring = c.ring(r);
  std::vector<std::pair<std::size_t, bool>> pending;  // (index, is_send)
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Record& rec = ring.at(i);
    if ((rec.kind == RecordKind::SendPost ||
         rec.kind == RecordKind::RecvPost) &&
        rec.peer >= 0 && rec.peer < c.nranks()) {
      const bool is_send = rec.kind == RecordKind::SendPost;
      auto& list = is_send ? sends : recvs;
      pending.emplace_back(list.size(), is_send);
      list.push_back({rec.time, kTimeNever, kTimeNever, rec.peer, rec.tag,
                      rec.bytes});
    } else if (rec.kind == RecordKind::CallExit) {
      for (const auto& [idx, is_send] : pending) {
        (is_send ? sends : recvs)[idx].next_call_exit = rec.time;
      }
      pending.clear();
    }
  }
}

}  // namespace

std::vector<Diagnostic> analyzeWaitFor(const trace::Collector& c,
                                       const DeadlockConfig& cfg) {
  std::vector<Diagnostic> out;
  const int nranks = c.nranks();
  const auto n = static_cast<std::size_t>(nranks);

  std::vector<std::vector<Post>> sends(n), recvs(n);
  std::vector<std::vector<trace::PostedHalf>> send_halves(n);
  std::vector<std::vector<trace::PostedHalf>> recv_halves(n);
  for (Rank r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    collectPosts(c, r, sends[ri], recvs[ri]);
    for (const Post& p : sends[ri]) send_halves[ri].push_back({p.peer, p.tag});
    for (const Post& p : recvs[ri]) recv_halves[ri].push_back({p.peer, p.tag});
  }
  for (const trace::MessagePair& p :
       trace::pairMessages(send_halves, recv_halves)) {
    Post& s = sends[static_cast<std::size_t>(p.src)][p.send];
    Post& rp = recvs[static_cast<std::size_t>(p.dst)][p.recv];
    s.partner_post = rp.time;
    rp.partner_post = s.time;
  }

  // A sender waits on the receiver until its call exits or the matching
  // receive is posted; a receiver waits on the sender the same way.
  std::vector<Edge> edges;
  for (Rank r = 0; r < nranks; ++r) {
    for (const auto* list : {&sends[static_cast<std::size_t>(r)],
                             &recvs[static_cast<std::size_t>(r)]}) {
      for (const Post& p : *list) {
        const TimeNs hi = std::min(p.next_call_exit, p.partner_post);
        if (hi > p.time) {
          edges.push_back({r, p.peer, p.time, hi, p.bytes, p.tag});
        }
      }
    }
  }

  // ---- deadlock: cycles among open edges ----
  // An open edge pins its rank forever, so at trace end the open edges form
  // a static graph; any cycle in it is a certain deadlock.
  std::vector<std::vector<const Edge*>> open_adj(n);
  for (const Edge& e : edges) {
    if (e.open()) open_adj[static_cast<std::size_t>(e.from)].push_back(&e);
  }
  for (auto& v : open_adj) {
    std::sort(v.begin(), v.end(), [](const Edge* a, const Edge* b) {
      return std::tie(a->to, a->lo, a->tag) < std::tie(b->to, b->lo, b->tag);
    });
  }
  // Depth-first search with an explicit stack: a cycle can run through
  // every rank of the job, deeper than the thread's stack allows frames.
  std::vector<int> color(n, 0);  // 0/1/2
  std::vector<Rank> stack;       // the current path
  std::vector<std::size_t> next_edge;  // per path rank: next edge to follow
  std::vector<std::vector<Rank>> cycles;
  const auto enter = [&](Rank u) {
    color[static_cast<std::size_t>(u)] = 1;
    stack.push_back(u);
    next_edge.push_back(0);
  };
  for (Rank r = 0; r < nranks; ++r) {
    if (color[static_cast<std::size_t>(r)] != 0) continue;
    enter(r);
    while (!stack.empty()) {
      const auto& adj = open_adj[static_cast<std::size_t>(stack.back())];
      if (next_edge.back() == adj.size()) {
        color[static_cast<std::size_t>(stack.back())] = 2;
        stack.pop_back();
        next_edge.pop_back();
        continue;
      }
      const Rank v = adj[next_edge.back()++]->to;
      if (color[static_cast<std::size_t>(v)] == 1) {
        const auto it = std::find(stack.begin(), stack.end(), v);
        cycles.emplace_back(it, stack.end());
      } else if (color[static_cast<std::size_t>(v)] == 0) {
        enter(v);
      }
    }
  }
  for (const std::vector<Rank>& cyc : cycles) {
    TimeNs since = 0;
    std::string members;
    for (const Rank r : cyc) {
      for (const Edge* e : open_adj[static_cast<std::size_t>(r)]) {
        since = std::max(since, e->lo);
      }
      if (!members.empty()) members += " -> ";
      members += std::to_string(r);
    }
    members += " -> " + std::to_string(cyc.front());
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = DiagCode::DeadlockCycle;
    d.rank = cyc.front();
    d.time = since;
    d.site = "blocking send/recv";
    d.detail = "wait-for cycle " + members +
               ": every rank on the cycle is blocked until trace end; " +
               "break it by reordering the exchange (e.g. odd/even phases " +
               "or sendrecv)";
    out.push_back(std::move(d));
  }

  // ---- head-of-line blocking chains (near-cycles) ----
  // Among the longest closed edges, look for chains r1 -> r2 -> r3 ... that
  // are simultaneously active: rank r1 is stalled on r2 while r2 is itself
  // stalled on r3.  Progress happened eventually, so this is advisory.
  std::vector<const Edge*> closed;
  for (const Edge& e : edges) {
    if (!e.open() && e.span() >= cfg.min_chain_block) closed.push_back(&e);
  }
  std::sort(closed.begin(), closed.end(), [](const Edge* a, const Edge* b) {
    if (a->span() != b->span()) return a->span() > b->span();
    return std::tie(a->from, a->to, a->lo) < std::tie(b->from, b->to, b->lo);
  });
  if (closed.size() > cfg.max_chain_edges) closed.resize(cfg.max_chain_edges);
  std::size_t notes = 0;
  for (const Edge* e1 : closed) {
    if (notes >= cfg.max_chain_notes) break;
    for (const Edge* e2 : closed) {
      if (notes >= cfg.max_chain_notes) break;
      if (e2->from != e1->to || e2->to == e1->from) continue;
      // Simultaneously active?
      const TimeNs lo = std::max(e1->lo, e2->lo);
      const TimeNs hi = std::min(e1->hi, e2->hi);
      if (hi <= lo) continue;
      Diagnostic d;
      d.severity = Severity::Note;
      d.code = DiagCode::BlockingChain;
      d.rank = e1->from;
      d.time = lo;
      d.site = "blocking send/recv";
      d.group = "chain " + std::to_string(e1->from) + "->" +
                std::to_string(e1->to) + "->" + std::to_string(e2->to);
      d.detail = "head-of-line chain: rank " + std::to_string(e1->from) +
                 " waits on rank " + std::to_string(e1->to) +
                 " which waits on rank " + std::to_string(e2->to) + " for " +
                 std::to_string(hi - lo) +
                 " ns; consider splitting the exchange to break the chain";
      out.push_back(std::move(d));
      ++notes;
    }
  }

  return out;
}

}  // namespace ovp::analysis
