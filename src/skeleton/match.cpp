#include "skeleton/match.hpp"

#include <algorithm>
#include <string>

#include "trace/pairing.hpp"

namespace ovp::skel {

namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

static_assert(kAnySource == trace::kAnySource && kAnyTag == trace::kAnyTag);

/// One send or receive half of an op, in its rank's program order.
struct Half {
  OpRef ref;
  Rank peer = -1;  // a send's destination; a receive's source or kAnySource
  int tag = 0;     // a receive's may be kAnyTag
  Bytes bytes = 0;
  const Op* op = nullptr;
  bool consumed = false;
};

struct Halves {
  std::vector<std::vector<Half>> sends;  // per source rank
  std::vector<std::vector<Half>> recvs;  // per destination rank
};

Halves extractHalves(const Skeleton& skel) {
  Halves h;
  h.sends.resize(static_cast<std::size_t>(skel.nranks));
  h.recvs.resize(static_cast<std::size_t>(skel.nranks));
  for (Rank r = 0; r < skel.nranks; ++r) {
    const Program& prog = skel.ranks[static_cast<std::size_t>(r)];
    std::vector<Half>& sends = h.sends[static_cast<std::size_t>(r)];
    std::vector<Half>& recvs = h.recvs[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const Op& op = prog.ops[i];
      const OpRef ref{r, static_cast<std::int32_t>(i)};
      if (op.kind == OpKind::Send || op.kind == OpKind::Isend ||
          op.kind == OpKind::Sendrecv) {
        sends.push_back({ref, op.peer, op.tag, op.bytes, &op, false});
      }
      if (op.kind == OpKind::Recv || op.kind == OpKind::Irecv) {
        recvs.push_back({ref, op.peer, op.tag, op.bytes, &op, false});
      } else if (op.kind == OpKind::Sendrecv) {
        recvs.push_back({ref, op.src, op.rtag, op.rbytes, &op, false});
      }
    }
  }
  return h;
}

[[nodiscard]] bool bytesAgree(Bytes a, Bytes b) {
  return a == kAnyBytes || b == kAnyBytes || a == b;
}

/// "any" for the kAnySource / kAnyTag wildcard, else the number.
std::string anyOr(int value) {
  return value == kAnyTag ? "any" : std::to_string(value);
}

std::string channelLabel(Rank src, Rank dst, int tag) {
  return std::to_string(src) + "->" + std::to_string(dst) + " tag " +
         anyOr(tag);
}

Diagnostic makeDiag(Severity sev, DiagCode code, Rank rank,
                    const std::string& site, std::string detail,
                    std::string group) {
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.rank = rank;
  d.site = site;
  d.detail = std::move(detail);
  d.group = std::move(group);
  return d;
}

}  // namespace

// ---- MatchRelation ----

void MatchRelation::addSend(Rank src, Rank dst, int tag, Bytes bytes) {
  sends_[{src, dst, tag}].insert(bytes);
}

void MatchRelation::addRecv(Rank dst, Rank src, int tag, Bytes bytes) {
  if (src == kAnySource || tag == kAnyTag) {
    recv_wild_[dst].emplace_back(src, tag, bytes);
  } else {
    recvs_[{src, dst, tag}].insert(bytes);
  }
}

void MatchRelation::addPut(Rank origin, Rank target, Bytes bytes) {
  puts_[{origin, target}].insert(bytes);
}

void MatchRelation::addGet(Rank origin, Rank target, Bytes bytes) {
  gets_[{origin, target}].insert(bytes);
}

bool MatchRelation::setAdmits(const std::map<Key, std::set<Bytes>>& m,
                              const Key& key, Bytes bytes) {
  const auto it = m.find(key);
  if (it == m.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

bool MatchRelation::admitsMatch(Rank src, Rank dst, int tag,
                                Bytes bytes) const {
  if (!setAdmits(sends_, {src, dst, tag}, bytes)) return false;
  if (setAdmits(recvs_, {src, dst, tag}, bytes)) return true;
  const auto it = recv_wild_.find(dst);
  if (it == recv_wild_.end()) return false;
  for (const auto& [psrc, ptag, pbytes] : it->second) {
    if ((psrc == kAnySource || psrc == src) &&
        (ptag == kAnyTag || ptag == tag) && bytesAgree(pbytes, bytes)) {
      return true;
    }
  }
  return false;
}

bool MatchRelation::admitsPut(Rank origin, Rank target, Bytes bytes) const {
  const auto it = puts_.find({origin, target});
  if (it == puts_.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

bool MatchRelation::admitsGet(Rank origin, Rank target, Bytes bytes) const {
  const auto it = gets_.find({origin, target});
  if (it == gets_.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

MatchRelation buildMatchRelation(const Skeleton& skel) {
  MatchRelation rel;
  const Halves h = extractHalves(skel);
  for (Rank r = 0; r < skel.nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (const Half& sd : h.sends[ri]) {
      rel.addSend(r, sd.peer, sd.tag, sd.bytes);
    }
    for (const Half& rv : h.recvs[ri]) {
      rel.addRecv(r, rv.peer, rv.tag, rv.bytes);
    }
    for (const Op& op : skel.ranks[ri].ops) {
      if (op.kind == OpKind::RmaPut) rel.addPut(r, op.peer, op.bytes);
      if (op.kind == OpKind::RmaGet) rel.addGet(r, op.peer, op.bytes);
    }
  }
  return rel;
}

// ---- runMatch ----

MatchResult runMatch(const Skeleton& skel) {
  MatchResult result;
  Halves h = extractHalves(skel);
  std::vector<Diagnostic> diags;

  // Pair through the one rule (trace/pairing.hpp); only a concrete-source
  // pair is checked for agreeing byte counts, and every wildcard receive
  // gets a note.
  std::vector<std::vector<trace::PostedHalf>> sends(h.sends.size());
  std::vector<std::vector<trace::PostedHalf>> recvs(h.recvs.size());
  for (std::size_t r = 0; r < h.sends.size(); ++r) {
    for (const Half& sd : h.sends[r]) sends[r].push_back({sd.peer, sd.tag});
    for (const Half& rv : h.recvs[r]) recvs[r].push_back({rv.peer, rv.tag});
  }
  for (const trace::MessagePair& p : trace::pairMessages(sends, recvs)) {
    Half& sd = h.sends[static_cast<std::size_t>(p.src)][p.send];
    Half& rv = h.recvs[static_cast<std::size_t>(p.dst)][p.recv];
    sd.consumed = true;
    rv.consumed = true;
    result.edges.push_back({sd.ref, rv.ref});
    ++result.matched;
    if (rv.peer != kAnySource && !bytesAgree(sd.bytes, rv.bytes)) {
      const std::string channel = channelLabel(rv.peer, p.dst, sd.tag);
      diags.push_back(makeDiag(
          Severity::Warning, DiagCode::StaticSizeMismatch, p.dst, rv.op->site,
          "send " + channel + " carries " + std::to_string(sd.bytes) +
              " B but the matching receive posts " + std::to_string(rv.bytes) +
              " B",
          "size|" + channel + "|" + rv.op->site));
    }
  }
  for (Rank d = 0; d < skel.nranks; ++d) {
    for (const Half& rv : h.recvs[static_cast<std::size_t>(d)]) {
      if (rv.peer != kAnySource) continue;
      diags.push_back(makeDiag(
          Severity::Note, DiagCode::StaticWildcardRecv, d, rv.op->site,
          "wildcard receive: any sender may match first, so the match "
          "order is nondeterministic",
          "wild|" + std::to_string(d) + "|" + rv.op->site));
    }
  }

  // Pass 3: leftovers.  A channel holding both unmatched sends and
  // unmatched receives is a tag mismatch (the tags are disjoint, or the
  // halves would have paired); pure leftovers are unmatched send/receive.
  for (Rank s = 0; s < skel.nranks; ++s) {
    for (Half& sd : h.sends[static_cast<std::size_t>(s)]) {
      if (sd.consumed) continue;
      std::vector<Half>& recvs = h.recvs[static_cast<std::size_t>(sd.peer)];
      const auto partner =
          std::find_if(recvs.begin(), recvs.end(), [s](const Half& rv) {
            return !rv.consumed && rv.peer == s;
          });
      if (partner == recvs.end()) continue;
      partner->consumed = true;
      sd.consumed = true;
      result.unmatched += 2;
      diags.push_back(makeDiag(
          Severity::Error, DiagCode::StaticTagMismatch, s, sd.op->site,
          "send " + channelLabel(s, sd.peer, sd.tag) +
              " can never pair with the leftover receive expecting tag " +
              anyOr(partner->tag),
          "tagmm|" + channelLabel(s, sd.peer, sd.tag) + "|" + sd.op->site));
    }
  }
  for (Rank s = 0; s < skel.nranks; ++s) {
    for (const Half& sd : h.sends[static_cast<std::size_t>(s)]) {
      if (sd.consumed) continue;
      ++result.unmatched;
      diags.push_back(makeDiag(
          Severity::Error, DiagCode::StaticUnmatchedSend, s, sd.op->site,
          "send " + channelLabel(s, sd.peer, sd.tag) +
              " has no receive that can ever match it",
          "usend|" + channelLabel(s, sd.peer, sd.tag) + "|" + sd.op->site));
    }
  }
  for (Rank d = 0; d < skel.nranks; ++d) {
    for (const Half& rv : h.recvs[static_cast<std::size_t>(d)]) {
      if (rv.consumed) continue;
      ++result.unmatched;
      diags.push_back(makeDiag(
          Severity::Error, DiagCode::StaticUnmatchedRecv, d, rv.op->site,
          "receive from " + anyOr(rv.peer) + " on rank " + std::to_string(d) +
              " tag " + anyOr(rv.tag) + " has no send that can ever match it",
          "urecv|" + channelLabel(rv.peer, d, rv.tag) + "|" + rv.op->site));
    }
  }

  result.diagnostics = analysis::dedupDiagnostics(std::move(diags));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

}  // namespace ovp::skel
