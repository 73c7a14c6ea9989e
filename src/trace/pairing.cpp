#include "trace/pairing.hpp"

#include <map>
#include <tuple>

namespace ovp::trace {

namespace {

/// Sends from one source to one receiver in program order: all of them, or
/// those carrying one tag.  The cursor only moves past paired sends.
struct Queue {
  std::vector<std::size_t> sends;  // send numbers on the source rank
  std::size_t head = 0;            // sends[0, head) are all paired
};

}  // namespace

std::vector<MessagePair> pairMessages(
    const std::vector<std::vector<PostedHalf>>& sends,
    const std::vector<std::vector<PostedHalf>>& recvs) {
  const auto n = static_cast<Rank>(sends.size());
  const auto is_rank = [n](Rank r) { return r >= 0 && r < n; };
  // Keyed (receiver, source, tag); tag kAnyTag keys the queue of all the
  // source's sends to the receiver, which an any-tag receive reads.
  std::map<std::tuple<Rank, Rank, std::int32_t>, Queue> queues;
  std::vector<std::vector<bool>> paired(sends.size());
  for (Rank s = 0; s < n; ++s) {
    const std::vector<PostedHalf>& list = sends[static_cast<std::size_t>(s)];
    paired[static_cast<std::size_t>(s)].resize(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto [dst, tag] = list[i];
      if (!is_rank(dst)) continue;
      queues[{dst, s, kAnyTag}].sends.push_back(i);
      if (tag != kAnyTag) queues[{dst, s, tag}].sends.push_back(i);
    }
  }

  std::vector<MessagePair> out;
  // Pairs receive j on d with the first unpaired send from s it accepts.
  const auto take = [&](Rank s, Rank d, std::size_t j, std::int32_t tag) {
    const auto it = queues.find({d, s, tag});
    if (it == queues.end()) return false;
    Queue& q = it->second;
    std::vector<bool>& done = paired[static_cast<std::size_t>(s)];
    while (q.head < q.sends.size() && done[q.sends[q.head]]) ++q.head;
    if (q.head == q.sends.size()) return false;
    done[q.sends[q.head]] = true;
    out.push_back({s, q.sends[q.head], d, j});
    return true;
  };
  for (const bool wildcard : {false, true}) {
    for (Rank d = 0; d < n; ++d) {
      const std::vector<PostedHalf>& list = recvs[static_cast<std::size_t>(d)];
      for (std::size_t j = 0; j < list.size(); ++j) {
        const auto [src, tag] = list[j];
        if (!wildcard && is_rank(src)) take(src, d, j, tag);
        if (!wildcard || src != kAnySource) continue;
        // Sources ascending: each has an all-tags queue into d.
        for (auto it = queues.lower_bound({d, 0, kAnyTag});
             it != queues.end() && std::get<0>(it->first) == d; ++it) {
          const auto [to, from, key_tag] = it->first;
          if (key_tag == kAnyTag && take(from, d, j, tag)) break;
        }
      }
    }
  }
  return out;
}

}  // namespace ovp::trace
