#include "skeleton/builder.hpp"

namespace ovp::skel {

Op& RankBuilder::push(OpKind kind) {
  prog_.ops.emplace_back();
  Op& op = prog_.ops.back();
  op.kind = kind;
  op.site = site_;
  return op;
}

void RankBuilder::compute(DurationNs cost) {
  if (cost <= 0) return;  // zero-cost segments carry no information
  Op& op = push(OpKind::Compute);
  op.cost = cost;
}

int RankBuilder::isend(Rank dst, int tag, Bytes bytes) {
  Op& op = push(OpKind::Isend);
  op.peer = dst;
  op.tag = tag;
  op.bytes = bytes;
  op.req = next_req_++;
  return op.req;
}

int RankBuilder::irecv(Rank src, int tag, Bytes bytes) {
  Op& op = push(OpKind::Irecv);
  op.peer = src;
  op.tag = tag;
  op.bytes = bytes;
  op.req = next_req_++;
  return op.req;
}

void RankBuilder::send(Rank dst, int tag, Bytes bytes) {
  Op& op = push(OpKind::Send);
  op.peer = dst;
  op.tag = tag;
  op.bytes = bytes;
}

void RankBuilder::recv(Rank src, int tag, Bytes bytes) {
  Op& op = push(OpKind::Recv);
  op.peer = src;
  op.tag = tag;
  op.bytes = bytes;
}

void RankBuilder::wait(int req) {
  Op& op = push(OpKind::Wait);
  op.req = req;
}

void RankBuilder::waitall(std::vector<int> reqs) {
  Op& op = push(OpKind::Waitall);
  op.reqs = std::move(reqs);
}

void RankBuilder::sendrecv(Rank dst, int stag, Bytes sbytes, Rank src,
                           int rtag, Bytes rbytes) {
  Op& op = push(OpKind::Sendrecv);
  op.peer = dst;
  op.tag = stag;
  op.bytes = sbytes;
  op.src = src;
  op.rtag = rtag;
  op.rbytes = rbytes;
}

void RankBuilder::barrier() { push(OpKind::Barrier); }

void RankBuilder::put(Rank target, Bytes bytes, bool nb) {
  Op& op = push(OpKind::RmaPut);
  op.peer = target;
  op.bytes = bytes;
  op.nb = nb;
}

void RankBuilder::get(Rank target, Bytes bytes, bool nb) {
  Op& op = push(OpKind::RmaGet);
  op.peer = target;
  op.bytes = bytes;
  op.nb = nb;
}

void RankBuilder::fence(Rank target) {
  Op& op = push(OpKind::Fence);
  op.peer = target;
}

Builder::Builder(std::string name, int nranks) : name_(std::move(name)) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) ranks_.emplace_back(r, nranks);
}

Skeleton Builder::take() {
  Skeleton skel;
  skel.name = name_;
  skel.nranks = nranks();
  skel.ranks.reserve(ranks_.size());
  for (RankBuilder& rb : ranks_) skel.ranks.push_back(rb.take());
  return skel;
}

}  // namespace ovp::skel
