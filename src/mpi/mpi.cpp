#include "mpi/mpi.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ovp::mpi {

using net::Packet;

namespace {

/// Builds a packet: header followed by `data_bytes` of user data.
Packet makePacket(Rank src, int channel, const wire::Header& hdr,
                  const void* data, Bytes data_bytes) {
  Packet pkt;
  pkt.src = src;
  pkt.channel = channel;
  pkt.payload.resize(sizeof(wire::Header) +
                     static_cast<std::size_t>(data_bytes));
  std::memcpy(pkt.payload.data(), &hdr, sizeof(wire::Header));
  if (data_bytes > 0) {
    std::memcpy(pkt.payload.data() + sizeof(wire::Header), data,
                static_cast<std::size_t>(data_bytes));
  }
  return pkt;
}

wire::Header headerOf(const Packet& pkt) {
  wire::Header hdr;
  assert(pkt.payload.size() >= sizeof(wire::Header));
  std::memcpy(&hdr, pkt.payload.data(), sizeof(wire::Header));
  return hdr;
}

const std::byte* dataOf(const Packet& pkt) {
  return pkt.payload.data() + sizeof(wire::Header);
}

bool matches(Rank want_src, int want_tag, Rank src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

constexpr int kCollTagBase = 1 << 20;  // internal tag space for collectives

}  // namespace

/// Internal state of one point-to-point operation.
struct RequestState {
  enum class Kind : std::uint8_t { Send, Recv };
  enum class Phase : std::uint8_t {
    Init,
    AwaitAck,    // pipelined sender: RTS+frag1 out, waiting for receiver ACK
    Fragments,   // pipelined sender: RDMA-Write fragments in flight
    AwaitFin,    // rendezvous peer waiting for the final control packet
    Done,
  };

  Kind kind = Kind::Send;
  Phase phase = Phase::Init;
  bool complete = false;
  Bytes size = 0;
  int tag = 0;
  Rank peer = -1;  // send: destination; recv: requested source (may be any)
  Status status;

  // send side
  const void* sbuf = nullptr;
  std::uint64_t seq = 0;
  int frags_outstanding = 0;
  bool frag1_done = false;

  // recv side
  void* rbuf = nullptr;
  std::uint64_t recv_id = 0;

  // instrumentation: transfer op ids owned by this request
  TransferId xfer = kInvalidTransfer;       // whole message / first fragment
  TransferId rest_xfer = kInvalidTransfer;  // pipelined rest-of-message

  // usage-checker request id (0 = untracked, e.g. blocking-call internals)
  std::uint64_t uid = 0;
};

struct Mpi::UnexpectedMsg {
  int channel = 0;
  wire::Header hdr;
  std::vector<std::byte> data;  // eager payload or pipelined first fragment
};

Mpi::Mpi(sim::Context& ctx, net::Fabric& fabric, const MpiConfig& cfg)
    : ctx_(ctx), fabric_(fabric), nic_(fabric.nic(ctx.rank())), cfg_(cfg) {
  if (cfg_.group) {
    const std::vector<Rank>& g = *cfg_.group;
    lrank_ = -1;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i] == ctx_.rank()) {
        lrank_ = static_cast<Rank>(i);
        break;
      }
    }
    if (lrank_ < 0) {
      throw std::logic_error("mpi: global rank is not a member of its group");
    }
    lsize_ = static_cast<int>(g.size());
  } else {
    lrank_ = ctx_.rank();
    lsize_ = ctx_.worldSize();
  }
  if (cfg_.instrument) {
    overlap::MonitorConfig mc = cfg_.monitor;
    if (mc.table.empty()) mc.table = analyticTable(fabric_.params());
    monitor_ = std::make_unique<overlap::Monitor>(std::move(mc), lrank_);
  }
  // A new library instance is a new process image: whatever a previous job
  // on this engine rank pinned is gone.  Starting cold also keeps cache
  // hits a function of the job's own buffer reuse, never of whether the
  // allocator handed this job an address some earlier job had registered —
  // which differs across engine worker counts and would break the
  // campaign-level bit-identical guarantee.  Single-job runs construct one
  // instance per rank on a fresh NIC, so for them this is a no-op.
  nic_.regCache().clear();
}

Mpi::~Mpi() = default;

Rank Mpi::rank() const { return lrank_; }
int Mpi::size() const { return lsize_; }
TimeNs Mpi::now() const { return ctx_.now(); }

void Mpi::compute(DurationNs d) { ctx_.compute(d); }

// ---------------------------------------------------------------- stamps

void Mpi::stampXferBegin(TransferId& id_out, Bytes size) {
  if (size > 0 && hooks_.on_xfer_begin) hooks_.on_xfer_begin(ctx_.now(), size);
  if (!monitor_ || size <= 0) {
    id_out = kInvalidTransfer;
    return;
  }
  const auto [id, cost] = monitor_->xferBegin(ctx_.now(), size);
  id_out = id;
  ctx_.advance(cost);
}

void Mpi::stampXferEnd(TransferId id) {
  if (hooks_.on_xfer_end) hooks_.on_xfer_end(ctx_.now());
  if (!monitor_ || id == kInvalidTransfer) return;
  ctx_.advance(monitor_->xferEnd(ctx_.now(), id));
}

void Mpi::stampXferEndUnmatched(Bytes size) {
  if (size > 0 && hooks_.on_xfer_end) hooks_.on_xfer_end(ctx_.now());
  if (!monitor_ || size <= 0) return;
  ctx_.advance(monitor_->xferEndUnmatched(ctx_.now(), size));
}

void Mpi::traceMessage(trace::RecordKind kind, Rank peer, int tag,
                       Bytes bytes) {
  if (trace_sink_ == nullptr) return;
  trace::Record rec;
  rec.kind = kind;
  rec.peer = peer;
  rec.tag = tag;
  rec.bytes = bytes;
  trace_sink_->emit(ctx_, rec);
}

void Mpi::notifyMatch(Rank source, int tag, Bytes bytes) {
  if (hooks_.on_match) hooks_.on_match(ctx_.now(), source, tag, bytes);
  traceMessage(trace::RecordKind::Match, source, tag, bytes);
}

void Mpi::notifySendPost(Rank dst, int tag, Bytes bytes) {
  if (hooks_.on_send_post) hooks_.on_send_post(ctx_.now(), dst, tag, bytes);
  traceMessage(trace::RecordKind::SendPost, dst, tag, bytes);
}

void Mpi::notifyRecvPost(Rank source, int tag, Bytes bytes) {
  if (hooks_.on_recv_post) hooks_.on_recv_post(ctx_.now(), source, tag, bytes);
  traceMessage(trace::RecordKind::RecvPost, source, tag, bytes);
}

// -------------------------------------------------------------- progress

void Mpi::progress() {
  const net::FabricParams& p = fabric_.params();
  // Batched CQ drain: one call moves the whole backlog, each entry is still
  // charged its poll cost, and completions deposited while handling the
  // batch (handlers advance virtual time) are picked up by the next drain —
  // same FIFO handling order and virtual-time cost as polling one by one.
  std::vector<net::Completion> batch = std::move(drained_cq_);
  batch.clear();
  while (nic_.drainCompletions(batch) > 0) {
    for (const net::Completion& c : batch) {
      ctx_.advance(p.cq_poll_cost);
      handleCompletion(c);
    }
    batch.clear();
  }
  drained_cq_ = std::move(batch);
  net::Packet pkt;
  while (nic_.pollRecv(pkt)) {
    ctx_.advance(p.cq_poll_cost);
    handlePacket(std::move(pkt));
  }
  ctx_.advance(p.cq_poll_cost);  // the final, empty poll
}

void Mpi::progressUntil(const std::function<bool()>& pred) {
  progress();
  while (!pred()) {
    ctx_.sleep();  // resumes on the next NIC deposit for this rank
    progress();
  }
}

void Mpi::handleCompletion(const net::Completion& c) {
  if (c.status != net::WorkStatus::Ok) {
    // Reliability-protocol retry exhaustion (fault model).  A real MPI on
    // a broken fabric aborts the job; surface it as a hard error rather
    // than hanging in progressUntil.
    throw std::runtime_error("mpi: work request " + std::to_string(c.id) +
                             " failed: NIC retry exhausted");
  }
  const auto it = on_completion_.find(c.id);
  if (it == on_completion_.end()) return;  // e.g. control-packet send CQE
  auto callback = std::move(it->second);
  on_completion_.erase(it);
  callback();
}

void Mpi::handlePacket(net::Packet pkt) {
  const wire::Header hdr = headerOf(pkt);
  switch (pkt.channel) {
    case wire::kEager: {
      // The physical transfer of this message is over; this poll is the
      // moment the library learns of it.  The initiation was invisible to
      // this process -> inconclusive bounds (paper case 3).
      stampXferEndUnmatched(hdr.msg_bytes);
      for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
        const auto& req = *it;
        if (!matches(req->peer, req->tag, hdr.src, hdr.tag)) continue;
        if (req->size < hdr.msg_bytes) {
          throw std::runtime_error("mpi: eager message overflows recv buffer");
        }
        ctx_.advance(fabric_.params().hostCopy(hdr.msg_bytes));
        std::memcpy(req->rbuf, dataOf(pkt),
                    static_cast<std::size_t>(hdr.msg_bytes));
        req->status = {hdr.src, hdr.tag, hdr.msg_bytes};
        req->complete = true;
        posted_recvs_.erase(it);
        notifyMatch(hdr.src, hdr.tag, hdr.msg_bytes);
        return;
      }
      UnexpectedMsg u;
      u.channel = wire::kEager;
      u.hdr = hdr;
      u.data.assign(dataOf(pkt), dataOf(pkt) + hdr.msg_bytes);
      unexpected_.push_back(std::move(u));
      return;
    }
    case wire::kRts: {
      handleRts(pkt);
      return;
    }
    case wire::kAck: {
      const auto it = sends_in_flight_.find(hdr.seq);
      if (it == sends_in_flight_.end()) return;
      auto req = it->second;
      sends_in_flight_.erase(it);
      sendFragments(req, hdr);
      return;
    }
    case wire::kFinToSend: {
      const auto it = sends_in_flight_.find(hdr.seq);
      if (it == sends_in_flight_.end()) return;
      auto req = it->second;
      sends_in_flight_.erase(it);
      // The receiver's RDMA Read of our buffer has completed.
      stampXferEnd(req->xfer);
      req->complete = true;
      req->phase = RequestState::Phase::Done;
      return;
    }
    case wire::kFinToRecv: {
      const auto it = recvs_awaiting_fin_.find(hdr.peer_seq);
      if (it == recvs_awaiting_fin_.end()) return;
      auto req = it->second;
      recvs_awaiting_fin_.erase(it);
      stampXferEnd(req->rest_xfer);
      req->status = {hdr.src, req->status.tag, req->size};
      req->complete = true;
      req->phase = RequestState::Phase::Done;
      return;
    }
    default:
      throw std::logic_error("mpi: unknown packet channel");
  }
}

void Mpi::handleRts(const net::Packet& pkt) {
  const wire::Header hdr = headerOf(pkt);
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (!matches((*it)->peer, (*it)->tag, hdr.src, hdr.tag)) continue;
    auto req = *it;
    posted_recvs_.erase(it);
    if (req->size < hdr.msg_bytes) {
      throw std::runtime_error("mpi: rendezvous message overflows recv buffer");
    }
    req->status = {hdr.src, hdr.tag, hdr.msg_bytes};
    notifyMatch(hdr.src, hdr.tag, hdr.msg_bytes);
    if (rendezvousStyle(cfg_.preset) != RendezvousStyle::Read) {
      // Copy out the first fragment that rode along with the RTS.
      const Bytes frag1 = hdr.frag_bytes;
      if (frag1 > 0) {
        ctx_.advance(fabric_.params().hostCopy(frag1));
        std::memcpy(req->rbuf, dataOf(pkt), static_cast<std::size_t>(frag1));
        stampXferEndUnmatched(frag1);
      }
      const Bytes rest = hdr.msg_bytes - frag1;
      if (rest == 0) {
        req->complete = true;
        return;
      }
      // Register the rest of our buffer and tell the sender where to write.
      std::byte* rest_ptr = static_cast<std::byte*>(req->rbuf) + frag1;
      ctx_.advance(nic_.regCache().registerRegion(rest_ptr, rest));
      ctx_.advance(fabric_.params().post_overhead);
      // The remaining bytes now move under sender control; stamp BEGIN so
      // interleaved computation on *this* side is credited if the FIN is
      // detected in a later call.
      stampXferBegin(req->rest_xfer, rest);
      req->recv_id = next_recv_id_++;
      req->phase = RequestState::Phase::AwaitFin;
      recvs_awaiting_fin_[req->recv_id] = req;
      wire::Header ack;
      ack.src = rank();
      ack.tag = hdr.tag;
      ack.msg_bytes = hdr.msg_bytes;
      ack.frag_bytes = frag1;
      ack.seq = hdr.seq;
      ack.peer_seq = req->recv_id;
      ack.addr = reinterpret_cast<std::uintptr_t>(rest_ptr);
      (void)nic_.postSend(global(hdr.src), makePacket(rank(), wire::kAck, ack,
                                                      nullptr, 0));
    } else {
      beginRdmaRead(req, hdr);
    }
    return;
  }
  // No posted receive: stash the RTS (and any piggybacked fragment).
  UnexpectedMsg u;
  u.channel = wire::kRts;
  u.hdr = hdr;
  if (hdr.frag_bytes > 0) {
    u.data.assign(dataOf(pkt), dataOf(pkt) + hdr.frag_bytes);
  }
  unexpected_.push_back(std::move(u));
}

void Mpi::beginRdmaRead(const std::shared_ptr<RequestState>& req,
                        const wire::Header& rts) {
  // Zero-copy rendezvous: pin our buffer on the fly (cache-aware) and read
  // the sender's exposed buffer; the sender's host stays uninvolved.
  ctx_.advance(nic_.regCache().registerRegion(req->rbuf, rts.msg_bytes));
  ctx_.advance(fabric_.params().post_overhead);
  TransferId xfer = kInvalidTransfer;
  stampXferBegin(xfer, rts.msg_bytes);
  req->xfer = xfer;
  // Pin the message stream's (peer, tag) channel so the data leg cannot be
  // reordered against other streams on a multi-rail fabric.
  const net::WorkId wid = nic_.postRdmaRead(
      global(rts.src), req->rbuf, reinterpret_cast<const void*>(rts.addr),
      rts.msg_bytes, nic_.vciFor(global(rts.src), rts.tag));
  const std::uint64_t sender_seq = rts.seq;
  const Rank sender = rts.src;
  on_completion_[wid] = [this, req, sender, sender_seq] {
    stampXferEnd(req->xfer);
    req->complete = true;
    req->phase = RequestState::Phase::Done;
    // Tell the sender its buffer is free (its XFER_END).
    wire::Header fin;
    fin.src = rank();
    fin.seq = sender_seq;
    ctx_.advance(fabric_.params().post_overhead);
    (void)nic_.postSend(global(sender), makePacket(rank(), wire::kFinToSend,
                                                   fin, nullptr, 0));
  };
}

void Mpi::sendFragments(const std::shared_ptr<RequestState>& req,
                        const wire::Header& ack) {
  // Pipelined-RDMA phase 2: the receiver ACKed with its registered address;
  // stream the remaining fragments as RDMA Writes.  On-the-fly registration
  // is pipelined with the wire (we charge it per fragment at post time).
  const net::FabricParams& p = fabric_.params();
  const Bytes frag1 = ack.frag_bytes;
  const Bytes total_rest = req->size - frag1;
  Bytes offset = frag1;
  req->phase = RequestState::Phase::Fragments;
  // Whole-message write rendezvous is the degenerate single-fragment case.
  const bool pipelined =
      rendezvousStyle(cfg_.preset) == RendezvousStyle::PipelinedWrite;
  // All fragments of one message ride one channel (same-stream ordering).
  const int vci = nic_.vciFor(global(req->peer), req->tag);
  while (offset < req->size) {
    const Bytes frag =
        pipelined ? std::min(cfg_.frag_size, req->size - offset)
                  : req->size - offset;
    const std::byte* src_ptr =
        static_cast<const std::byte*>(req->sbuf) + offset;
    std::byte* dst_ptr =
        reinterpret_cast<std::byte*>(ack.addr) + (offset - frag1);
    ctx_.advance(nic_.regCache().registerRegion(src_ptr, frag));
    ctx_.advance(p.post_overhead);
    TransferId fx = kInvalidTransfer;
    stampXferBegin(fx, frag);
    const bool last = offset + frag >= req->size;
    net::WorkId wid;
    if (last) {
      // The final fragment carries the FIN notification to the receiver
      // (ordered behind the data on the same QP).
      wire::Header fin;
      fin.src = rank();
      fin.tag = req->tag;
      fin.msg_bytes = req->size;
      fin.seq = req->seq;
      fin.peer_seq = ack.peer_seq;
      const Packet fin_pkt =
          makePacket(rank(), wire::kFinToRecv, fin, nullptr, 0);
      wid = nic_.postRdmaWrite(global(req->peer), src_ptr, dst_ptr, frag,
                               &fin_pkt, vci);
    } else {
      wid = nic_.postRdmaWrite(global(req->peer), src_ptr, dst_ptr, frag,
                               nullptr, vci);
    }
    ++req->frags_outstanding;
    on_completion_[wid] = [this, req, fx] {
      stampXferEnd(fx);
      if (--req->frags_outstanding == 0 &&
          req->phase == RequestState::Phase::Fragments) {
        req->complete = true;
        req->phase = RequestState::Phase::Done;
      }
    };
    offset += frag;
    (void)total_rest;
  }
}

// ----------------------------------------------------------- send paths

void Mpi::startEagerSend(const std::shared_ptr<RequestState>& req) {
  const net::FabricParams& p = fabric_.params();
  // Copy into a library bounce buffer; the user buffer is immediately
  // reusable, which is why eager sends "complete" at once.
  ctx_.advance(p.hostCopy(req->size));
  ctx_.advance(p.post_overhead);
  stampXferBegin(req->xfer, req->size);
  wire::Header hdr;
  hdr.src = rank();
  hdr.tag = req->tag;
  hdr.msg_bytes = req->size;
  hdr.frag_bytes = req->size;
  hdr.seq = req->seq;
  const net::WorkId wid =
      nic_.postSend(global(req->peer),
                    makePacket(rank(), wire::kEager, hdr, req->sbuf,
                               req->size),
                    nic_.vciFor(global(req->peer), req->tag));
  on_completion_[wid] = [this, req] { stampXferEnd(req->xfer); };
  req->complete = true;
  req->phase = RequestState::Phase::Done;
}

void Mpi::startRendezvousSend(const std::shared_ptr<RequestState>& req,
                              bool sync) {
  const net::FabricParams& p = fabric_.params();
  sends_in_flight_[req->seq] = req;
  wire::Header rts;
  rts.src = rank();
  rts.tag = req->tag;
  rts.msg_bytes = req->size;
  rts.seq = req->seq;
  const RendezvousStyle style = rendezvousStyle(cfg_.preset);
  if (style == RendezvousStyle::PipelinedWrite) {
    // RTS carries the first fragment (copied, like an eager part).  A
    // synchronous send carries none, so completion always needs the
    // receiver's ACK.
    const Bytes frag1 = sync ? 0 : std::min(cfg_.frag_size, req->size);
    rts.frag_bytes = frag1;
    ctx_.advance(p.hostCopy(frag1));
    ctx_.advance(p.post_overhead);
    stampXferBegin(req->xfer, frag1);
    const net::WorkId wid = nic_.postSend(
        global(req->peer),
        makePacket(rank(), wire::kRts, rts, req->sbuf, frag1),
        nic_.vciFor(global(req->peer), req->tag));
    req->phase = RequestState::Phase::AwaitAck;
    const bool whole_message = frag1 >= req->size;
    on_completion_[wid] = [this, req, whole_message] {
      stampXferEnd(req->xfer);
      req->frag1_done = true;
      if (whole_message) {
        req->complete = true;
        req->phase = RequestState::Phase::Done;
        sends_in_flight_.erase(req->seq);
      }
    };
  } else if (style == RendezvousStyle::WholeWrite) {
    // Bare RTS; the receiver's CTS will carry its registered address and
    // this side RDMA-Writes the whole message (Sur et al. [27]'s
    // write-based design).  Register the user buffer up front.
    ctx_.advance(nic_.regCache().registerRegion(req->sbuf, req->size));
    ctx_.advance(p.post_overhead);
    rts.frag_bytes = 0;
    (void)nic_.postSend(global(req->peer),
                        makePacket(rank(), wire::kRts, rts, nullptr, 0));
    req->phase = RequestState::Phase::AwaitAck;
  } else {
    // Zero-copy: pin the user buffer (registration cache!) and expose it;
    // the receiver will RDMA-Read it.  XFER_BEGIN is stamped at the post
    // of the RTS — the library's closest approximation (paper Fig. 1).
    ctx_.advance(nic_.regCache().registerRegion(req->sbuf, req->size));
    ctx_.advance(p.post_overhead);
    stampXferBegin(req->xfer, req->size);
    rts.addr = reinterpret_cast<std::uintptr_t>(req->sbuf);
    (void)nic_.postSend(global(req->peer),
                        makePacket(rank(), wire::kRts, rts, nullptr, 0));
    req->phase = RequestState::Phase::AwaitFin;
  }
}

void Mpi::startSend(const std::shared_ptr<RequestState>& req, bool sync) {
  req->seq = next_seq_++;
  notifySendPost(req->peer, req->tag, req->size);
  if (!sync && req->size < cfg_.eager_limit) {
    startEagerSend(req);
  } else {
    startRendezvousSend(req, sync);
  }
}

// --------------------------------------------------------------- receive

void Mpi::matchReceive(const std::shared_ptr<RequestState>& req) {
  notifyRecvPost(req->peer, req->tag, req->size);
  // First try the unexpected queue (FIFO), then post.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(req->peer, req->tag, it->hdr.src, it->hdr.tag)) continue;
    UnexpectedMsg u = std::move(*it);
    unexpected_.erase(it);
    if (req->size < u.hdr.msg_bytes) {
      throw std::runtime_error("mpi: message overflows recv buffer");
    }
    req->status = {u.hdr.src, u.hdr.tag, u.hdr.msg_bytes};
    notifyMatch(u.hdr.src, u.hdr.tag, u.hdr.msg_bytes);
    if (u.channel == wire::kEager) {
      ctx_.advance(fabric_.params().hostCopy(u.hdr.msg_bytes));
      std::memcpy(req->rbuf, u.data.data(),
                  static_cast<std::size_t>(u.hdr.msg_bytes));
      req->complete = true;
      return;
    }
    // Unexpected RTS: run the rendezvous response now.
    if (rendezvousStyle(cfg_.preset) != RendezvousStyle::Read) {
      const Bytes frag1 = u.hdr.frag_bytes;
      if (frag1 > 0) {
        ctx_.advance(fabric_.params().hostCopy(frag1));
        std::memcpy(req->rbuf, u.data.data(),
                    static_cast<std::size_t>(frag1));
        stampXferEndUnmatched(frag1);
      }
      const Bytes rest = u.hdr.msg_bytes - frag1;
      if (rest == 0) {
        req->complete = true;
        return;
      }
      std::byte* rest_ptr = static_cast<std::byte*>(req->rbuf) + frag1;
      ctx_.advance(nic_.regCache().registerRegion(rest_ptr, rest));
      ctx_.advance(fabric_.params().post_overhead);
      stampXferBegin(req->rest_xfer, rest);
      req->recv_id = next_recv_id_++;
      req->phase = RequestState::Phase::AwaitFin;
      recvs_awaiting_fin_[req->recv_id] = req;
      wire::Header ack;
      ack.src = rank();
      ack.tag = u.hdr.tag;
      ack.msg_bytes = u.hdr.msg_bytes;
      ack.frag_bytes = frag1;
      ack.seq = u.hdr.seq;
      ack.peer_seq = req->recv_id;
      ack.addr = reinterpret_cast<std::uintptr_t>(rest_ptr);
      (void)nic_.postSend(global(u.hdr.src),
                          makePacket(rank(), wire::kAck, ack, nullptr, 0));
    } else {
      beginRdmaRead(req, u.hdr);
    }
    return;
  }
  posted_recvs_.push_back(req);
}

void Mpi::retire(Request& req) {
  if (checker_ != nullptr && req.state_ && req.state_->uid != 0) {
    checker_->onRequestConsumed(req.state_->uid);
  }
  req.state_.reset();
}

// ------------------------------------------------------------ public API

Request Mpi::isend(const void* buf, Bytes n, Rank dst, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = std::make_shared<RequestState>();
  state->kind = RequestState::Kind::Send;
  state->sbuf = buf;
  state->size = n;
  state->peer = dst;
  state->tag = tag;
  if (checker_ != nullptr) {
    state->uid = next_req_uid_++;
    checker_->onRequestPosted(state->uid, /*is_send=*/true, buf, n,
                              "MPI_Isend");
  }
  startSend(state, /*sync=*/false);
  return Request(state);
}

Request Mpi::irecv(void* buf, Bytes n, Rank src, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = std::make_shared<RequestState>();
  state->kind = RequestState::Kind::Recv;
  state->rbuf = buf;
  state->size = n;
  state->peer = src;
  state->tag = tag;
  if (checker_ != nullptr) {
    state->uid = next_req_uid_++;
    checker_->onRequestPosted(state->uid, /*is_send=*/false, buf, n,
                              "MPI_Irecv");
  }
  matchReceive(state);
  return Request(state);
}

void Mpi::wait(Request& req, Status* status) {
  if (!req.valid()) {
    if (checker_ != nullptr) checker_->onWaitInactive("MPI_Wait");
    return;
  }
  CallGuard guard(*this);
  auto state = req.state_;
  progressUntil([&] { return state->complete; });
  if (status != nullptr) *status = state->status;
  retire(req);
}

void Mpi::waitall(Request* reqs, int count) {
  CallGuard guard(*this);
  progressUntil([&] {
    for (int i = 0; i < count; ++i) {
      if (reqs[i].valid() && !reqs[i].state_->complete) return false;
    }
    return true;
  });
  for (int i = 0; i < count; ++i) retire(reqs[i]);
}

bool Mpi::test(Request& req, Status* status) {
  if (!req.valid()) return true;
  CallGuard guard(*this);
  progress();
  if (!req.state_->complete) return false;
  if (status != nullptr) *status = req.state_->status;
  retire(req);
  return true;
}

void Mpi::send(const void* buf, Bytes n, Rank dst, int tag) {
  Request r = isend(buf, n, dst, tag);
  wait(r);
}

void Mpi::ssend(const void* buf, Bytes n, Rank dst, int tag) {
  CallGuard guard(*this);
  progress();
  auto state = std::make_shared<RequestState>();
  state->kind = RequestState::Kind::Send;
  state->sbuf = buf;
  state->size = n;
  state->peer = dst;
  state->tag = tag;
  startSend(state, /*sync=*/true);
  progressUntil([&] { return state->complete; });
}

int Mpi::waitany(Request* reqs, int count, Status* status) {
  bool any_valid = false;
  for (int i = 0; i < count; ++i) any_valid |= reqs[i].valid();
  if (!any_valid) return -1;
  CallGuard guard(*this);
  int ready = -1;
  progressUntil([&] {
    for (int i = 0; i < count; ++i) {
      if (reqs[i].valid() && reqs[i].state_->complete) {
        ready = i;
        return true;
      }
    }
    return false;
  });
  if (status != nullptr) *status = reqs[ready].state_->status;
  retire(reqs[ready]);
  return ready;
}

bool Mpi::testall(Request* reqs, int count) {
  CallGuard guard(*this);
  progress();
  for (int i = 0; i < count; ++i) {
    if (reqs[i].valid() && !reqs[i].state_->complete) return false;
  }
  for (int i = 0; i < count; ++i) retire(reqs[i]);
  return true;
}

void Mpi::recv(void* buf, Bytes n, Rank src, int tag, Status* status) {
  Request r = irecv(buf, n, src, tag);
  wait(r, status);
}

bool Mpi::iprobe(Rank src, int tag, Status* status) {
  CallGuard guard(*this);
  progress();
  for (const UnexpectedMsg& u : unexpected_) {
    if (matches(src, tag, u.hdr.src, u.hdr.tag)) {
      if (status != nullptr) *status = {u.hdr.src, u.hdr.tag, u.hdr.msg_bytes};
      return true;
    }
  }
  return false;
}

void Mpi::probe(Rank src, int tag, Status* status) {
  CallGuard guard(*this);
  progressUntil([&] {
    for (const UnexpectedMsg& u : unexpected_) {
      if (matches(src, tag, u.hdr.src, u.hdr.tag)) {
        if (status != nullptr) {
          *status = {u.hdr.src, u.hdr.tag, u.hdr.msg_bytes};
        }
        return true;
      }
    }
    return false;
  });
}

void Mpi::sendrecv(const void* sbuf, Bytes sn, Rank dst, int stag, void* rbuf,
                   Bytes rn, Rank src, int rtag, Status* status) {
  CallGuard guard(*this);
  Request rr = irecv(rbuf, rn, src, rtag);
  Request sr = isend(sbuf, sn, dst, stag);
  wait(sr);
  wait(rr, status);
}

// ----------------------------------------------------- instrumentation

void Mpi::sectionBegin(std::string_view name) {
  if (checker_ != nullptr) checker_->onSectionBegin();
  if (monitor_) ctx_.advance(monitor_->sectionBegin(ctx_.now(), name));
}

void Mpi::sectionEnd() {
  if (checker_ != nullptr) checker_->onSectionEnd("MPI section end");
  if (monitor_) ctx_.advance(monitor_->sectionEnd(ctx_.now()));
}

void Mpi::setMonitorEnabled(bool on) {
  if (monitor_) ctx_.advance(monitor_->setEnabled(ctx_.now(), on));
}

const overlap::Report& Mpi::finalizeReport() {
  assert(monitor_ && "finalizeReport requires an instrumented run");
  if (checker_ != nullptr) checker_->onFinalize("MPI_Finalize");
  return monitor_->report(ctx_.now());
}

}  // namespace ovp::mpi
