#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace ovp::sim {

namespace {
/// Thrown into rank fibers to unwind them when the job is being aborted
/// (deadlock detected or a peer rank failed).  Never escapes Engine::run.
struct EngineAborted {};

/// Begins (or continues) a rank's abort unwind.  A rank that is already
/// unwinding some exception reaches here through a destructor (e.g. a
/// library call guard charging its exit cost); throwing EngineAborted
/// there would std::terminate, so the call simply becomes a no-op —
/// virtual time is meaningless during an abort anyway.
void unwindIfSafe() {
  if (std::uncaught_exceptions() == 0) throw EngineAborted{};
}
}  // namespace

thread_local Engine::Partition* Engine::t_part = nullptr;

int Context::worldSize() const {
  return static_cast<int>(engine_.ranks_.size());
}

TimeNs Context::now() const { return engine_.now(); }

void Context::compute(DurationNs d) { engine_.rankCompute(rank_, d); }

void Context::sleep() { engine_.rankSleep(rank_); }

TimeNs Engine::now() const {
  return t_part != nullptr ? t_part->now : finish_time_;
}

int Engine::effectiveWorkers(int nranks) const {
  // Partitions are cut on part_align_ boundaries, so the parallelism
  // available is the number of whole alignment blocks, not raw ranks.
  const int blocks = (nranks + part_align_ - 1) / part_align_;
  if (workers_requested_ <= 1 || lookahead_ <= 0 || blocks < 2) return 1;
  return std::min(workers_requested_, blocks);
}

void Engine::run(int nranks, const std::function<void(Context&)>& rankMain) {
  assert(nranks > 0);
  assert(t_part == nullptr && "Engine::run is not reentrant");
  rank_main_ = &rankMain;
  const int nworkers = effectiveWorkers(nranks);
  workers_used_ = nworkers;
  finish_time_ = 0;
  events_processed_ = 0;
  error_ = nullptr;
  aborting_.store(false, std::memory_order_relaxed);
  abort_requested_.store(false, std::memory_order_relaxed);
  domain_seq_.assign(static_cast<std::size_t>(nranks) + 1, 0);

  parts_.clear();
  ranks_.clear();
  parts_.reserve(static_cast<std::size_t>(nworkers));
  // Distribute whole alignment blocks (align=1: individual ranks) across
  // workers as evenly as possible; the final partition absorbs the tail of
  // a partially-filled last block.
  const int blocks = (nranks + part_align_ - 1) / part_align_;
  const int base = blocks / nworkers;
  const int rem = blocks % nworkers;
  Rank next_lo = 0;
  for (int w = 0; w < nworkers; ++w) {
    auto p = std::make_unique<Partition>();
    p->index = w;
    p->lo = next_lo;
    const int nblocks = base + (w < rem ? 1 : 0);
    p->hi = std::min<Rank>(nranks, next_lo + static_cast<Rank>(nblocks) *
                                                 part_align_);
    next_lo = p->hi;
    p->alive = static_cast<int>(p->hi - p->lo);
    p->outbox.resize(static_cast<std::size_t>(nworkers));
    parts_.push_back(std::move(p));
  }

  const std::size_t stack_bytes = Fiber::defaultStackBytes();
  ranks_.reserve(static_cast<std::size_t>(nranks));
  {
    int w = 0;
    for (Rank r = 0; r < nranks; ++r) {
      while (r >= parts_[static_cast<std::size_t>(w)]->hi) ++w;
      auto s = std::make_unique<RankSlot>();
      s->engine = this;
      s->rank = r;
      s->part = w;
      s->fiber = std::make_unique<Fiber>(stack_bytes, &rankFiberEntry, s.get());
      ranks_.push_back(std::move(s));
    }
  }

  // Every rank starts with a driver-created resume event at t=0; the driver
  // counter assigns (src=-1, seq=r) in rank order, identically in both
  // modes.  A rank with a pending Resume is Busy, exactly as after
  // rankCompute().
  for (Rank r = 0; r < nranks; ++r) {
    slot(r).state = RankState::Busy;
    Event e;
    e.time = 0;
    e.src = -1;
    e.seq = nextSeq(-1);
    e.owner = r;
    e.kind = EventKind::Resume;
    parts_[static_cast<std::size_t>(slot(r).part)]->queue.push(std::move(e));
  }

  if (nworkers == 1) {
    Partition& p = *parts_[0];
    t_part = &p;
    Fiber::initThreadContext(p.sched_ctx);
    sequentialLoop(p);
    Fiber::releaseThreadContext(p.sched_ctx);
    t_part = nullptr;
  } else {
    window_horizon_ = lookahead_;  // first window: [0, L)
    window_decision_ = WindowDecision::Run;
    barrier_count_ = 0;
    barrier_parties_ = nworkers;
    barrier_phase_ = 0;
    for (auto& p : parts_) {
      Partition* pp = p.get();
      p->thread = std::thread([this, pp] { workerLoop(*pp); });
    }
    for (auto& p : parts_) p->thread.join();
  }

  for (const auto& p : parts_) {
    finish_time_ = std::max(finish_time_, p->now);
    events_processed_ += p->events;
  }
  ranks_.clear();  // unmap fiber stacks
  parts_.clear();
  rank_main_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Engine::sequentialLoop(Partition& p) {
  for (;;) {
    if (abort_requested_.load(std::memory_order_relaxed)) {
      aborting_.store(true, std::memory_order_relaxed);
      unwindPartition(p);
      break;
    }
    if (p.queue.empty()) {
      if (p.alive == 0) break;
      deadlock();  // sets error_ + abort_requested_; next iteration unwinds
      continue;
    }
    Event e = p.queue.pop();
    execute(p, e);
  }
}

void Engine::workerLoop(Partition& p) {
  t_part = &p;
  Fiber::initThreadContext(p.sched_ctx);
  for (;;) {
    if (!aborting_.load(std::memory_order_relaxed)) {
      while (!p.queue.empty() && p.queue.minTime() < window_horizon_) {
        Event e = p.queue.pop();
        execute(p, e);
        if (abort_requested_.load(std::memory_order_relaxed)) break;
      }
    }
    barrierWait();
    if (window_decision_ == WindowDecision::Done) break;
    if (window_decision_ == WindowDecision::Abort) {
      // Each worker unwinds its own fibers (their stacks were switched on
      // this thread); partition state is thread-local from here on, so no
      // further barrier is needed.
      unwindPartition(p);
      break;
    }
  }
  Fiber::releaseThreadContext(p.sched_ctx);
  t_part = nullptr;
}

void Engine::barrierWait() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const std::uint64_t phase = barrier_phase_;
  if (++barrier_count_ == barrier_parties_) {
    barrier_count_ = 0;
    coordinateWindow();
    ++barrier_phase_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] { return barrier_phase_ != phase; });
  }
}

void Engine::coordinateWindow() {
  // All other workers are blocked in barrierWait: safe to touch every
  // partition.  Merge staged cross-partition events; calendar-queue
  // insertion orders them by (time, src, seq) regardless of arrival order.
  for (auto& src : parts_) {
    for (std::size_t d = 0; d < src->outbox.size(); ++d) {
      for (Event& e : src->outbox[d]) parts_[d]->queue.push(std::move(e));
      src->outbox[d].clear();
    }
  }
  if (abort_requested_.load(std::memory_order_relaxed)) {
    aborting_.store(true, std::memory_order_relaxed);
    window_decision_ = WindowDecision::Abort;
    return;
  }
  TimeNs tmin = kTimeNever;
  int alive = 0;
  for (auto& p : parts_) {
    tmin = std::min(tmin, p->queue.minTime());
    alive += p->alive;
  }
  if (tmin == kTimeNever) {
    if (alive > 0) {
      deadlock();
      aborting_.store(true, std::memory_order_relaxed);
      window_decision_ = WindowDecision::Abort;
    } else {
      window_decision_ = WindowDecision::Done;
    }
    return;
  }
  window_horizon_ = tmin + lookahead_;
  window_decision_ = WindowDecision::Run;
}

void Engine::deadlock() {
  TimeNs t = 0;
  for (const auto& p : parts_) t = std::max(t, p->now);
  std::ostringstream msg;
  msg << "simulation deadlock at t=" << t << "ns; sleeping ranks:";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r]->state != RankState::Done) msg << ' ' << r;
  }
  recordError(std::make_exception_ptr(std::runtime_error(msg.str())));
  abort_requested_.store(true, std::memory_order_relaxed);
}

void Engine::recordError(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_) error_ = std::move(e);
}

void Engine::unwindPartition(Partition& p) {
  assert(aborting_.load(std::memory_order_relaxed));
  for (Rank r = p.lo; r < p.hi; ++r) {
    RankSlot& s = slot(r);
    if (s.state == RankState::Done) continue;
    // Resuming under aborting_ makes the fiber unwind via EngineAborted
    // (or skip rankMain entirely if it never started) and finish.
    resumeFiber(p, s);
  }
  p.queue.clear();
  for (auto& box : p.outbox) box.clear();
}

void Engine::execute(Partition& p, Event& e) {
  assert(e.time >= p.now);
  p.now = e.time;
  ++p.events;
  p.current_domain = e.owner;
  switch (e.kind) {
    case EventKind::Handler:
      try {
        e.fn();
      } catch (...) {
        recordError(std::current_exception());
        abort_requested_.store(true, std::memory_order_relaxed);
      }
      break;
    case EventKind::Resume: {
      RankSlot& s = slot(e.owner);
      if (s.state == RankState::Done) break;
      assert(s.state == RankState::Busy);
      resumeFiber(p, s);
      break;
    }
    case EventKind::Wake: {
      RankSlot& s = slot(e.owner);
      if (s.state == RankState::Done) break;
      if (s.state == RankState::Sleeping) {
        s.wake_pending = false;
        resumeFiber(p, s);
      } else {
        // Arriving while the rank is busy: leave the token for its next
        // sleep().
        s.wake_pending = true;
      }
      break;
    }
  }
  p.current_domain = -1;
}

void Engine::resumeFiber(Partition& p, RankSlot& s) {
  s.state = RankState::Running;
  s.fiber->resume(p.sched_ctx);
}

void Engine::rankFiberEntry(void* arg) {
  auto* s = static_cast<RankSlot*>(arg);
  Engine& eng = *s->engine;
  Partition& p = *t_part;
  std::exception_ptr failure;
  if (!eng.aborting_.load(std::memory_order_relaxed)) {
    Context ctx(eng, s->rank);
    try {
      (*eng.rank_main_)(ctx);
    } catch (const EngineAborted&) {
      // Unwound deliberately; not an error.
    } catch (...) {
      failure = std::current_exception();
    }
  }
  // Moved, not copied: finishRank never returns (the fiber dies in its
  // final switch), so a local exception_ptr reference would never be
  // released and the exception object would leak.
  eng.finishRank(p, s->rank, std::move(failure));
}

void Engine::finishRank(Partition& p, Rank rank, std::exception_ptr failure) {
  RankSlot& s = slot(rank);
  s.state = RankState::Done;
  --p.alive;
  if (failure) {
    recordError(std::move(failure));
    abort_requested_.store(true, std::memory_order_relaxed);
  }
  Fiber::switchTo(s.fiber->context(), p.sched_ctx, /*from_dying=*/true);
  std::abort();  // a finished fiber must never be resumed
}

TimeNs Engine::pushEvent(Partition& p, Rank owner, TimeNs t, EventKind kind,
                         InlineFn fn) {
  Event e;
  e.time = t < p.now ? p.now : t;
  e.src = p.current_domain;
  e.seq = nextSeq(e.src);
  e.owner = owner;
  e.kind = kind;
  e.fn = std::move(fn);
  const TimeNs eff = e.time;
  Partition& q = *parts_[static_cast<std::size_t>(slot(owner).part)];
  if (&q == &p) {
    p.queue.push(std::move(e));
  } else {
    // Conservative-parallel safety: an event for another partition may not
    // land inside the current lookahead window (its partition may already
    // have executed past that instant).
    if (t < p.now + lookahead_) {
      throw std::logic_error(
          "Engine: cross-partition event scheduled inside the lookahead "
          "window; delay it by at least lookahead() or keep it on the "
          "calling rank's partition");
    }
    p.outbox[static_cast<std::size_t>(q.index)].push_back(std::move(e));
  }
  return eff;
}

TimeNs Engine::schedule(TimeNs t, InlineFn handler) {
  Partition* p = t_part;
  if (p == nullptr) return t;  // outside run(): nothing to attach to
  return pushEvent(*p, p->current_domain, t, EventKind::Handler,
                   std::move(handler));
}

TimeNs Engine::scheduleFor(Rank owner, TimeNs t, InlineFn handler) {
  Partition* p = t_part;
  if (p == nullptr) return t;
  return pushEvent(*p, owner, t, EventKind::Handler, std::move(handler));
}

void Engine::wake(Rank rank) {
  Partition& p = *t_part;
  RankSlot& s = slot(rank);
  if (s.part != p.index) {
    throw std::logic_error(
        "Engine::wake: target rank lives on another partition; use "
        "wakeAt(rank, now() + lookahead())");
  }
  if (s.state == RankState::Done) return;
  if (s.state == RankState::Sleeping && !s.wake_pending) {
    s.wake_pending = true;
    pushEvent(p, rank, p.now, EventKind::Wake, {});
  } else {
    s.wake_pending = true;
  }
}

void Engine::wakeAt(Rank rank, TimeNs t) {
  Partition* p = t_part;
  if (p == nullptr) return;
  pushEvent(*p, rank, t, EventKind::Wake, {});
}

void Engine::rankCompute(Rank rank, DurationNs d) {
  assert(d >= 0);
  if (aborting_.load(std::memory_order_relaxed)) {
    // Don't schedule a timed resume nobody will deliver (the abort discards
    // the event queue); unwind, or no-op if already unwinding.
    unwindIfSafe();
    return;
  }
  Partition& p = *t_part;
  RankSlot& s = slot(rank);
  pushEvent(p, rank, p.now + d, EventKind::Resume, {});
  s.state = RankState::Busy;
  Fiber::switchTo(s.fiber->context(), p.sched_ctx, /*from_dying=*/false);
  if (aborting_.load(std::memory_order_relaxed)) unwindIfSafe();
}

void Engine::rankSleep(Rank rank) {
  if (aborting_.load(std::memory_order_relaxed)) {
    unwindIfSafe();
    return;
  }
  Partition& p = *t_part;
  RankSlot& s = slot(rank);
  if (s.wake_pending) {
    s.wake_pending = false;
    return;
  }
  s.state = RankState::Sleeping;
  Fiber::switchTo(s.fiber->context(), p.sched_ctx, /*from_dying=*/false);
  if (aborting_.load(std::memory_order_relaxed)) unwindIfSafe();
}

}  // namespace ovp::sim
