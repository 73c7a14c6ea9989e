// Tests for the PERUSE-style external event hooks: an outside tool must
// see the same event stream the overlap framework consumes, without
// perturbing virtual time, the framework's own accounting, or the trace
// collector attached to the same library.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "mpi/machine.hpp"
#include "trace/export.hpp"

namespace ovp::mpi {
namespace {

struct Trace {
  int calls_entered = 0;
  int calls_exited = 0;
  int xfers_begun = 0;
  int xfers_ended = 0;
  Bytes bytes_begun = 0;
  std::vector<Status> matches;
};

void attachTrace(Mpi& mpi, Trace& t) {
  EventHooks hooks;
  hooks.on_call_enter = [&t](TimeNs) { ++t.calls_entered; };
  hooks.on_call_exit = [&t](TimeNs) { ++t.calls_exited; };
  hooks.on_xfer_begin = [&t](TimeNs, Bytes n) {
    ++t.xfers_begun;
    t.bytes_begun += n;
  };
  hooks.on_xfer_end = [&t](TimeNs) { ++t.xfers_ended; };
  hooks.on_match = [&t](TimeNs, Rank src, int tag, Bytes n) {
    t.matches.push_back({src, tag, n});
  };
  mpi.setHooks(std::move(hooks));
}

TEST(Hooks, CallBracketsBalanceAndCountOutermostOnly) {
  JobConfig cfg;
  cfg.nranks = 2;
  Machine m(cfg);
  Trace traces[2];
  m.run([&](Mpi& mpi) {
    attachTrace(mpi, traces[mpi.rank()]);
    mpi.barrier();  // collective: nested p2p must not double-count
    mpi.barrier();
  });
  for (const Trace& t : traces) {
    EXPECT_EQ(t.calls_entered, 2) << "one per outermost barrier call";
    EXPECT_EQ(t.calls_exited, t.calls_entered);
  }
}

TEST(Hooks, SenderSeesXferBeginAndEnd) {
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = Preset::Mvapich2;
  Machine m(cfg);
  Trace trace;
  std::vector<std::uint8_t> buf(1 << 20);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      attachTrace(mpi, trace);
      Request r = mpi.isend(buf.data(), 1 << 20, 1, 3);
      mpi.compute(msec(2));
      mpi.wait(r);
    } else {
      mpi.recv(buf.data(), 1 << 20, 0, 3);
    }
  });
  EXPECT_EQ(trace.xfers_begun, 1);
  EXPECT_EQ(trace.xfers_ended, 1);
  EXPECT_EQ(trace.bytes_begun, 1 << 20);
}

TEST(Hooks, ReceiverSeesMatch) {
  JobConfig cfg;
  cfg.nranks = 2;
  Machine m(cfg);
  Trace trace;
  int v = 5;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(&v, sizeof v, 1, 42);
    } else {
      attachTrace(mpi, trace);
      int got = 0;
      mpi.recv(&got, sizeof got, 0, 42);
    }
  });
  ASSERT_EQ(trace.matches.size(), 1u);
  EXPECT_EQ(trace.matches[0].source, 0);
  EXPECT_EQ(trace.matches[0].tag, 42);
  EXPECT_EQ(trace.matches[0].bytes, static_cast<Bytes>(sizeof(int)));
}

TEST(Hooks, MatchFiresForUnexpectedAndRendezvous) {
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = Preset::OpenMpiLeavePinned;
  Machine m(cfg);
  Trace trace;
  std::vector<std::uint8_t> big(300000);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(big.data(), 300000, 1, 1);  // rendezvous
      const int v = 1;
      mpi.send(&v, sizeof v, 1, 2);  // eager, will be unexpected
    } else {
      attachTrace(mpi, trace);
      mpi.recv(big.data(), 300000, 0, 1);
      mpi.compute(usec(300));  // let the eager message land unexpected
      int got = 0;
      mpi.recv(&got, sizeof got, 0, 2);
    }
  });
  ASSERT_EQ(trace.matches.size(), 2u);
  EXPECT_EQ(trace.matches[0].bytes, 300000);
  EXPECT_EQ(trace.matches[1].tag, 2);
}

TEST(Hooks, HooksDoNotPerturbVirtualTimeOrReports) {
  auto runJob = [](bool with_hooks, Trace* trace) {
    JobConfig cfg;
    cfg.nranks = 2;
    Machine m(cfg);
    std::vector<std::uint8_t> buf(65536);
    m.run([&](Mpi& mpi) {
      if (with_hooks && mpi.rank() == 0) attachTrace(mpi, *trace);
      for (int i = 0; i < 10; ++i) {
        if (mpi.rank() == 0) {
          mpi.send(buf.data(), 65536, 1, 0);
        } else {
          mpi.recv(buf.data(), 65536, 0, 0);
        }
        mpi.compute(usec(100));
      }
    });
    return std::pair<TimeNs, std::int64_t>{
        m.finishTime(), m.reports()[0].whole.total.transfers};
  };
  Trace trace;
  const auto plain = runJob(false, nullptr);
  const auto hooked = runJob(true, &trace);
  EXPECT_EQ(plain.first, hooked.first) << "hooks run in zero virtual time";
  EXPECT_EQ(plain.second, hooked.second);
  EXPECT_GT(trace.xfers_begun, 0);
}

TEST(Hooks, WorkUninstrumented) {
  // Hooks must fire even when the overlap framework is compiled out.
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.instrument = false;
  Machine m(cfg);
  Trace trace;
  int v = 1;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      attachTrace(mpi, trace);
      mpi.send(&v, sizeof v, 1, 0);
    } else {
      mpi.recv(&v, sizeof v, 0, 0);
    }
  });
  EXPECT_GT(trace.calls_entered, 0);
  EXPECT_EQ(trace.xfers_begun, 1);
}

// The application hooks' message events, one list per kind: (time, peer,
// tag, bytes) in firing order.
struct MessageLog {
  using Entry = std::tuple<TimeNs, Rank, int, Bytes>;
  std::vector<Entry> send_posts, recv_posts, matches;
};

void attachMessageLog(Mpi& mpi, MessageLog& log) {
  EventHooks hooks;
  hooks.on_send_post = [&log](TimeNs t, Rank dst, int tag, Bytes n) {
    log.send_posts.emplace_back(t, dst, tag, n);
  };
  hooks.on_recv_post = [&log](TimeNs t, Rank src, int tag, Bytes n) {
    log.recv_posts.emplace_back(t, src, tag, n);
  };
  hooks.on_match = [&log](TimeNs t, Rank src, int tag, Bytes n) {
    log.matches.emplace_back(t, src, tag, n);
  };
  mpi.setHooks(std::move(hooks));
}

// The same rank's trace records of one kind, in the MessageLog's shape.
std::vector<MessageLog::Entry> traced(const trace::Collector& c, Rank r,
                                      trace::RecordKind kind) {
  std::vector<MessageLog::Entry> out;
  const trace::TraceRing& ring = c.ring(r);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::Record& rec = ring.at(i);
    if (rec.kind == kind) out.emplace_back(rec.time, rec.peer, rec.tag, rec.bytes);
  }
  return out;
}

TEST(Hooks, CoexistWithTraceAndLeaveItUnchanged) {
  // Application hooks and the trace collector both observe the message
  // events: the hooks fire first, at the same virtual instant the record
  // is stamped, and attaching them leaves the trace byte-identical.
  auto runJob = [](MessageLog* logs) {
    JobConfig cfg;
    cfg.nranks = 3;
    cfg.trace.enabled = true;
    Machine m(cfg);
    std::vector<std::uint8_t> big(300000);
    m.run([&](Mpi& mpi) {
      if (logs != nullptr) attachMessageLog(mpi, logs[mpi.rank()]);
      int v = mpi.rank();
      if (mpi.rank() == 0) {
        mpi.send(big.data(), 300000, 1, 1);  // rendezvous
        Request r = mpi.isend(&v, sizeof v, 2, 2);
        mpi.compute(usec(20));
        mpi.wait(r);
      } else if (mpi.rank() == 1) {
        Request r = mpi.irecv(big.data(), 300000, 0, 1);
        mpi.compute(usec(50));
        mpi.wait(r);
        mpi.send(&v, sizeof v, 2, 3);
      } else {
        int got = 0;
        mpi.recv(&got, sizeof got, kAnySource, kAnyTag);
        mpi.recv(&got, sizeof got, kAnySource, kAnyTag);
      }
      mpi.barrier();
    });
    std::ostringstream csv;
    trace::writeCsv(*m.traceCollector(), csv);
    return std::pair{csv.str(), m.traceCollector()};
  };
  MessageLog logs[3];
  const auto [hooked_csv, tc] = runJob(logs);
  EXPECT_EQ(hooked_csv, runJob(nullptr).first);
  std::size_t matches = 0;
  for (Rank r = 0; r < 3; ++r) {
    const MessageLog& log = logs[r];
    EXPECT_EQ(log.send_posts, traced(*tc, r, trace::RecordKind::SendPost));
    EXPECT_EQ(log.recv_posts, traced(*tc, r, trace::RecordKind::RecvPost));
    EXPECT_EQ(log.matches, traced(*tc, r, trace::RecordKind::Match));
    EXPECT_FALSE(log.send_posts.empty()) << "rank " << r;
    matches += log.matches.size();
  }
  EXPECT_GE(matches, 3u) << "the three user messages plus the barrier's";
}

TEST(TraceCollector, CallTimeMatchesFrameworkAccounting) {
  // The trace's CALL_ENTER/CALL_EXIT records, post-processed, must agree
  // with the framework's on-the-fly communication_call_time.
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.trace.enabled = true;
  Machine m(cfg);
  std::vector<std::uint8_t> buf(50000);
  m.run([&](Mpi& mpi) {
    for (int i = 0; i < 5; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), 50000, 1, 0);
      } else {
        mpi.recv(buf.data(), 50000, 0, 0);
      }
      mpi.compute(usec(50));
    }
  });
  DurationNs from_trace = 0;
  TimeNs enter = -1;
  const trace::TraceRing& ring = m.traceCollector()->ring(0);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::Record& rec = ring.at(i);
    if (rec.kind == trace::RecordKind::CallEnter) {
      enter = rec.time;
    } else if (rec.kind == trace::RecordKind::CallExit && enter >= 0) {
      from_trace += rec.time - enter;
      enter = -1;
    }
  }
  EXPECT_GT(from_trace, 0);
  EXPECT_EQ(from_trace, m.reports()[0].whole.communication_call_time);
}

}  // namespace
}  // namespace ovp::mpi
