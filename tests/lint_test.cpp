// Tests for the offline cross-rank lint (src/analysis/ tentpole): vector
// clocks, the interval index (property-tested against brute force), the
// happens-before graph, seeded-race and seeded-deadlock detection, the
// overlap advisor, zero-findings guards over unmodified NAS kernels,
// CSV-reload parity, JSON determinism, a golden lint fixture, and the
// --ovprof-lint* flag plumbing.
//
// To regenerate the golden fixture after an intentional format change:
//   OVPROF_REGOLD=1 ./build/tests/lint_test
// then commit the updated file under tests/golden/.
#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/hb_graph.hpp"
#include "analysis/interval_index.hpp"
#include "analysis/lint.hpp"
#include "analysis/race_detector.hpp"
#include "analysis/vector_clock.hpp"
#include "armci/armci.hpp"
#include "nas/cg.hpp"
#include "nas/mg.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/reader.hpp"
#include "util/flags.hpp"

#ifndef OVPROF_GOLDEN_DIR
#error "OVPROF_GOLDEN_DIR must point at tests/golden"
#endif

namespace ovp {
namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;
using trace::Record;
using trace::RecordKind;

// ---------------------------------------------------------------- helpers

trace::Collector makeCollector(int nranks) {
  trace::CollectorConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 1u << 12;
  return trace::Collector(cfg, nranks);
}

Record rec(RecordKind kind, Rank rank, TimeNs time, std::int64_t id = 0,
           Rank peer = -1, std::int32_t tag = 0, Bytes bytes = 0,
           std::int64_t addr = -1) {
  Record r;
  r.kind = kind;
  r.rank = rank;
  r.time = time;
  r.id = id;
  r.peer = peer;
  r.tag = tag;
  r.bytes = bytes;
  r.addr = addr;
  return r;
}

/// Runs fn to completion on a thread whose stack is `bytes` long.
template <typename Fn>
void runOnStack(std::size_t bytes, Fn fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* f) -> void* {
                  (*static_cast<Fn*>(f))();
                  return nullptr;
                },
                &fn),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

bool hasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

std::string lintJson(const trace::Collector& c) {
  const analysis::LintResult lr = analysis::runLint(c);
  std::ostringstream os;
  analysis::writeDiagnosticsJson(lr.diagnostics, os);
  return os.str();
}

std::string goldenPath(const std::string& name) {
  return std::string(OVPROF_GOLDEN_DIR) + "/" + name;
}

bool regoldRequested() {
  const char* env = std::getenv("OVPROF_REGOLD");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void compareOrRegold(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (regoldRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(os)) << "cannot write " << path;
    os << actual;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(is))
      << "missing golden file " << path
      << " (regenerate with OVPROF_REGOLD=1)";
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << "; if intentional, regenerate with OVPROF_REGOLD=1";
}

// ------------------------------------------------------------ VectorClock

TEST(VectorClock, TickJoinOrdered) {
  analysis::VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);       // a = [2,0,0]
  b.tick(1);       // b = [0,1,0]
  EXPECT_TRUE(analysis::VectorClock::ordered(b, 1, b));
  EXPECT_FALSE(analysis::VectorClock::ordered(a, 0, b));  // b never saw a
  b.join(a);       // b = [2,1,0]
  EXPECT_TRUE(analysis::VectorClock::ordered(a, 0, b));
  EXPECT_EQ(b.at(0), 2);
  EXPECT_EQ(b.at(1), 1);
  EXPECT_EQ(b.at(2), 0);
}

// ---------------------------------------------------------- IntervalIndex

TEST(IntervalIndex, MatchesBruteForceOnRandomIntervals) {
  // Deterministic LCG; no std::random (keeps the test bit-stable).
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  auto rnd = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((s >> 33) % mod);
  };
  struct Iv {
    std::int64_t lo, hi;
  };
  std::vector<Iv> ivs;
  analysis::IntervalIndex index;
  for (std::size_t i = 0; i < 400; ++i) {
    const std::int64_t lo = rnd(2000);
    const std::int64_t hi = lo + 1 + rnd(80);
    ivs.push_back({lo, hi});
    index.add(lo, hi, i);
  }
  index.build();
  for (int q = 0; q < 500; ++q) {
    const std::int64_t lo = rnd(2100);
    const std::int64_t hi = lo + rnd(120);  // may be empty (lo == hi)
    std::vector<std::size_t> got, want;
    index.query(lo, hi, [&](std::size_t p) { got.push_back(p); });
    for (std::size_t i = 0; i < ivs.size() && lo < hi; ++i) {
      // lo >= hi is the empty query; it overlaps nothing by definition.
      if (ivs[i].lo < hi && ivs[i].hi > lo) want.push_back(i);
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(want, got) << "query [" << lo << ", " << hi << ")";
  }
}

// ------------------------------------------------- happens-before + races

// Synthetic three-rank trace: ranks 0 and 1 both put into rank 2's segment
// 0 with overlapping byte ranges.  Without synchronization that's a race;
// with a message rank0 -> rank1 between rank0's completion and rank1's
// post, happens-before orders them and the race disappears.
trace::Collector rmaPairTrace(bool synchronized) {
  trace::Collector c = makeCollector(3);
  c.restoreSegment(2, 4096);  // segment 0 of rank 2, 4 KiB
  c.push(0, rec(RecordKind::RmaPut, 0, 10, /*id=*/1, /*peer=*/2, /*tag=*/0,
                /*bytes=*/100, /*addr=*/0));
  c.push(0, rec(RecordKind::RmaComplete, 0, 20, /*id=*/1));
  if (synchronized) {
    c.push(0, rec(RecordKind::SendPost, 0, 30, 0, /*peer=*/1, /*tag=*/7, 8));
    c.push(1, rec(RecordKind::Match, 1, 40, 0, /*peer=*/0, /*tag=*/7, 8));
  }
  c.push(1, rec(RecordKind::RmaPut, 1, 50, /*id=*/1, /*peer=*/2, /*tag=*/0,
                /*bytes=*/100, /*addr=*/50));
  c.push(1, rec(RecordKind::RmaComplete, 1, 60, /*id=*/1));
  for (Rank r = 0; r < 3; ++r) c.setEndTime(r, 100);
  return c;
}

TEST(HbGraph, MessageJoinOrdersRmaAccesses) {
  const trace::Collector unsynced = rmaPairTrace(false);
  const analysis::HbGraph g1 = analysis::buildHbGraph(unsynced);
  EXPECT_FALSE(g1.incomplete);
  ASSERT_EQ(g1.accesses.size(), 2u);
  EXPECT_TRUE(hasCode(analysis::detectRaces(g1, {}), DiagCode::RmaRace));

  const trace::Collector synced = rmaPairTrace(true);
  const analysis::HbGraph g2 = analysis::buildHbGraph(synced);
  EXPECT_FALSE(g2.incomplete);
  EXPECT_TRUE(analysis::detectRaces(g2, {}).empty());
}

TEST(HbGraph, MatchWithoutRecordedSendMarksIncomplete) {
  // Rank 1 matched a message from rank 0, but rank 0's SEND_POST is not in
  // the trace (its ring dropped it): the join is skipped and said so.
  trace::Collector c = makeCollector(2);
  c.push(1, rec(RecordKind::Match, 1, 40, 0, /*peer=*/0, /*tag=*/7, 8));
  c.push(1, rec(RecordKind::RmaPut, 1, 50, /*id=*/1, /*peer=*/0, 0, 8, 0));
  const analysis::HbGraph g = analysis::buildHbGraph(c);
  EXPECT_TRUE(g.incomplete);
  ASSERT_EQ(g.incomplete_reasons.size(), 1u);
  EXPECT_EQ(g.incomplete_reasons[0],
            "rank 1 match from rank 0 had no recorded send (records "
            "dropped?)");
  ASSERT_EQ(g.accesses.size(), 1u);
  EXPECT_EQ(g.accesses[0].post_clock.at(0), 0);
}

TEST(HbGraph, MatchFromOutOfRangePeerGivesNoJoin) {
  // A MATCH naming rank 7 in a 2-rank trace (a corrupt or hand-edited
  // file) pairs with nothing: no join, no incomplete flag, no edge — even
  // with a same-tag send to the receiver sitting in the trace.
  trace::Collector c = makeCollector(2);
  c.push(0, rec(RecordKind::SendPost, 0, 10, 0, /*peer=*/1, /*tag=*/7, 8));
  c.push(1, rec(RecordKind::Match, 1, 40, 0, /*peer=*/7, /*tag=*/7, 8));
  c.push(1, rec(RecordKind::RmaPut, 1, 50, /*id=*/1, /*peer=*/0, 0, 8, 0));
  const analysis::HbGraph g = analysis::buildHbGraph(c);
  EXPECT_FALSE(g.incomplete);
  EXPECT_TRUE(g.incomplete_reasons.empty());
  ASSERT_EQ(g.accesses.size(), 1u);
  EXPECT_EQ(g.accesses[0].post_clock.at(0), 0);
  EXPECT_EQ(g.accesses[0].post_clock.at(1), 2);
  EXPECT_TRUE(trace::matchMessages(c).empty());
}

TEST(RaceDetector, DisjointRangesAndReadsDoNotRace) {
  // One segment per category: a concurrent get overlapping a put in the
  // SAME segment is a genuine read-write race and must not leak in here.
  trace::Collector c = makeCollector(3);
  c.restoreSegment(2, 4096);  // segment 0: disjoint writes
  c.restoreSegment(2, 4096);  // segment 1: overlapping reads
  c.restoreSegment(2, 4096);  // segment 2: overlapping accumulates
  // Disjoint writes: [0, 100) vs [100, 200).
  c.push(0, rec(RecordKind::RmaPut, 0, 10, 1, 2, 0, 100, 0));
  c.push(1, rec(RecordKind::RmaPut, 1, 10, 1, 2, 0, 100, 100));
  // Overlapping reads: [0, 200) twice.
  c.push(0, rec(RecordKind::RmaGet, 0, 20, 2, 2, 1, 200, 0));
  c.push(1, rec(RecordKind::RmaGet, 1, 20, 2, 2, 1, 200, 0));
  // Overlapping accumulates combine atomically: no race either.
  c.push(0, rec(RecordKind::RmaAcc, 0, 30, 3, 2, 2, 64, 300));
  c.push(1, rec(RecordKind::RmaAcc, 1, 30, 3, 2, 2, 64, 300));
  for (Rank r = 0; r < 3; ++r) c.setEndTime(r, 100);
  const analysis::HbGraph g = analysis::buildHbGraph(c);
  EXPECT_TRUE(analysis::detectRaces(g, {}).empty());
}

TEST(RaceDetector, MatchesBruteForceOnRandomSchedules) {
  // Property test over randomized schedules: three origin ranks issue RMA
  // ops against two segments of rank 3, interleaved with random barrier
  // epochs and random (sometimes missing) RMA_COMPLETE settles.  The
  // detector's interval-index + pair-dedup path must report exactly the
  // pairs a quadratic reference finds by applying the race definition
  // directly to the happens-before clocks.
  std::uint64_t s = 0xC0FFEE123456789ULL;
  auto rnd = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((s >> 33) % mod);
  };
  for (int iter = 0; iter < 20; ++iter) {
    trace::Collector c = makeCollector(4);
    c.restoreSegment(3, 1 << 16);  // segment 0
    c.restoreSegment(3, 1 << 16);  // segment 1
    TimeNs t = 1;
    std::int64_t next_op = 1;
    std::int64_t epoch = 0;
    std::vector<std::pair<Rank, std::int64_t>> open;  // awaiting settle
    for (int step = 0; step < 60; ++step) {
      const std::int64_t what = rnd(4);
      if (what == 0 && !open.empty()) {
        const auto idx = static_cast<std::size_t>(
            rnd(static_cast<std::uint64_t>(open.size())));
        c.push(open[idx].first,
               rec(RecordKind::RmaComplete, open[idx].first, t++,
                   open[idx].second));
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (what == 1) {
        ++epoch;
        for (Rank r = 0; r < 4; ++r) {
          c.push(r, rec(RecordKind::Barrier, r, t++, epoch));
        }
      } else {
        const Rank origin = static_cast<Rank>(rnd(3));
        constexpr RecordKind kKinds[] = {RecordKind::RmaPut,
                                         RecordKind::RmaGet,
                                         RecordKind::RmaAcc};
        const RecordKind kind = kKinds[rnd(3)];
        const std::int32_t seg = static_cast<std::int32_t>(rnd(2));
        const std::int64_t off = rnd(1024);
        const Bytes len = 1 + rnd(256);
        c.push(origin, rec(kind, origin, t++, next_op, /*peer=*/3, seg, len,
                           off));
        open.emplace_back(origin, next_op);
        ++next_op;
      }
    }
    for (Rank r = 0; r < 4; ++r) c.setEndTime(r, t + 10);
    const analysis::HbGraph g = analysis::buildHbGraph(c);
    ASSERT_FALSE(g.incomplete);

    // Quadratic reference: the definition, verbatim.
    const auto settled_before = [](const analysis::RmaAccess& a,
                                   const analysis::RmaAccess& b) {
      return a.settled && analysis::VectorClock::ordered(a.settle_clock,
                                                         a.origin,
                                                         b.post_clock);
    };
    std::size_t want = 0;
    for (std::size_t i = 0; i < g.accesses.size(); ++i) {
      for (std::size_t j = i + 1; j < g.accesses.size(); ++j) {
        const analysis::RmaAccess& a = g.accesses[i];
        const analysis::RmaAccess& b = g.accesses[j];
        if (a.origin == b.origin) continue;
        if (a.target != b.target || a.segment != b.segment) continue;
        if (a.offset >= b.offset + b.bytes || b.offset >= a.offset + a.bytes) {
          continue;
        }
        if (!a.isWrite() && !b.isWrite()) continue;
        if (a.kind == RecordKind::RmaAcc && b.kind == RecordKind::RmaAcc) {
          continue;
        }
        if (settled_before(a, b) || settled_before(b, a)) continue;
        ++want;
      }
    }
    analysis::RaceDetectorConfig cfg;
    cfg.max_findings = 1u << 20;  // never truncate in this test
    EXPECT_EQ(analysis::detectRaces(g, cfg).size(), want)
        << "schedule iteration " << iter;
  }
}

TEST(LintRace, SeededArmciWriteWriteRaceDetected) {
  // Real simulated run: ranks 0 and 1 concurrently put overlapping ranges
  // into rank 2's registered buffer with no synchronization in between.
  armci::ArmciJobConfig cfg;
  cfg.nranks = 3;
  cfg.trace.enabled = true;
  armci::ArmciMachine m(cfg);
  std::vector<std::uint8_t> target(4096, 0);
  std::vector<std::uint8_t> src0(4096, 1), src1(2048, 2);
  m.run([&](armci::Armci& a) {
    if (a.rank() == 2) a.registerLocal(target.data(), target.size());
    a.barrier();
    if (a.rank() == 0) {
      a.put(src0.data(), target.data(), src0.size(), 2);
    } else if (a.rank() == 1) {
      a.put(src1.data(), target.data() + 2048, src1.size(), 2);
    } else {
      a.compute(usec(50));
    }
    a.barrier();
  });
  ASSERT_NE(m.traceCollector(), nullptr);
  const analysis::LintResult lr = analysis::runLint(*m.traceCollector());
  EXPECT_TRUE(hasCode(lr.diagnostics, DiagCode::RmaRace));
  EXPECT_FALSE(lr.clean());
  EXPECT_EQ(lr.exitCode(), 1);
}

TEST(LintRace, BarrierSeparatedPutsAreRaceFree) {
  armci::ArmciJobConfig cfg;
  cfg.nranks = 3;
  cfg.trace.enabled = true;
  armci::ArmciMachine m(cfg);
  std::vector<std::uint8_t> target(4096, 0);
  std::vector<std::uint8_t> src0(4096, 1), src1(2048, 2);
  m.run([&](armci::Armci& a) {
    if (a.rank() == 2) a.registerLocal(target.data(), target.size());
    a.barrier();
    if (a.rank() == 0) a.put(src0.data(), target.data(), src0.size(), 2);
    a.barrier();  // orders rank 0's completed put before rank 1's
    if (a.rank() == 1) {
      a.put(src1.data(), target.data() + 2048, src1.size(), 2);
    }
    a.barrier();
  });
  ASSERT_NE(m.traceCollector(), nullptr);
  const analysis::LintResult lr = analysis::runLint(*m.traceCollector());
  EXPECT_FALSE(hasCode(lr.diagnostics, DiagCode::RmaRace));
  EXPECT_TRUE(lr.clean());
}

// --------------------------------------------------------------- deadlock

// Head-to-head blocking sends with no receiver: the classic send/recv
// deadlock.  Synthetic records, because a really deadlocked simulation
// would hang the engine rather than return a trace.
TEST(Deadlock, SeededSendSendCycleDetected) {
  trace::Collector c = makeCollector(2);
  c.push(0, rec(RecordKind::CallEnter, 0, 100));
  c.push(0, rec(RecordKind::SendPost, 0, 110, 0, /*peer=*/1, /*tag=*/0, 64));
  c.push(1, rec(RecordKind::CallEnter, 1, 100));
  c.push(1, rec(RecordKind::SendPost, 1, 110, 0, /*peer=*/0, /*tag=*/0, 64));
  c.setEndTime(0, 1000);
  c.setEndTime(1, 1000);
  const std::vector<Diagnostic> diags = analysis::analyzeWaitFor(c, {});
  ASSERT_TRUE(hasCode(diags, DiagCode::DeadlockCycle));
  const analysis::LintResult lr = analysis::runLint(c);
  EXPECT_TRUE(hasCode(lr.diagnostics, DiagCode::DeadlockCycle));
  EXPECT_EQ(lr.exitCode(), 1);
}

TEST(Deadlock, SendrecvExchangeIsNotACycle) {
  // Both ranks post the receive first (sendrecv shape): the wait-for
  // intervals are empty or closed, no cycle.
  trace::Collector c = makeCollector(2);
  for (Rank r = 0; r < 2; ++r) {
    const Rank peer = 1 - r;
    c.push(r, rec(RecordKind::CallEnter, r, 100));
    c.push(r, rec(RecordKind::RecvPost, r, 105, 0, peer, 0, 64));
    c.push(r, rec(RecordKind::SendPost, r, 110, 0, peer, 0, 64));
    c.push(r, rec(RecordKind::Match, r, 150, 0, peer, 0, 64));
    c.push(r, rec(RecordKind::CallExit, r, 200));
    c.setEndTime(r, 1000);
  }
  EXPECT_FALSE(
      hasCode(analysis::analyzeWaitFor(c, {}), DiagCode::DeadlockCycle));
}

TEST(Deadlock, HeadOfLineChainReported) {
  // rank 0 waits on rank 1 while rank 1 waits on rank 2, simultaneously
  // and for a long time; everyone eventually progresses (closed edges).
  trace::Collector c = makeCollector(3);
  // rank 2 posts its send very late; rank 1 blocks receiving from it.
  c.push(1, rec(RecordKind::CallEnter, 1, 100));
  c.push(1, rec(RecordKind::RecvPost, 1, 100, 0, /*peer=*/2, 0, 64));
  c.push(1, rec(RecordKind::CallExit, 1, 400000));
  c.push(2, rec(RecordKind::SendPost, 2, 390000, 0, /*peer=*/1, 0, 64));
  c.push(2, rec(RecordKind::CallExit, 2, 395000));
  // rank 0 blocks receiving from rank 1, which sends only after unblocking.
  c.push(0, rec(RecordKind::CallEnter, 0, 100));
  c.push(0, rec(RecordKind::RecvPost, 0, 100, 0, /*peer=*/1, 0, 64));
  c.push(0, rec(RecordKind::CallExit, 0, 420000));
  c.push(1, rec(RecordKind::SendPost, 1, 410000, 0, /*peer=*/0, 0, 64));
  c.push(1, rec(RecordKind::CallExit, 1, 415000));
  for (Rank r = 0; r < 3; ++r) c.setEndTime(r, 500000);
  const std::vector<Diagnostic> diags = analysis::analyzeWaitFor(c, {});
  EXPECT_FALSE(hasCode(diags, DiagCode::DeadlockCycle));
  EXPECT_TRUE(hasCode(diags, DiagCode::BlockingChain));
}

TEST(Deadlock, PostToRankOutsideTheTraceBuildsNoEdge) {
  // A 2-rank trace whose blocked send names rank 5 and whose receive names
  // rank 7 (a corrupt or hand-edited file): no wait-for edge, no crash.
  trace::Collector c = makeCollector(2);
  c.push(0, rec(RecordKind::CallEnter, 0, 100));
  c.push(0, rec(RecordKind::SendPost, 0, 110, 0, /*peer=*/5, /*tag=*/0, 64));
  c.push(1, rec(RecordKind::CallEnter, 1, 100));
  c.push(1, rec(RecordKind::RecvPost, 1, 110, 0, /*peer=*/7, /*tag=*/0, 64));
  c.setEndTime(0, 1000);
  c.setEndTime(1, 1000);
  EXPECT_TRUE(analysis::analyzeWaitFor(c, {}).empty());
  analysis::LintConfig deadlock_only;
  deadlock_only.races = false;
  deadlock_only.advisor = false;
  EXPECT_EQ(analysis::runLint(c, deadlock_only).exitCode(), 0);
  EXPECT_EQ(analysis::runLint(c).exitCode(), 0);
}

TEST(Deadlock, RingOfMaxTraceRanksReportsOneCycle) {
  // Every rank blocks sending to the next one: one cycle through all
  // kMaxTraceRanks ranks, deeper than a frame per rank fits in the stack.
  const auto n = static_cast<Rank>(trace::kMaxTraceRanks);
  trace::CollectorConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 2;
  trace::Collector c(cfg, n);
  for (Rank r = 0; r < n; ++r) {
    c.push(r, rec(RecordKind::CallEnter, r, 100));
    c.push(r, rec(RecordKind::SendPost, r, 110, 0, (r + 1) % n, 0, 64));
    c.setEndTime(r, 1000);
  }
  analysis::LintConfig deadlock_only;
  deadlock_only.races = false;
  deadlock_only.advisor = false;
  // On a 2 MiB stack, which a stack frame per rank on the path overflows.
  analysis::LintResult lr;
  runOnStack(2u << 20, [&] { lr = analysis::runLint(c, deadlock_only); });
  ASSERT_EQ(lr.diagnostics.size(), 1u);
  EXPECT_EQ(lr.diagnostics[0].code, DiagCode::DeadlockCycle);
  EXPECT_EQ(lr.diagnostics[0].rank, 0);
  EXPECT_EQ(lr.diagnostics[0].detail.rfind("wait-for cycle 0 -> 1 -> 2 ", 0),
            0u);
  EXPECT_EQ(lr.exitCode(), 1);
}

TEST(Deadlock, AnyTagReceivePairsWithTheFirstSendFromItsSource) {
  // Head to head and never exiting: rank 0 receives from rank 1 with
  // ANY_TAG while rank 1 sends to rank 0 with tag 3.  The receive accepts
  // the send, so neither rank waits on the other.  A receive that names
  // another tag cannot take the send, and the two ranks deadlock.
  for (const std::int32_t recv_tag : {-1, 4}) {
    trace::Collector c = makeCollector(2);
    c.push(0, rec(RecordKind::CallEnter, 0, 100));
    c.push(0, rec(RecordKind::RecvPost, 0, 110, 0, /*peer=*/1, recv_tag, 64));
    c.push(1, rec(RecordKind::CallEnter, 1, 100));
    c.push(1, rec(RecordKind::SendPost, 1, 120, 0, /*peer=*/0, /*tag=*/3, 64));
    c.setEndTime(0, 1000);
    c.setEndTime(1, 1000);
    EXPECT_EQ(hasCode(analysis::analyzeWaitFor(c, {}), DiagCode::DeadlockCycle),
              recv_tag != -1)
        << "receive tag " << recv_tag;
  }
}

// ---------------------------------------------------------------- advisor

trace::Collector advisorTrace() {
  trace::Collector c = makeCollector(1);
  overlap::XferTimeTable t;
  t.add(1, 100);
  t.add(1 << 20, 1000 * 1000);
  c.setTable(t);
  const Bytes kB = 64 * 1024;  // log-log lookup ~= 159 us
  // Serialized: begin and end inside one call.
  c.push(0, rec(RecordKind::CallEnter, 0, 1000));
  c.push(0, rec(RecordKind::XferBegin, 0, 1100, /*id=*/1, -1, 0, kB));
  c.push(0, rec(RecordKind::XferEnd, 0, 64000, /*id=*/1, -1, 0, kB));
  c.push(0, rec(RecordKind::CallExit, 0, 64100));
  // Early wait: posted outside, wait blocks for most of the wire time.
  c.push(0, rec(RecordKind::XferBegin, 0, 100000, /*id=*/2, -1, 0, kB));
  c.push(0, rec(RecordKind::CallEnter, 0, 101000));
  c.push(0, rec(RecordKind::XferEnd, 0, 162000, /*id=*/2, -1, 0, kB));
  c.push(0, rec(RecordKind::CallExit, 0, 162100));
  // Late wait: wire long done before the (instant) wait observed it.
  c.push(0, rec(RecordKind::XferBegin, 0, 200000, /*id=*/3, -1, 0, kB));
  c.push(0, rec(RecordKind::CallEnter, 0, 530000));
  c.push(0, rec(RecordKind::XferEnd, 0, 530100, /*id=*/3, -1, 0, kB));
  c.push(0, rec(RecordKind::CallExit, 0, 530200));
  c.setEndTime(0, 600000);
  return c;
}

TEST(Advisor, FlagsSerializedEarlyAndLateWaits) {
  const trace::Collector c = advisorTrace();
  const std::vector<Diagnostic> diags = analysis::adviseOverlap(c, {});
  EXPECT_TRUE(hasCode(diags, DiagCode::SerializedTransfer));
  EXPECT_TRUE(hasCode(diags, DiagCode::EarlyWait));
  EXPECT_TRUE(hasCode(diags, DiagCode::LateWait));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::Note);  // advice never fails a run
    if (d.code == DiagCode::SerializedTransfer) EXPECT_GT(d.gain, 0);
    if (d.code == DiagCode::LateWait) EXPECT_EQ(d.gain, 0);
  }
  EXPECT_TRUE(analysis::clean(diags));
}

// ------------------------------------------- reload parity + determinism

TEST(Lint, CsvReloadReproducesFindingsBitIdentically) {
  const trace::Collector c = advisorTrace();
  std::ostringstream csv;
  trace::writeCsv(c, csv);
  std::istringstream in(csv.str());
  const trace::ReadResult loaded = trace::readCsv(in);
  ASSERT_NE(loaded.collector, nullptr) << loaded.error;
  EXPECT_EQ(lintJson(c), lintJson(*loaded.collector));
}

TEST(Lint, JsonIsDeterministicAcrossReruns) {
  // Two fully independent simulated runs of the seeded-race scenario must
  // produce byte-identical findings.
  std::string json[2];
  for (int pass = 0; pass < 2; ++pass) {
    armci::ArmciJobConfig cfg;
    cfg.nranks = 3;
    cfg.trace.enabled = true;
    armci::ArmciMachine m(cfg);
    std::vector<std::uint8_t> target(4096, 0);
    std::vector<std::uint8_t> src(4096, 1);
    m.run([&](armci::Armci& a) {
      if (a.rank() == 2) a.registerLocal(target.data(), target.size());
      a.barrier();
      if (a.rank() < 2) a.put(src.data(), target.data(), src.size(), 2);
      a.barrier();
    });
    ASSERT_NE(m.traceCollector(), nullptr);
    json[pass] = lintJson(*m.traceCollector());
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_NE(json[0].find("RMA_RACE"), std::string::npos);
}

TEST(Lint, GoldenSyntheticFixture) {
  // Fully synthetic trace combining a deadlock cycle and advisor findings:
  // bit-stable by construction (no simulation timestamps involved).
  trace::Collector c = advisorTrace();
  c.push(0, rec(RecordKind::CallEnter, 0, 350000));
  c.push(0, rec(RecordKind::SendPost, 0, 350010, 0, /*peer=*/0, 0, 64));
  const analysis::LintResult lr = analysis::runLint(c);
  std::ostringstream os;
  analysis::printLintText(lr, os);
  os << "--- json ---\n";
  analysis::writeDiagnosticsJson(lr.diagnostics, os);
  compareOrRegold("lint_synthetic.txt", os.str());
}

// -------------------------------------------- NAS traces stay lint-clean

TEST(LintNas, CgTraceHasNoFindings) {
  nas::NasParams params;
  params.cls = nas::Class::S;
  params.nranks = 4;
  params.trace.enabled = true;
  const nas::NasResult r = nas::runCg(params);
  ASSERT_TRUE(r.verified);
  ASSERT_NE(r.trace, nullptr);
  const analysis::LintResult lr = analysis::runLint(*r.trace);
  EXPECT_TRUE(lr.clean()) << "unexpected findings on unmodified CG";
  EXPECT_EQ(lr.exitCode(), 0);
}

TEST(LintNas, ArmciMgTraceHasNoFindings) {
  // The ARMCI MG variant exercises the full RMA record path (registered
  // segments, put/acc, fences, barriers) — it must be race-free.
  nas::MgParams params;
  params.cls = nas::Class::S;
  params.nranks = 4;
  params.trace.enabled = true;
  params.variant = nas::MgVariant::ArmciNonBlocking;
  const nas::NasResult r = nas::runMg(params);
  ASSERT_TRUE(r.verified);
  ASSERT_NE(r.trace, nullptr);
  const analysis::LintResult lr = analysis::runLint(*r.trace);
  EXPECT_TRUE(lr.clean()) << "unexpected findings on unmodified ARMCI MG";
  for (const Diagnostic& d : lr.diagnostics) {
    EXPECT_NE(d.code, DiagCode::RmaRace) << d.toString();
    EXPECT_NE(d.code, DiagCode::DeadlockCycle) << d.toString();
  }
}

// ------------------------------------------------------------------ flags

util::Flags lintFlags() {
  return util::Flags("usage: prog\n",
                     {util::frameworkFlag("ovprof-lint"),
                      util::frameworkFlag("ovprof-lint-json")});
}

std::string parseArgs(util::Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.tryParse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(LintFlags, KnownFlagsParseAndUnknownAreRejected) {
  {
    util::Flags flags = lintFlags();
    ASSERT_EQ(
        parseArgs(flags, {"--ovprof-lint", "--ovprof-lint-json=out.json"}),
        "");
    EXPECT_TRUE(flags.getBool("ovprof-lint"));
    EXPECT_EQ(flags.getString("ovprof-lint-json"), "out.json");
  }
  {
    util::Flags flags = lintFlags();
    ASSERT_EQ(parseArgs(flags, {"--ovprof-lint-json"}), "");
    EXPECT_EQ(flags.getString("ovprof-lint-json"), "ovprof-lint.json");
  }
  for (const char* typo : {"--ovprof-lint-jsn=typo.json", "--ovprof-litn"}) {
    util::Flags flags = lintFlags();
    EXPECT_NE(parseArgs(flags, {typo}), "") << typo;
  }
}

TEST(LintFlags, EnvironmentFallbacks) {
  {
    util::Flags flags = lintFlags();
    ASSERT_EQ(parseArgs(flags, {}), "");
    EXPECT_FALSE(flags.getBool("ovprof-lint"));
  }
  ::setenv("OVPROF_LINT", "1", 1);
  ::setenv("OVPROF_LINT_JSON", "/tmp/lint.json", 1);
  {
    util::Flags flags = lintFlags();
    ASSERT_EQ(parseArgs(flags, {}), "");
    EXPECT_TRUE(flags.getBool("ovprof-lint"));
    EXPECT_EQ(flags.getString("ovprof-lint-json"), "/tmp/lint.json");
  }
  ::setenv("OVPROF_LINT", "0", 1);
  {
    util::Flags flags = lintFlags();
    ASSERT_EQ(parseArgs(flags, {}), "");
    EXPECT_FALSE(flags.getBool("ovprof-lint"));
  }
  ::setenv("OVPROF_LINT", "maybe", 1);
  {
    util::Flags flags = lintFlags();
    EXPECT_NE(parseArgs(flags, {}), "");
  }
  ::unsetenv("OVPROF_LINT");
  ::unsetenv("OVPROF_LINT_JSON");
}

}  // namespace
}  // namespace ovp
