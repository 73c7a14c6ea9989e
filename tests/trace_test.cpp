// Tests for src/trace/: ring drop accounting and memory budget, golden
// Chrome-JSON/CSV exports, JSON well-formedness, exact window/report
// reconciliation, bit-identical reruns, cross-rank matching and the
// critical path, and the --ovprof-* flag validation that fronts it all.
//
// To regenerate the golden exports after an intentional format change:
//   OVPROF_REGOLD=1 ./build/tests/trace_test
// then commit the updated files under tests/golden/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mpi/machine.hpp"
#include "nas/cg.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/pairing.hpp"
#include "trace/reader.hpp"
#include "trace/ring.hpp"
#include "trace/timeline.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

#ifndef OVPROF_GOLDEN_DIR
#error "OVPROF_GOLDEN_DIR must point at tests/golden"
#endif

namespace ovp {
namespace {

// ---------------------------------------------------------------- helpers

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

/// Minimal recursive-descent JSON checker: accepts exactly the RFC 8259
/// grammar (objects, arrays, strings with escapes, numbers, true/false/
/// null) and rejects trailing garbage.  No values are built — this only
/// answers "would a real parser load it?".
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}
  [[nodiscard]] bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Fixed 2-rank workload exercising sections, both size classes, an eager
/// (case 3) path, and a run-long traced timeline.  Returns the Machine so
/// tests can reach both the reports and the collector.
mpi::JobConfig tracedConfig() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = mpi::Preset::OpenMpiPipelined;
  cfg.mpi.monitor.classes = overlap::SizeClasses::shortLong(16 * 1024);
  cfg.trace.enabled = true;
  return cfg;
}

void tracedWorkload(mpi::Mpi& mpi) {
  static const std::vector<Bytes> sizes = {256, 4096, 64 * 1024, 512 * 1024};
  std::vector<std::uint8_t> buf(512 * 1024, 7);
  mpi.sectionBegin("outer");
  for (const Bytes size : sizes) {
    mpi.sectionBegin("exchange");
    if (mpi.rank() == 0) {
      mpi::Request req = mpi.isend(buf.data(), size, 1, 0);
      mpi.compute(150'000);
      mpi.wait(req);
      mpi.recv(buf.data(), 64, 1, 1);
    } else {
      mpi::Request req = mpi.irecv(buf.data(), size, 0, 0);
      mpi.compute(60'000);
      mpi.wait(req);
      mpi.send(buf.data(), 64, 0, 1);
    }
    mpi.sectionEnd();
  }
  mpi.sectionEnd();
}

// ------------------------------------------------------------------- ring

TEST(TraceRing, KeepsOldestPrefixAndCountsDrops) {
  trace::TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    trace::Record rec;
    rec.kind = trace::RecordKind::SendPost;
    rec.time = i;
    ring.push(rec);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  // Keep-oldest: the retained records are an exact prefix of the stream,
  // which is what lets the timeline replay share the Processor's state
  // machine without resynchronisation.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).time, static_cast<TimeNs>(i));
  }
}

TEST(TraceRing, NonPowerOfTwoCapKeepsExactPrefix) {
  trace::TraceRing ring(5);
  EXPECT_EQ(ring.reservedBytes(), 0u);  // nothing allocated before a record
  for (int i = 0; i < 1000; ++i) {
    trace::Record rec;
    rec.time = i;
    EXPECT_EQ(ring.push(rec), i < 5);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_EQ(ring.dropped(), 995);
  EXPECT_EQ(ring.reservedBytes(), 5 * sizeof(trace::Record));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).time, static_cast<TimeNs>(i));
  }
}

TEST(TraceRing, MemoryTracksRecordsUpToTheCap) {
  constexpr std::size_t kCap = 1000;
  trace::TraceRing ring(kCap);
  for (std::size_t n = 1; n <= kCap; ++n) {
    trace::Record rec;
    rec.time = static_cast<TimeNs>(n);
    ASSERT_TRUE(ring.push(rec));
    ASSERT_LE(ring.reservedBytes(), kCap * sizeof(trace::Record));
    ASSERT_LE(ring.reservedBytes(),
              std::max<std::size_t>(2 * n, 64) * sizeof(trace::Record))
        << "after " << n << " records";
  }
  EXPECT_EQ(ring.reservedBytes(), kCap * sizeof(trace::Record));
  EXPECT_EQ(ring.dropped(), 0);
}

// Trace memory budget for a traced 64-rank run, as a machine-independent
// counter: the rings may hold at most twice the bytes of the records they
// keep, plus one first allocation (under 4 KiB) per rank.
TEST(TraceRing, Traced64RankCgStaysWithinMemoryBudget) {
  nas::NasParams p;
  p.cls = nas::Class::S;
  p.nranks = 64;
  p.trace.enabled = true;
  const nas::NasResult result = nas::runCg(p);
  ASSERT_TRUE(result.verified);
  ASSERT_NE(result.trace, nullptr);
  const trace::Collector& tc = *result.trace;
  EXPECT_EQ(tc.droppedTotal(), 0);
  EXPECT_GT(tc.recordedTotal(), 0);
  const std::size_t used =
      static_cast<std::size_t>(tc.recordedTotal()) * sizeof(trace::Record);
  EXPECT_LE(tc.reservedBytes(), 2 * used + 64 * 4096)
      << tc.recordedTotal() << " records";
}

TEST(TraceRing, DroppedRecordsUndershootReconciliation) {
  mpi::JobConfig cfg = tracedConfig();
  cfg.trace.ring_capacity = 32;  // force overflow
  mpi::Machine machine(cfg);
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  EXPECT_GT(tc.droppedTotal(), 0);
  const auto per_rank = trace::analyzeAllWindows(tc, msec(1));
  for (const trace::RankWindows& rw : per_rank) {
    EXPECT_GT(rw.dropped, 0);
    const overlap::OverlapAccum& whole =
        machine.reports()[static_cast<std::size_t>(rw.rank)].whole.total;
    EXPECT_LE(rw.total.transfers, whole.transfers);
    EXPECT_LE(rw.total.data_transfer_time, whole.data_transfer_time);
  }
}

// ---------------------------------------------------------------- exports

TEST(TraceExport, GoldenChromeJson) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeChromeJson(*machine.traceCollector(), os);
  compareOrRegold("trace_workload.json", os.str());
}

TEST(TraceExport, GoldenCsv) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeCsv(*machine.traceCollector(), os);
  compareOrRegold("trace_workload.csv", os.str());
}

TEST(TraceExport, JsonIsWellFormedAndCarriesSchema) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeChromeJson(*machine.traceCollector(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << "not RFC 8259 JSON";
  // Chrome trace-event schema essentials a viewer needs.
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exchange\""), std::string::npos);  // section
}

TEST(TraceExport, CsvIsLossless) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  std::ostringstream os;
  trace::writeCsv(tc, os);
  // One header plus exactly one line per retained record ('#' lines are
  // the v2 metadata block: format version, ranks, end times, xfer table,
  // drop counters, segments).
  std::int64_t lines = -1;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    if (!line.empty() && line[0] == '#') continue;
    ++lines;
  }
  std::int64_t retained = 0;
  for (Rank r = 0; r < tc.nranks(); ++r) {
    retained += static_cast<std::int64_t>(tc.ring(r).size());
  }
  EXPECT_EQ(lines, retained);
}

TEST(TraceReader, RejectsRanksOutsideTheTrace) {
  const std::string header =
      "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name\n";
  auto load = [](const std::string& csv) {
    std::istringstream is(csv);
    return trace::readCsv(is);
  };
  // A negative row rank is rejected even without a "# ranks" line.
  trace::ReadResult r = load(header + "0,0,1,CALL_ENTER,0,-1,0,0,0,-1,\n" +
                             "-1,0,2,CALL_EXIT,0,-1,0,0,0,-1,\n");
  EXPECT_EQ(r.collector, nullptr);
  EXPECT_EQ(r.error, "line 3: rank -1 out of range");
  // With "# ranks", the first offending line in file order is named, be it
  // an end time or a record row.
  r = load("# ranks,2\n" + header + "2,0,1,CALL_ENTER,0,-1,0,0,0,-1,\n" +
           "# end_time,-3,5\n");
  EXPECT_EQ(r.collector, nullptr);
  EXPECT_EQ(r.error, "line 3: rank 2 out of range [0, 2)");
  r = load("# ranks,2\n# end_time,2,5\n" + header);
  EXPECT_EQ(r.error, "line 2: rank 2 out of range [0, 2)");
  // In range, both load.
  r = load("# ranks,2\n# end_time,1,5\n" + header +
           "1,0,1,CALL_ENTER,0,-1,0,0,0,-1,\n");
  ASSERT_NE(r.collector, nullptr) << r.error;
  EXPECT_EQ(r.collector->endTime(1), 5);
}

TEST(TraceReader, RejectsRankCountsAboveTheLimit) {
  const std::string header =
      "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name\n";
  auto load = [](const std::string& csv) {
    std::istringstream is(csv);
    return trace::readCsv(is);
  };
  const std::string limit = std::to_string(trace::kMaxTraceRanks);
  trace::ReadResult r = load("# ranks,2000000000\n" + header);
  EXPECT_EQ(r.collector, nullptr);
  EXPECT_EQ(r.error, "line 1: # ranks 2000000000 above the limit " + limit);
  // Without "# ranks" the limit bounds row and end-time ranks, and a rank
  // too large for Rank is named as written, not truncated.
  r = load(header + "0,0,1,CALL_ENTER,0,-1,0,0,0,-1,\n" +
           "99999999,0,2,CALL_EXIT,0,-1,0,0,0,-1,\n");
  EXPECT_EQ(r.error, "line 3: rank 99999999 out of range [0, " + limit + ")");
  r = load("# end_time,5000000000,7\n" + header);
  EXPECT_EQ(r.error,
            "line 1: rank 5000000000 out of range [0, " + limit + ")");
  // The largest admitted rank loads.
  r = load(header + std::to_string(trace::kMaxTraceRanks - 1) +
           ",0,1,CALL_ENTER,0,-1,0,0,0,-1,\n");
  ASSERT_NE(r.collector, nullptr) << r.error;
  EXPECT_EQ(r.collector->nranks(), trace::kMaxTraceRanks);
}

TEST(TraceExport, RerunsAreBitIdentical) {
  auto once = [] {
    mpi::Machine machine(tracedConfig());
    machine.run(tracedWorkload);
    std::ostringstream json, csv;
    trace::writeChromeJson(*machine.traceCollector(), json);
    trace::writeCsv(*machine.traceCollector(), csv);
    return json.str() + "\x1e" + csv.str();
  };
  EXPECT_EQ(once(), once());
}

// --------------------------------------------------------- reconciliation

TEST(TraceTimeline, WindowSumsMatchReportExactly) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  for (const DurationNs window : {usec(50), usec(333), msec(1), msec(100)}) {
    const auto per_rank = trace::analyzeAllWindows(tc, window);
    ASSERT_EQ(per_rank.size(), machine.reports().size());
    for (const trace::RankWindows& rw : per_rank) {
      ASSERT_EQ(rw.dropped, 0);
      const overlap::Report& rep =
          machine.reports()[static_cast<std::size_t>(rw.rank)];
      // Whole-run totals rebuilt from the replay...
      EXPECT_EQ(rw.total.transfers, rep.whole.total.transfers);
      EXPECT_EQ(rw.total.bytes, rep.whole.total.bytes);
      EXPECT_EQ(rw.total.data_transfer_time,
                rep.whole.total.data_transfer_time);
      EXPECT_EQ(rw.total.min_overlapped, rep.whole.total.min_overlapped);
      EXPECT_EQ(rw.total.max_overlapped, rep.whole.total.max_overlapped);
      EXPECT_EQ(rw.comm_total, rep.whole.communication_call_time);
      EXPECT_EQ(rw.comp_total, rep.whole.computation_time);
      // ...and the per-window pieces sum to those totals without rounding
      // loss (exact integer attribution).
      trace::WindowStats sum;
      for (const trace::WindowStats& w : rw.windows) {
        sum.comm_time += w.comm_time;
        sum.comp_time += w.comp_time;
        sum.transfers += w.transfers;
        sum.bytes += w.bytes;
        sum.data_transfer_time += w.data_transfer_time;
        sum.min_overlap += w.min_overlap;
        sum.max_overlap += w.max_overlap;
      }
      EXPECT_EQ(sum.transfers, rw.total.transfers);
      EXPECT_EQ(sum.bytes, rw.total.bytes);
      EXPECT_EQ(sum.data_transfer_time, rw.total.data_transfer_time);
      EXPECT_EQ(sum.min_overlap, rw.total.min_overlapped);
      EXPECT_EQ(sum.max_overlap, rw.total.max_overlapped);
      EXPECT_EQ(sum.comm_time, rw.comm_total);
      EXPECT_EQ(sum.comp_time, rw.comp_total);
    }
  }
}

TEST(TraceTimeline, AllRanksShareTheWindowGrid) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const auto per_rank = trace::analyzeAllWindows(*machine.traceCollector(),
                                                 usec(100));
  ASSERT_FALSE(per_rank.empty());
  for (const trace::RankWindows& rw : per_rank) {
    EXPECT_EQ(rw.windows.size(), per_rank.front().windows.size());
  }
  const auto merged = trace::sumWindows(per_rank);
  EXPECT_EQ(merged.size(), per_rank.front().windows.size());
}

// ------------------------------------------------- matching/critical path

TEST(TraceCriticalPath, LateSenderIsDetectedAndBlamed) {
  // Rank 1 posts its receive immediately; rank 0 computes 2 ms before
  // sending.  Every exchange is sender-limited, so the path must spend most
  // of the run on rank 0, and the edges must classify as late-sender.
  mpi::JobConfig cfg = tracedConfig();
  mpi::Machine machine(cfg);
  std::vector<std::uint8_t> buf(64 * 1024, 1);
  machine.run([&](mpi::Mpi& mpi) {
    for (int i = 0; i < 4; ++i) {
      if (mpi.rank() == 0) {
        mpi.compute(msec(2));
        mpi.send(buf.data(), 64 * 1024, 1, 0);
      } else {
        mpi.recv(buf.data(), 64 * 1024, 0, 0);
      }
      mpi.barrier();
    }
  });
  const trace::Collector& tc = *machine.traceCollector();
  const auto edges = trace::matchMessages(tc);
  ASSERT_FALSE(edges.empty());
  std::int64_t late_senders = 0;
  for (const trace::MessageEdge& e : edges) {
    EXPECT_GE(e.match, e.send_post);
    if (e.lateSender()) ++late_senders;
  }
  EXPECT_GT(late_senders, 0);

  const trace::CriticalPath cp = trace::computeCriticalPath(tc, edges);
  ASSERT_FALSE(cp.segments.empty());
  // Segments partition [0, end).
  EXPECT_EQ(cp.segments.front().begin, 0);
  EXPECT_EQ(cp.segments.back().end, cp.end_time);
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].begin, cp.segments[i - 1].end);
  }
  DurationNs share_sum = 0;
  for (const DurationNs s : cp.rank_share) share_sum += s;
  EXPECT_EQ(share_sum, cp.end_time);
  // The compute-heavy sender dominates the path.
  EXPECT_GT(cp.rank_share[0], cp.rank_share[1]);
}

// ---------------------------------------------------------------- pairing

// The pairing rule as skel::runMatch wrote it before trace::pairMessages
// existed: pass 1 scans the named source's sends from the start for each
// concrete-source receive, pass 2 scans every source's sends for each
// wildcard-source receive.  A concrete source that is not a rank pairs
// with nothing.
std::vector<trace::MessagePair> referencePairs(
    const std::vector<std::vector<trace::PostedHalf>>& sends,
    const std::vector<std::vector<trace::PostedHalf>>& recvs) {
  const Rank n = static_cast<Rank>(sends.size());
  std::vector<std::vector<bool>> send_done(sends.size());
  for (Rank r = 0; r < n; ++r) {
    send_done[static_cast<std::size_t>(r)].resize(
        sends[static_cast<std::size_t>(r)].size());
  }
  const auto compatible = [](std::int32_t recv_tag, std::int32_t send_tag) {
    return recv_tag == trace::kAnyTag || recv_tag == send_tag;
  };
  std::vector<trace::MessagePair> out;
  const auto try_source = [&](Rank s, Rank d, std::size_t j) {
    const auto& list = sends[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (send_done[static_cast<std::size_t>(s)][i] || list[i].peer != d) {
        continue;
      }
      if (!compatible(recvs[static_cast<std::size_t>(d)][j].tag,
                      list[i].tag)) {
        continue;
      }
      send_done[static_cast<std::size_t>(s)][i] = true;
      out.push_back({s, i, d, j});
      return true;
    }
    return false;
  };
  // Pass 1: concrete-source receives.
  for (Rank d = 0; d < n; ++d) {
    const auto& list = recvs[static_cast<std::size_t>(d)];
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].peer == trace::kAnySource) continue;
      if (list[j].peer < 0 || list[j].peer >= n) continue;
      try_source(list[j].peer, d, j);
    }
  }
  // Pass 2: wildcard-source receives, source ranks ascending.
  for (Rank d = 0; d < n; ++d) {
    const auto& list = recvs[static_cast<std::size_t>(d)];
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].peer != trace::kAnySource) continue;
      for (Rank s = 0; s < n && !try_source(s, d, j); ++s) {
      }
    }
  }
  return out;
}

TEST(TracePairing, MatchesTheScanningReferenceOnRandomPrograms) {
  // Random per-rank programs with unequal counts, wildcard sources and
  // tags, sends carrying kAnyTag, and peers outside the job.
  util::Rng rng(19);
  std::size_t total_pairs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const Rank n = 1 + static_cast<Rank>(rng.below(6));
    std::vector<std::vector<trace::PostedHalf>> sends(
        static_cast<std::size_t>(n));
    std::vector<std::vector<trace::PostedHalf>> recvs(
        static_cast<std::size_t>(n));
    // A peer in [-2, n + 1]: -1 is the wildcard, -2 and n + 1 no rank.
    const auto peer = [&] { return static_cast<Rank>(rng.below(n + 4)) - 2; };
    const auto tag = [&] {
      return static_cast<std::int32_t>(rng.below(4)) - 1;
    };
    for (Rank r = 0; r < n; ++r) {
      const std::uint64_t ns = rng.below(9);
      const std::uint64_t nr = rng.below(9);
      for (std::uint64_t i = 0; i < ns; ++i) {
        sends[static_cast<std::size_t>(r)].push_back({peer(), tag()});
      }
      for (std::uint64_t i = 0; i < nr; ++i) {
        recvs[static_cast<std::size_t>(r)].push_back({peer(), tag()});
      }
    }
    const auto keys = [](const std::vector<trace::MessagePair>& pairs) {
      std::vector<std::tuple<Rank, std::size_t, Rank, std::size_t>> out;
      for (const trace::MessagePair& p : pairs) {
        out.emplace_back(p.src, p.send, p.dst, p.recv);
      }
      return out;
    };
    const auto want = keys(referencePairs(sends, recvs));
    ASSERT_EQ(keys(trace::pairMessages(sends, recvs)), want)
        << "trial " << trial;
    total_pairs += want.size();
  }
  EXPECT_GT(total_pairs, 3000u);  // the draws do pair, often
}

// ------------------------------------------------------------------ flags

util::Flags traceFlags() {
  return util::Flags("usage: prog\n",
                     {util::frameworkFlag("ovprof-trace"),
                      util::frameworkFlag("ovprof-trace-capacity"),
                      util::frameworkFlag("ovprof-trace-window"),
                      util::frameworkFlag("ovprof-verify"),
                      util::frameworkFlag("ovprof-fault")});
}

std::string parseArgs(util::Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.tryParse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(TraceFlags, UnknownOvprofFlagIsRejected) {
  util::Flags flags = traceFlags();
  EXPECT_EQ(parseArgs(flags, {"--ovprof-tracee=/tmp/x.json"}),
            "unknown flag --ovprof-tracee");
}

TEST(TraceFlags, KnownOvprofFlagsParse) {
  util::Flags flags = traceFlags();
  ASSERT_EQ(parseArgs(flags, {"--ovprof-trace=/tmp/x.json",
                              "--ovprof-trace-capacity=1024",
                              "--ovprof-trace-window=500000",
                              "--ovprof-verify", "--ovprof-fault=drop=0.01"}),
            "");
  EXPECT_EQ(flags.getString("ovprof-trace"), "/tmp/x.json");
  EXPECT_EQ(flags.getInt("ovprof-trace-capacity"), 1024);
  EXPECT_EQ(flags.getInt("ovprof-trace-window"), 500000);
  EXPECT_TRUE(flags.getBool("ovprof-verify"));
  EXPECT_EQ(flags.getString("ovprof-fault"), "drop=0.01");
}

TEST(TraceFlags, CapacityBelowOneOrNonIntegerIsRejected) {
  for (const char* arg : {"--ovprof-trace-capacity=0",
                          "--ovprof-trace-capacity=1e6",
                          "--ovprof-trace-window=-5"}) {
    util::Flags flags = traceFlags();
    EXPECT_NE(parseArgs(flags, {arg}), "") << arg;
  }
}

TEST(TraceFlags, BareTraceFlagGetsDefaultPath) {
  util::Flags flags = traceFlags();
  ASSERT_EQ(parseArgs(flags, {"--ovprof-trace"}), "");
  EXPECT_EQ(flags.getString("ovprof-trace"), "ovprof-trace.json");
}

TEST(TraceFlags, HelpRequested) {
  util::Flags flags = traceFlags();
  ASSERT_EQ(parseArgs(flags, {"--help"}), "");
  EXPECT_TRUE(flags.helpAsked());
  util::Flags flags2 = traceFlags();
  ASSERT_EQ(parseArgs(flags2, {"-h"}), "");
  EXPECT_TRUE(flags2.helpAsked());
}

// -------------------------------------------------------------- lifecycle

TEST(TraceCollector, DisabledConfigCreatesNoCollector) {
  mpi::JobConfig cfg = tracedConfig();
  cfg.trace.enabled = false;
  mpi::Machine machine(cfg);
  machine.run(tracedWorkload);
  EXPECT_EQ(machine.traceCollector(), nullptr);
}

TEST(TraceCollector, NicRecordsArePresent) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  std::int64_t posts = 0, completions = 0;
  for (Rank r = 0; r < tc.nranks(); ++r) {
    for (std::size_t i = 0; i < tc.ring(r).size(); ++i) {
      const trace::Record& rec = tc.ring(r).at(i);
      if (rec.kind == trace::RecordKind::NicPost) ++posts;
      if (rec.kind == trace::RecordKind::NicComplete) ++completions;
    }
  }
  EXPECT_GT(posts, 0);
  EXPECT_GT(completions, 0);
}

}  // namespace
}  // namespace ovp
