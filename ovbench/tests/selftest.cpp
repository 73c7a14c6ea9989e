// Tests of the benchmark's own arithmetic and output checkers.  Exit code 0
// when every check holds; each failure is printed with its line.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "span.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++failures;                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

ovbench::Span span(const char* name, double start, double end, int parent,
                   int pass = 0) {
  ovbench::Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.pass = pass;
  return s;
}

void selfTimeOfHandBuiltTree() {
  // root [0,10] has children a [1,4], b [3,6] (overlapping a) and c [8,12]
  // (running past its parent); a has child d [2,3].
  const std::vector<ovbench::Span> spans = {
      span("root", 0, 10, -1), span("a", 1, 4, 0), span("b", 3, 6, 0),
      span("c", 8, 12, 0),     span("d", 2, 3, 1), span("a", 0, 5, -1, 1),
  };
  const std::vector<double> self = ovbench::selfTimes(spans);
  CHECK(near(self[0], 10.0 - 5.0 - 2.0));  // children cover [1,6] and [8,10]
  CHECK(near(self[1], 3.0 - 1.0));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 4.0));
  CHECK(near(self[4], 1.0));
  CHECK(near(ovbench::selfTimeOf(spans, self, "a", 0), 2.0));
  CHECK(near(ovbench::selfTimeOf(spans, self, "a", 1), 5.0));
  CHECK(near(ovbench::selfTimeOf(spans, self, "missing", 0), 0.0));
}

void spanLogNestsAndCanBeOff() {
  ovbench::SpanLog off(false);
  { ovbench::ScopedSpan s(off, "x"); }
  CHECK(off.spans().empty());

  ovbench::SpanLog log(true);
  log.setPass(7);
  {
    ovbench::ScopedSpan outer(log, "outer");
    ovbench::ScopedSpan inner(log, "inner");
  }
  { ovbench::ScopedSpan next(log, "next"); }
  CHECK(log.spans().size() == 3);
  CHECK(log.spans()[0].parent == -1);
  CHECK(log.spans()[1].parent == 0);
  CHECK(log.spans()[2].parent == -1);
  CHECK(log.spans()[1].pass == 7);
  CHECK(log.spans()[1].end >= log.spans()[1].start);
  CHECK(log.spans()[0].end >= log.spans()[1].end);
}

void haloCheckerRejectsWrongValues() {
  std::vector<double> got(64);
  for (int i = 0; i < 64; ++i) got[i] = ovbench::haloValue(5, 3, 1, i);
  CHECK(ovbench::countHaloErrors(got, 5, 3, 1) == 0);
  CHECK(ovbench::countHaloErrors(got, 5, 3, 0) == 64);  // wrong direction
  got[17] += 1.0;
  CHECK(ovbench::countHaloErrors(got, 5, 3, 1) == 1);
  // Distinct senders, iterations and directions never share a value.
  CHECK(ovbench::haloValue(1023, 0, 0, 0) != ovbench::haloValue(0, 1023, 0, 0));
  CHECK(ovbench::haloValue(2, 1, 0, 4095) != ovbench::haloValue(2, 1, 1, 0));

  double sum = 0.0;
  for (int r = 0; r < 16; ++r) sum += ovbench::allreduceContribution(r, 9);
  CHECK(sum == ovbench::allreduceExpected(16, 9));

  ovbench::HaloOutcome ok;
  ok.iterations_done = ok.iterations_expected = 32;
  CHECK(ovbench::checkHalo(ok).empty());
  ovbench::HaloOutcome bad_value = ok;
  bad_value.bad_halo_values = 1;
  CHECK(ovbench::checkHalo(bad_value).size() == 1);
  ovbench::HaloOutcome bad_sum = ok;
  bad_sum.bad_allreduces = 2;
  CHECK(ovbench::checkHalo(bad_sum).size() == 1);
  ovbench::HaloOutcome short_run = ok;
  short_run.iterations_done = 31;
  CHECK(ovbench::checkHalo(short_run).size() == 1);
}

ovbench::NasOutcome goodNas() {
  ovbench::NasOutcome o;
  o.kernel = "cg";
  o.verified = true;
  o.records = 1000;
  o.lint_clean = true;
  o.verifier_clean = true;
  o.reports_saved = true;
  o.merged_in_memory = o.merged_reloaded = "report";
  o.csv_records = 1000;
  return o;
}

void nasCheckerRejectsBadResults() {
  CHECK(ovbench::checkNas(goodNas()).empty());
  ovbench::NasOutcome dropped = goodNas();
  dropped.dropped = 3;
  CHECK(ovbench::checkNas(dropped).size() == 1);
  ovbench::NasOutcome short_stream = goodNas();
  short_stream.csv_records = 999;
  CHECK(ovbench::checkNas(short_stream).size() == 1);
  ovbench::NasOutcome unverified = goodNas();
  unverified.verified = false;
  CHECK(ovbench::checkNas(unverified).size() == 1);
  ovbench::NasOutcome lint = goodNas();
  lint.lint_clean = false;
  CHECK(ovbench::checkNas(lint).size() == 1);
  ovbench::NasOutcome merged = goodNas();
  merged.merged_reloaded = "other";
  CHECK(ovbench::checkNas(merged).size() == 1);
  ovbench::NasOutcome unread = goodNas();
  unread.csv_read_error = "line 3: bad row";
  CHECK(!ovbench::checkNas(unread).empty());

  std::vector<ovp::overlap::Report> reports(2);
  reports[1].whole.total.transfers = 4;
  std::vector<ovp::trace::RankWindows> windows(2);
  windows[1].total.transfers = 4;
  CHECK(ovbench::reconcileWindows(windows, reports).empty());
  windows[1].total.max_overlapped = 1;
  CHECK(ovbench::reconcileWindows(windows, reports).size() == 1);
  windows[1].total.max_overlapped = 0;
  windows[0].dropped = 2;
  CHECK(ovbench::reconcileWindows(windows, reports).size() == 1);
  windows.pop_back();
  CHECK(ovbench::reconcileWindows(windows, reports).size() == 1);
}

void campaignCheckerRejectsShortStreams() {
  ovbench::CampaignOutcome ok;
  ok.jobs_submitted = ok.jobs = ok.records_written = 200;
  ok.reloaded = true;
  ok.records_reloaded = 200;
  CHECK(ovbench::checkCampaign(ok).empty());
  ovbench::CampaignOutcome short_read = ok;
  short_read.records_reloaded = 199;
  CHECK(ovbench::checkCampaign(short_read).size() == 1);
  ovbench::CampaignOutcome short_write = ok;
  short_write.records_written = 199;
  CHECK(!ovbench::checkCampaign(short_write).empty());
  ovbench::CampaignOutcome unparsed = ok;
  unparsed.reloaded = false;
  CHECK(ovbench::checkCampaign(unparsed).size() == 1);
}

void determinismGuardFlagsAnyDifference() {
  const ovbench::Modelled ref = {{"sim.events", "817508"},
                                 {"csv", ovbench::digest("a,b\n")}};
  CHECK(ovbench::compareModelled(ref, ref).empty());
  ovbench::Modelled moved = ref;
  moved["sim.events"] = "817509";
  CHECK(ovbench::compareModelled(ref, moved).size() == 1);
  ovbench::Modelled missing = ref;
  missing.erase("csv");
  CHECK(ovbench::compareModelled(ref, missing).size() == 1);
  ovbench::Modelled extra = ref;
  extra["new"] = "1";
  CHECK(ovbench::compareModelled(ref, extra).size() == 1);
  CHECK(ovbench::digest("a,b\n") != ovbench::digest("a,c\n"));
  CHECK(ovbench::digest("") == "cbf29ce484222325");
  CHECK(ovbench::exactReal(0.1) == "0.10000000000000001");
}

}  // namespace

int main() {
  selfTimeOfHandBuiltTree();
  spanLogNestsAndCanBeOff();
  haloCheckerRejectsWrongValues();
  nasCheckerRejectsBadResults();
  campaignCheckerRejectsShortStreams();
  determinismGuardFlagsAnyDifference();
  if (failures != 0) {
    std::fprintf(stderr, "ovbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("ovbench_selftest: all checks passed\n");
  return 0;
}
