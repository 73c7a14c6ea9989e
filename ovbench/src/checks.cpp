#include "checks.hpp"

#include <cinttypes>
#include <cstdio>

namespace ovbench {

double haloValue(int src, int it, int dir, int i) {
  const std::int64_t v =
      ((static_cast<std::int64_t>(src) * (1 << 20) + it) * 2 + dir) * 4096 +
      i;
  return static_cast<double>(v);
}

std::int64_t countHaloErrors(const std::vector<double>& got, int src, int it,
                             int dir) {
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != haloValue(src, it, dir, static_cast<int>(i))) ++bad;
  }
  return bad;
}

double allreduceContribution(int rank, int it) {
  return static_cast<double>(rank + 1) * static_cast<double>(it + 1);
}

double allreduceExpected(int nranks, int it) {
  const std::int64_t n = nranks;
  return static_cast<double>(n * (n + 1) / 2) * static_cast<double>(it + 1);
}

Failures checkHalo(const HaloOutcome& o) {
  Failures f;
  if (o.bad_halo_values != 0) {
    f.push_back("halo: " + count(o.bad_halo_values) +
                " received values differ from the sender's pattern");
  }
  if (o.bad_allreduces != 0) {
    f.push_back("halo: " + count(o.bad_allreduces) +
                " allreduce results differ from the expected total");
  }
  if (o.iterations_done != o.iterations_expected) {
    f.push_back("halo: " + count(o.iterations_done) + " of " +
                count(o.iterations_expected) + " rank iterations completed");
  }
  return f;
}

Failures reconcileWindows(const std::vector<ovp::trace::RankWindows>& per_rank,
                          const std::vector<ovp::overlap::Report>& reports) {
  Failures f;
  if (per_rank.size() != reports.size()) {
    f.push_back(
        "windows: " + count(static_cast<std::int64_t>(per_rank.size())) +
        " ranks analysed, " +
        count(static_cast<std::int64_t>(reports.size())) + " reports");
    return f;
  }
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const ovp::overlap::OverlapAccum& w = per_rank[r].total;
    const ovp::overlap::OverlapAccum& rep = reports[r].whole.total;
    if (per_rank[r].dropped != 0 || w.transfers != rep.transfers ||
        w.bytes != rep.bytes ||
        w.data_transfer_time != rep.data_transfer_time ||
        w.min_overlapped != rep.min_overlapped ||
        w.max_overlapped != rep.max_overlapped) {
      f.push_back("windows: rank " + count(static_cast<std::int64_t>(r)) +
                  " does not reconcile with its report");
    }
  }
  return f;
}

Failures checkNas(const NasOutcome& o) {
  Failures f;
  const std::string k = o.kernel + ": ";
  if (!o.verified) f.push_back(k + "kernel did not verify");
  if (o.dropped != 0) {
    f.push_back(k + count(o.dropped) + " trace records dropped");
  }
  for (const std::string& r : o.reconciliation) f.push_back(k + r);
  if (!o.lint_clean) f.push_back(k + "lint is not clean");
  if (!o.verifier_clean) f.push_back(k + "verifier is not clean");
  if (!o.reports_saved) f.push_back(k + "reports could not be saved");
  if (o.merged_reloaded != o.merged_in_memory) {
    f.push_back(k + "reloaded merged report differs from the in-memory one");
  }
  if (!o.csv_read_error.empty()) {
    f.push_back(k + "csv read-back failed: " + o.csv_read_error);
  }
  if (o.csv_records != o.records) {
    f.push_back(k + "csv read-back has " + count(o.csv_records) +
                " records, trace has " + count(o.records));
  }
  return f;
}

Failures checkCampaign(const CampaignOutcome& o) {
  Failures f;
  if (o.jobs != o.jobs_submitted || o.records_written != o.jobs_submitted) {
    f.push_back("campaign: " + count(o.jobs) + " jobs run and " +
                count(o.records_written) + " records written for " +
                count(o.jobs_submitted) + " jobs submitted");
  }
  if (!o.reloaded) f.push_back("campaign: aggregate stream does not parse");
  if (o.records_reloaded != o.records_written) {
    f.push_back("campaign: " + count(o.records_reloaded) +
                " records read back, " + count(o.records_written) +
                " written");
  }
  return f;
}

std::string count(std::int64_t v) { return std::to_string(v); }

std::string exactReal(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

Failures compareModelled(const Modelled& ref, const Modelled& got) {
  Failures f;
  for (const auto& [name, value] : ref) {
    const auto it = got.find(name);
    if (it == got.end()) {
      f.push_back("determinism: " + name + " missing");
    } else if (it->second != value) {
      f.push_back("determinism: " + name + " is " + it->second +
                  ", reference " + value);
    }
  }
  for (const auto& [name, value] : got) {
    if (ref.find(name) == ref.end()) {
      f.push_back("determinism: " + name + " is new");
    }
  }
  return f;
}

}  // namespace ovbench
