// Output checks of the benchmark passes.  Each checker returns the reasons
// a pass failed (empty when it passed); a failed check counts against the
// run's fail ratio and never aborts the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "overlap/report.hpp"
#include "trace/timeline.hpp"

namespace ovbench {

using Failures = std::vector<std::string>;

// ---- halo exchange -------------------------------------------------------

/// Value of element i of the halo that rank `src` sends towards direction
/// `dir` (0 = left, 1 = right) in iteration `it`.  Exact in a double for
/// up to 2^11 ranks, 2^20 iterations and 4096 elements.
[[nodiscard]] double haloValue(int src, int it, int dir, int i);
/// Elements of a received halo that differ from what `src` sent.
[[nodiscard]] std::int64_t countHaloErrors(const std::vector<double>& got,
                                           int src, int it, int dir);
/// Rank r contributes (r + 1) * (it + 1) to iteration it's allreduce.
[[nodiscard]] double allreduceContribution(int rank, int it);
[[nodiscard]] double allreduceExpected(int nranks, int it);

struct HaloOutcome {
  std::int64_t bad_halo_values = 0;
  std::int64_t bad_allreduces = 0;
  std::int64_t iterations_done = 0;  // summed over ranks
  std::int64_t iterations_expected = 0;
};
[[nodiscard]] Failures checkHalo(const HaloOutcome& o);

// ---- analyst pipeline on a traced NAS kernel -----------------------------

/// Every rank's window columns must sum to its report's whole-run numbers
/// exactly (the reconciliation nas_run prints as "exact").
[[nodiscard]] Failures reconcileWindows(
    const std::vector<ovp::trace::RankWindows>& per_rank,
    const std::vector<ovp::overlap::Report>& reports);

struct NasOutcome {
  std::string kernel;
  bool verified = false;
  std::int64_t records = 0;
  std::int64_t dropped = 0;
  Failures reconciliation;
  bool lint_clean = false;
  bool verifier_clean = false;
  bool reports_saved = false;
  std::string merged_in_memory;  // overlap::Report::save() text
  std::string merged_reloaded;
  std::string csv_read_error;
  std::int64_t csv_records = 0;
};
[[nodiscard]] Failures checkNas(const NasOutcome& o);

// ---- multi-job campaign --------------------------------------------------

struct CampaignOutcome {
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs = 0;
  std::int64_t records_written = 0;
  bool reloaded = false;
  std::int64_t records_reloaded = 0;
};
[[nodiscard]] Failures checkCampaign(const CampaignOutcome& o);

// ---- determinism guard ---------------------------------------------------

/// Modelled outputs of a pass (counts, virtual times, digests) as exact
/// text, keyed by name.  They depend only on the inputs, never on the host.
using Modelled = std::map<std::string, std::string>;

[[nodiscard]] std::string count(std::int64_t v);
[[nodiscard]] std::string exactReal(double v);
/// 64-bit FNV-1a digest of a byte stream, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

/// Names whose values differ between `ref` and `got`, or that only one has.
[[nodiscard]] Failures compareModelled(const Modelled& ref,
                                       const Modelled& got);

}  // namespace ovbench
