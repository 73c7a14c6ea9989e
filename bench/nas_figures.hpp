// Shared helpers for the NAS characterization figures (paper Sec. 4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nas/common.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace ovp::bench {

using KernelFn = std::function<nas::NasResult(const nas::NasParams&)>;

/// Parses the flags every NAS figure reads (--iterations, 0 for the class
/// default, and --csv) plus `extra` rows, exiting 2 on a rejected flag and
/// 0 after printing --help (which ends its usage text with `note`); then
/// prints the figure's banner.
[[nodiscard]] util::Flags parseNasFigureFlags(
    int argc, char** argv, const char* figure, const char* description,
    std::vector<util::FlagSpec> extra = {}, const char* note = "");

/// Exits 2 with "`context`: <why>", naming the supported family, unless
/// `kernel` (a nas::nasKernels() name) runs on `nranks` ranks at `cls`.
void requireRankCount(const std::string& context, const std::string& kernel,
                      nas::Class cls, int nranks, int iterations = 0);

/// Runs `kernel` (named `kernel_name`) for every (class, nranks)
/// combination and prints the paper-style characterization rows: aggregate
/// min/max overlap percentages plus the short/long message-size breakdown.
void runCharacterization(const char* figure, const char* description,
                         const char* kernel_name, const KernelFn& kernel,
                         mpi::Preset preset,
                         const std::vector<nas::Class>& classes,
                         const std::vector<int>& rank_counts, int argc,
                         char** argv);

/// Aggregates one size class across ranks.
[[nodiscard]] overlap::OverlapAccum aggregateSizeClass(
    const std::vector<overlap::Report>& reports, std::size_t cls);

}  // namespace ovp::bench
