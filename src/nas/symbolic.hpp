// Communication skeletons of the NAS kernel reproductions.
//
// Each builder emits ONE skel::sym::SymSkeleton template describing the
// exact op sequence its kernel executes — same peers, same tags, same
// byte counts, same collective decompositions — for every rank at every
// admissible job size P, without running the simulator.  That template is
// the only static description of the kernel's communication:
//
//   * buildNasSkeleton lowers it to the unrolled skel::Skeleton at one P
//     (skel::sym::instantiate), which ovprof_check analyzes (matching,
//     deadlock, overlap windows) and live traces are conformance-checked
//     against;
//   * ovprof_check --symbolic proves per-(src,dst,tag) matching and
//     deadlock-freedom for the whole rank-count family in one run and
//     extracts closed-form per-site cost terms for the model layer;
//   * the family guard is the set of rank counts the kernel supports
//     (rankCountError; every NAS driver rejects the rest up front).
//
// The per-kernel conformance ctests (a traced run embedded into the
// instantiated skeleton's match relation) keep the templates honest
// against the live kernels; iteration counts need not agree with a
// particular run, but peers/tags/bytes must.  IS's data-dependent
// alltoallv keeps kAnyBytes wildcard terms.
#pragma once

#include <string>
#include <vector>

#include "nas/common.hpp"
#include "skeleton/ir.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::nas {

/// Parameters mirroring the subset of NasParams that shapes communication.
struct SkeletonParams {
  /// Job size for buildNasSkeleton (the template covers every P).
  int nranks = 4;
  Class cls = Class::S;
  /// Outer iteration override (0 = class default), like NasParams.
  int iterations = 0;
  /// MG only: "mpi", "armci", or "armci-nb" (default, like MgParams).
  std::string variant;
  /// Flop pricing for the compute ops (overlap-window analysis input).
  CostModel cost;
};

struct SymSkeletonBuildResult {
  skel::sym::SymSkeleton skeleton;
  /// Non-empty on failure (unknown kernel, bad variant).
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Builds the symbolic template for `kernel` (one of nasKernels());
/// `params.nranks` is ignored.
[[nodiscard]] SymSkeletonBuildResult buildNasSymSkeleton(
    const std::string& kernel, const SkeletonParams& params);

struct SkeletonBuildResult {
  skel::Skeleton skeleton;
  /// Non-empty on failure (unknown kernel, P outside the family...).
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// instantiate(buildNasSymSkeleton(kernel, params), params.nranks).
[[nodiscard]] SkeletonBuildResult buildNasSkeleton(
    const std::string& kernel, const SkeletonParams& params);

/// Empty when `kernel` (at class `cls`, `iterations` and, for MG,
/// `variant`) runs on `nranks` ranks; otherwise why not, naming the rank
/// counts its template family supports.
[[nodiscard]] std::string rankCountError(const std::string& kernel, Class cls,
                                         int nranks, int iterations = 0,
                                         const std::string& variant = "");

/// The kernel names both builders accept, in golden-file order.
[[nodiscard]] const std::vector<std::string>& nasKernels();

}  // namespace ovp::nas
