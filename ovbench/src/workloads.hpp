// The benchmark's workloads.  A pass builds its inputs, then drives the
// simulation through the public APIs of mpi, nas, trace, analysis, overlap
// and cluster, and checks every output.  Each call into a layer sits in a
// span named "<layer>.<function>".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "span.hpp"

namespace ovbench {

struct PassContext {
  SpanLog& spans;
  /// Seed of the pass's generated inputs.
  std::uint64_t seed = 0;
  /// Directory for the files a pass writes (per-rank report files).
  std::string work_dir;
};

struct PassResult {
  Failures failures;
  Modelled modelled;
  /// Host-side sizes (buffer reservations, export bytes), keyed by name.
  /// They may change with the implementation while every modelled output
  /// stays the same, so the determinism guard never compares them.
  std::map<std::string, double> host;
};

/// A pass whose inputs are built and whose simulation is constructed.
/// Everything up to here is set-up; run() starts the simulation.
class Pass {
 public:
  virtual ~Pass() = default;
  /// Runs the simulation and checks every output.
  virtual PassResult run() = 0;
};

/// Ring halo exchange plus allreduce (the sim_bench body), with every
/// received halo and allreduce result checked.
struct HaloShape {
  int nranks = 16;
  int iters = 400;
  int halo = 1024;
};
[[nodiscard]] std::unique_ptr<Pass> prepareHalo(PassContext& ctx,
                                                const HaloShape& shape,
                                                int workers, bool instrument);

/// nas::runCg class B and nas::runMg class A armci-nb on 16 ranks with
/// verify on.  Traced, each run goes through the analyst pipeline: export,
/// windows and reconciliation, critical path, lint, report save/reload and
/// CSV read-back.  Untraced, only the kernels run.
[[nodiscard]] std::unique_ptr<Pass> prepareNas(PassContext& ctx, bool traced);

/// cluster::synthWorkload(200, ctx.seed, 32) on 8 nodes x 4 ranks, backfill,
/// shared nodes, 2 VCI channels, with solo baselines.
[[nodiscard]] std::unique_ptr<Pass> prepareCampaign(PassContext& ctx);

}  // namespace ovbench
