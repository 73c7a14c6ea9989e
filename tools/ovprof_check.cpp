// ovprof_check: static communication-skeleton analyzer.
//
// Analyzes a declarative communication skeleton — either built in-process
// from a NAS kernel reproduction (`nas:KERNEL`) or loaded from a .skel file
// — entirely without running the simulator:
//
//   * matching — pairs sends with receives per (src, dst, tag) channel and
//     reports unmatched halves, near-miss tag/size mismatches, and
//     wildcard-receive nondeterminism;
//   * deadlock — searches the blocking-dependency graph (rendezvous sends,
//     blocking receives, waits, barriers) for cycles;
//   * overlap windows — prices every post->wait window against an a-priori
//     transfer-time table and flags serialized or short windows.
//
// With --conform=TRACE.csv it additionally verifies that a dynamic trace
// (written by a live run via --ovprof-trace=FILE, as FILE.csv) embeds into
// the skeleton: every traced match/put/get edge must be admissible in the
// skeleton's static relation.  This is the gate that keeps the kernels'
// symbolic templates (src/nas/symbolic.cpp, instantiated at the requested
// rank count) honest against the kernels they model.
//
// Two rank-count-parametric modes sit on top:
//
//   * --procs accepts a sweep spec ("2,4,8-64:pow2"): each nas: skeleton is
//     checked at every count and the findings are diffed across counts, so
//     rank-count-dependent bugs (a tag collision that only appears at
//     non-power-of-two P, say) surface in one run;
//   * --symbolic switches to the rank-symbolic prover (src/skeleton/
//     symbolic): matching and deadlock-freedom are proven for ALL
//     admissible rank counts at once, and closed-form per-site cost terms
//     can be exported for ovprof_model (--emit-costs).
//
// SKELETON is `nas:KERNEL` with KERNEL in {bt,cg,ep,ft,is,lu,mg,sp}, or the
// path of a skeleton file previously written with --write-skeleton.
//
// Exit code: 0 when every skeleton is clean (Notes allowed), 1 when any has
// findings at Warning or above (including a failed symbolic proof), 2 on
// tool errors (unknown kernel, rank count outside the kernel's family,
// unreadable file, bad flags, bad --procs spec).  Output is deterministic: the same
// inputs always produce the same findings in the same order.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "nas/symbolic.hpp"
#include "overlap/xfer_table.hpp"
#include "skeleton/check.hpp"
#include "skeleton/serialize.hpp"
#include "skeleton/symbolic/cost.hpp"
#include "skeleton/symbolic/verify.hpp"
#include "tool_main.hpp"
#include "trace/reader.hpp"

using namespace ovp;

namespace {

util::Flags checkFlags() {
  return util::Flags(
      "usage: ovprof_check SKELETON [SKELETON2 ...] [flags]\n"
      "Statically checks communication skeletons without running the\n"
      "simulator: send/recv matching, deadlock search and overlap-window\n"
      "pricing.  SKELETON is nas:KERNEL (bt|cg|ep|ft|is|lu|mg|sp, built\n"
      "from its symbolic template) or a file written by --write-skeleton.\n"
      "Exit code: 0 clean, 1 findings at warning or above (failed proofs\n"
      "included), 2 tool error.\n",
      {// class lists its choices in nas::Class order (getChoice).
       util::enumFlag("class", "S|A|B", "S", "problem class"),
       util::stringFlag("procs", "SPEC",
                        "rank count: 8, a list 2,4,6, a range 8-64 or "
                        "8-64:pow2; several counts sweep nas: skeletons and "
                        "diff the findings"),
       util::intFlag("iterations", "0",
                     "outer iterations, 0 for the class default", 0, 1000000),
       util::enumFlag("variant", "mpi|armci|armci-nb", "",
                      "MG only: communication variant (default armci-nb)"),
       util::doubleFlag("ns-per-flop", "0.5",
                        "compute pricing for the overlap-window analysis"),
       util::boolFlag("match", "run the matching pass", "true"),
       util::boolFlag("deadlock", "run the deadlock search", "true"),
       util::boolFlag("overlap", "run the overlap-window pass", "true"),
       util::intFlag("eager", "16384",
                     "eager limit in bytes for the deadlock search", 0),
       util::stringFlag("xfer-table", "FILE",
                        "a-priori transfer-time table (default: analytic)"),
       util::stringFlag("conform", "TRACE.csv",
                        "also check that this trace embeds into the skeleton"),
       util::stringFlag("write-skeleton", "FILE",
                        "save the instantiated skeleton to FILE"),
       util::boolFlag("symbolic",
                      "prove the rank-symbolic template for every rank count"),
       util::stringFlag("emit-costs", "FILE",
                        "with --symbolic, export closed-form cost terms (- "
                        "for stdout)"),
       util::frameworkFlag("ovprof-check-json")});
}

nas::SkeletonParams paramsFromFlags(const util::Flags& flags) {
  nas::SkeletonParams params;
  params.cls = static_cast<nas::Class>(flags.getChoice("class"));
  params.iterations = static_cast<int>(flags.getInt("iterations"));
  params.variant = flags.getString("variant");
  params.cost.ns_per_flop = flags.getDouble("ns-per-flop");
  return params;
}

/// Resolves one SKELETON argument into a skeleton, or returns false after
/// printing the reason.
bool resolveSkeleton(const std::string& input, const util::Flags& flags,
                     int nranks, skel::Skeleton& out, std::string* error) {
  if (input.rfind("nas:", 0) == 0) {
    nas::SkeletonParams params = paramsFromFlags(flags);
    if (nranks > 0) params.nranks = nranks;
    nas::SkeletonBuildResult built =
        nas::buildNasSkeleton(input.substr(4), params);
    if (!built.ok()) {
      if (error != nullptr) {
        *error = built.error;
      } else {
        std::fprintf(stderr, "ovprof_check: %s: %s\n", input.c_str(),
                     built.error.c_str());
      }
      return false;
    }
    out = std::move(built.skeleton);
    return true;
  }
  skel::ParseResult parsed = skel::loadSkeletonFile(input);
  if (!parsed.ok()) {
    if (error != nullptr) {
      *error = parsed.error;
    } else {
      std::fprintf(stderr, "ovprof_check: %s: %s\n", input.c_str(),
                   parsed.error.c_str());
    }
    return false;
  }
  out = std::move(parsed.skeleton);
  return true;
}

/// The --symbolic path for one nas: input.  Returns the process exit code
/// contribution (0/1), or 2 on tool errors.
int runSymbolic(const std::string& input, const util::Flags& flags) {
  if (input.rfind("nas:", 0) != 0) {
    std::fprintf(stderr,
                 "ovprof_check: --symbolic needs nas:KERNEL inputs "
                 "(got %s)\n",
                 input.c_str());
    return 2;
  }
  const std::string kernel = input.substr(4);
  const nas::SkeletonParams params = paramsFromFlags(flags);
  nas::SymSkeletonBuildResult sym = nas::buildNasSymSkeleton(kernel, params);
  if (!sym.ok()) {
    std::fprintf(stderr, "ovprof_check: %s: %s\n", input.c_str(),
                 sym.error.c_str());
    return 2;
  }

  const skel::sym::SymVerifyResult verified =
      skel::sym::verifySymbolic(sym.skeleton);
  std::printf("symbolic skeleton %s (%lld nodes)\n",
              sym.skeleton.name.c_str(),
              static_cast<long long>(sym.skeleton.totalNodes()));
  skel::sym::printSymVerifyText(verified, std::cout);

  const std::string costs_path = flags.getString("emit-costs");
  if (!costs_path.empty()) {
    const skel::sym::SymCostReport costs =
        skel::sym::extractCosts(sym.skeleton);
    const std::string text = skel::sym::costsToString(costs);
    if (costs_path == "-") {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::ofstream os(costs_path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "ovprof_check: failed to write %s\n",
                     costs_path.c_str());
        return 2;
      }
      os << text;
      std::printf("cost terms: %zu site(s) -> %s\n", costs.sites.size(),
                  costs_path.c_str());
    }
  }

  const std::string json_path = flags.getString("ovprof-check-json");
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ovprof_check: failed to write %s\n",
                   json_path.c_str());
      return 2;
    }
    analysis::writeDiagnosticsJson(verified.diagnostics, os);
  }
  return analysis::exitCode(verified.diagnostics);
}

/// Dedup key for the sweep diff: rank counts vary, so findings collapse on
/// (code, site) and the diff reports which counts exhibit each key.
std::string sweepKey(const analysis::Diagnostic& d) {
  std::string key = analysis::severityName(d.severity);
  key += "[";
  key += analysis::diagCodeName(d.code);
  key += "]";
  if (!d.site.empty()) {
    key += " at ";
    key += d.site;
  }
  return key;
}

/// Checks one nas: input at every count in `sweep`, printing a per-count
/// summary and a findings diff.  Returns 0/1 (2 on tool errors).
int runSweep(const std::string& input, const util::Flags& flags,
             const skel::CheckConfig& cfg, const std::vector<int>& sweep) {
  if (input.rfind("nas:", 0) != 0) {
    std::fprintf(stderr,
                 "ovprof_check: a multi-count --procs sweep needs "
                 "nas:KERNEL inputs (got %s)\n",
                 input.c_str());
    return 2;
  }
  int exit_code = 0;
  std::vector<int> checked;
  // key -> per-count finding multiplicity, insertion-ordered.
  std::vector<std::string> key_order;
  std::map<std::string, std::map<int, std::int64_t>> by_key;
  for (const int nprocs : sweep) {
    skel::Skeleton skeleton;
    std::string error;
    if (!resolveSkeleton(input, flags, nprocs, skeleton, &error)) {
      std::printf("== %s @ P=%d == skipped: %s\n", input.c_str(), nprocs,
                  error.c_str());
      continue;
    }
    checked.push_back(nprocs);
    const skel::CheckResult result = skel::runCheck(skeleton, cfg);
    std::int64_t errors = 0;
    std::int64_t warnings = 0;
    std::int64_t notes = 0;
    for (const auto& d : result.diagnostics) {
      switch (d.severity) {
        case analysis::Severity::Error: errors += d.count; break;
        case analysis::Severity::Warning: warnings += d.count; break;
        case analysis::Severity::Note: notes += d.count; break;
      }
      const std::string key = sweepKey(d);
      if (by_key.find(key) == by_key.end()) key_order.push_back(key);
      by_key[key][nprocs] += d.count;
    }
    std::printf("== %s @ P=%d == %lld error(s), %lld warning(s), "
                "%lld note(s)\n",
                input.c_str(), nprocs, static_cast<long long>(errors),
                static_cast<long long>(warnings),
                static_cast<long long>(notes));
    exit_code = std::max(exit_code, result.exitCode());
  }
  if (checked.empty()) {
    std::fprintf(stderr,
                 "ovprof_check: %s: no count in the --procs spec was "
                 "buildable\n",
                 input.c_str());
    return 2;
  }
  std::printf("-- findings across %zu count(s) --\n", checked.size());
  if (key_order.empty()) {
    std::printf("(none)\n");
    return exit_code;
  }
  for (const std::string& key : key_order) {
    const auto& per_count = by_key[key];
    std::printf("%s:", key.c_str());
    for (const int p : checked) {
      const auto it = per_count.find(p);
      if (it != per_count.end()) {
        std::printf(" P=%d(x%lld)", p, static_cast<long long>(it->second));
      }
    }
    if (per_count.size() != checked.size()) {
      std::printf("  [absent at");
      for (const int p : checked) {
        if (per_count.find(p) == per_count.end()) std::printf(" P=%d", p);
      }
      std::printf("]");
    }
    std::printf("\n");
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments are the skeletons (nas:KERNEL or file paths).
  const tool::CommandLine cl = tool::parseCommandLine(argc, argv, checkFlags());
  const util::Flags& flags = cl.flags;
  const std::vector<std::string>& inputs = cl.positional;

  std::vector<int> sweep;
  {
    std::string error;
    if (!tool::parseProcsSpec(flags.getString("procs"), sweep, error)) {
      std::fprintf(stderr, "ovprof_check: --procs: %s\n", error.c_str());
      return 2;
    }
  }

  if (flags.getBool("symbolic")) {
    const std::string json_path = flags.getString("ovprof-check-json");
    const std::string costs_path = flags.getString("emit-costs");
    if (inputs.size() > 1 && (!json_path.empty() || !costs_path.empty())) {
      std::fprintf(stderr,
                   "ovprof_check: --emit-costs/--ovprof-check-json accept "
                   "exactly one SKELETON\n");
      return 2;
    }
    int exit_code = 0;
    for (const std::string& input : inputs) {
      if (inputs.size() > 1) std::printf("== %s ==\n", input.c_str());
      const int rc = runSymbolic(input, flags);
      if (rc == 2) return 2;
      exit_code = std::max(exit_code, rc);
    }
    return exit_code;
  }

  skel::CheckConfig cfg;
  cfg.match = flags.getBool("match");
  cfg.deadlock = flags.getBool("deadlock");
  cfg.overlap = flags.getBool("overlap");
  cfg.deadlock_cfg.eager_limit = flags.getInt("eager");
  const std::string table_path = flags.getString("xfer-table");
  if (!table_path.empty() && !cfg.table.loadFile(table_path)) {
    std::fprintf(stderr, "ovprof_check: cannot load xfer table %s\n",
                 table_path.c_str());
    return 2;
  }

  // Flags that name a single output or trace pair with a single skeleton.
  const std::string json_path = flags.getString("ovprof-check-json");
  const std::string conform_path = flags.getString("conform");
  const std::string write_path = flags.getString("write-skeleton");
  if (inputs.size() > 1 &&
      (!json_path.empty() || !conform_path.empty() || !write_path.empty())) {
    std::fprintf(stderr,
                 "ovprof_check: --conform/--write-skeleton/"
                 "--ovprof-check-json accept exactly one SKELETON\n");
    return 2;
  }

  if (sweep.size() > 1) {
    if (!json_path.empty() || !conform_path.empty() || !write_path.empty()) {
      std::fprintf(stderr,
                   "ovprof_check: --conform/--write-skeleton/"
                   "--ovprof-check-json need a single --procs count\n");
      return 2;
    }
    int exit_code = 0;
    for (const std::string& input : inputs) {
      const int rc = runSweep(input, flags, cfg, sweep);
      if (rc == 2) return 2;
      exit_code = std::max(exit_code, rc);
    }
    return exit_code;
  }

  trace::ReadResult loaded;
  if (!conform_path.empty()) {
    loaded = trace::readCsvFile(conform_path);
    if (!loaded.collector) {
      std::fprintf(stderr, "ovprof_check: %s: %s\n", conform_path.c_str(),
                   loaded.error.c_str());
      return 2;
    }
  }

  const int nranks = sweep.empty() ? 0 : sweep.front();
  int exit_code = 0;
  for (const std::string& input : inputs) {
    skel::Skeleton skeleton;
    if (!resolveSkeleton(input, flags, nranks, skeleton, nullptr)) return 2;
    if (!write_path.empty() &&
        !skel::saveSkeletonFile(skeleton, write_path)) {
      std::fprintf(stderr, "ovprof_check: failed to write %s\n",
                   write_path.c_str());
      return 2;
    }
    const skel::CheckResult result =
        loaded.collector ? skel::runCheckConform(skeleton, cfg,
                                                 *loaded.collector)
                         : skel::runCheck(skeleton, cfg);
    if (inputs.size() > 1) std::printf("== %s ==\n", input.c_str());
    skel::printCheckText(result, std::cout);
    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "ovprof_check: failed to write %s\n",
                     json_path.c_str());
        return 2;
      }
      analysis::writeDiagnosticsJson(result.diagnostics, os);
    }
    exit_code = std::max(exit_code, result.exitCode());
  }
  return exit_code;
}
