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
// Usage:
//   ovprof_check SKELETON [SKELETON2 ...]
//                [--class=S|A|B] [--procs=SPEC] [--iterations=N]
//                [--variant=mpi|armci|armci-nb] [--ns-per-flop=X]
//                [--match=0] [--deadlock=0] [--overlap=0] [--eager=BYTES]
//                [--xfer-table=FILE] [--conform=TRACE.csv]
//                [--write-skeleton=FILE] [--ovprof-check-json=FILE]
//                [--symbolic] [--emit-costs=FILE]
//
// SKELETON is `nas:KERNEL` with KERNEL in {bt,cg,ep,ft,is,lu,mg,sp}, or the
// path of a skeleton file previously written with --write-skeleton.
// --procs=SPEC is a single count ("8"), a comma list ("2,4,6"), a range
// ("8-64" = every count), or a pow2 range ("8-64:pow2"); multi-count specs
// sweep the check and diff the findings.
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
#include "util/flags.hpp"

using namespace ovp;

namespace {

void printUsage() {
  std::printf(
      "usage: ovprof_check SKELETON [SKELETON2 ...]\n"
      "                    [--class=S|A|B] [--procs=SPEC] [--iterations=N]\n"
      "                    [--variant=mpi|armci|armci-nb] [--ns-per-flop=X]\n"
      "                    [--match=0] [--deadlock=0] [--overlap=0]\n"
      "                    [--eager=BYTES] [--xfer-table=FILE]\n"
      "                    [--conform=TRACE.csv] [--write-skeleton=FILE]\n"
      "                    [--ovprof-check-json=FILE]\n"
      "                    [--symbolic] [--emit-costs=FILE]\n"
      "\n"
      "SKELETON is nas:KERNEL (kernel in {bt,cg,ep,ft,is,lu,mg,sp};\n"
      "instantiated in-process from the kernel's symbolic template at\n"
      "--class/--procs/--iterations/--variant) or the path of a skeleton\n"
      "file written earlier with --write-skeleton.\n"
      "\n"
      "Statically analyzes the communication skeleton without running the\n"
      "simulator: send/recv matching per (src, dst, tag) channel, blocking-\n"
      "dependency deadlock search, and overlap-window pricing against the\n"
      "a-priori transfer-time table from --xfer-table=FILE.  With\n"
      "--conform=TRACE.csv, additionally verifies that the dynamic trace\n"
      "embeds into the skeleton (every traced edge statically admissible).\n"
      "\n"
      "--procs=SPEC sweeps rank counts: a single count (\"8\"), a comma\n"
      "list (\"2,4,6\"), a dense range (\"8-64\"), or a pow2 range\n"
      "(\"8-64:pow2\").  Multi-count specs check every count and print a\n"
      "findings diff across counts (nas: skeletons only).\n"
      "\n"
      "--symbolic proves matching and deadlock-freedom for ALL admissible\n"
      "rank counts at once from the rank-symbolic template (every kernel;\n"
      "structure outside the proof lemmas is reported unproven and swept\n"
      "for concrete deadlock witnesses).  --emit-costs=FILE exports\n"
      "closed-form per-site cost terms (ovprof-symskel-v1, read by\n"
      "`ovprof_model costs`).\n"
      "\n"
      "Exit code: 0 clean, 1 findings at warning or above (failed proofs\n"
      "included), 2 tool error (unknown kernel, rank count outside the\n"
      "kernel's family, unreadable file, bad flags or --procs spec).\n"
      "framework flags (any ovprof binary):\n%s",
      util::ovprofHelpText());
}

nas::SkeletonParams paramsFromFlags(const util::Flags& flags) {
  nas::SkeletonParams params;
  const std::string cls = flags.getString("class", "S");
  params.cls = cls == "A" ? nas::Class::A
                          : (cls == "B" ? nas::Class::B : nas::Class::S);
  params.iterations =
      static_cast<int>(flags.getInt("iterations", params.iterations));
  params.variant = flags.getString("variant", "");
  params.cost.ns_per_flop =
      flags.getDouble("ns-per-flop", params.cost.ns_per_flop);
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

  const std::string costs_path = flags.getString("emit-costs", "");
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

  const std::string json_path = util::checkJsonPathRequested(flags);
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
  tool::CommandLine cl = tool::parseCommandLine(argc, argv);
  if (!cl.parse_ok) return 2;
  if (cl.want_usage) {
    printUsage();
    return 0;
  }
  const util::Flags& flags = cl.flags;
  const std::vector<std::string>& inputs = cl.positional;

  std::vector<int> sweep;
  {
    std::string error;
    if (!tool::parseProcsSpec(flags.getString("procs", ""), sweep,
                              error)) {
      std::fprintf(stderr, "ovprof_check: --procs: %s\n", error.c_str());
      return 2;
    }
  }

  if (flags.getBool("symbolic", false)) {
    const std::string json_path = util::checkJsonPathRequested(flags);
    const std::string costs_path = flags.getString("emit-costs", "");
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
  cfg.match = flags.getBool("match", true);
  cfg.deadlock = flags.getBool("deadlock", true);
  cfg.overlap = flags.getBool("overlap", true);
  cfg.deadlock_cfg.eager_limit =
      flags.getInt("eager", cfg.deadlock_cfg.eager_limit);
  const std::string table_path = flags.getString("xfer-table", "");
  if (!table_path.empty() && !cfg.table.loadFile(table_path)) {
    std::fprintf(stderr, "ovprof_check: cannot load xfer table %s\n",
                 table_path.c_str());
    return 2;
  }

  // Flags that name a single output or trace pair with a single skeleton.
  const std::string json_path = util::checkJsonPathRequested(flags);
  const std::string conform_path = flags.getString("conform", "");
  const std::string write_path = flags.getString("write-skeleton", "");
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
