// Generic NAS kernel runner: run any kernel at any configuration and dump
// the per-process overlap reports — the day-to-day driver a performance
// analyst would use.
//
// --procs must be a rank count the kernel's decomposition supports (the
// family of its communication template, src/nas/symbolic.cpp); any other
// count exits 2 with the supported family.  The flags themselves, with
// their defaults and ranges, are the table in main(); --help prints it.
//
// --ovprof-verify (or OVPROF_VERIFY=1) attaches the analysis layer: a
// StreamVerifier on every rank's event stream plus the library UsageChecker.
// Findings are printed to stderr and make the run exit non-zero.
//
// --ovprof-fault=SPEC (or OVPROF_FAULT=SPEC) runs the kernel on a lossy
// fabric with the NIC reliability protocol enabled, e.g.
// --ovprof-fault=drop=0.05,jitter=2000,seed=7 (a bare number means
// drop=<number>).  The run must still verify; fault counters are printed
// and attached to the reports.
//
// --ovprof-trace=FILE (or OVPROF_TRACE=FILE) records every instrumentation,
// matching, and NIC event into per-rank trace rings and writes a Chrome
// trace-event JSON to FILE (load it in Perfetto) plus a lossless CSV to
// FILE.csv; a time-resolved overlap table and the cross-rank critical path
// are printed.  Tracing costs virtual time (it is charged per record, like
// the monitor's own overhead), so traced and untraced timings differ — by
// design, not by accident.
//
// --ovprof-lint (or OVPROF_LINT=1) runs the offline cross-rank lint over the
// collected trace in-process after the run: RMA race detection, wait-for
// deadlock/stall analysis, and the overlap advisor.  Implies trace
// collection (no file is written unless --ovprof-trace is also given).
// --ovprof-lint-json=FILE additionally writes the findings as JSON.
//
// --ovprof-model=FILE (or OVPROF_MODEL=FILE) saves a model sample — the
// merged job report plus sweep metadata — for ovprof_model's multi-run
// fitting.  --ovprof-model-param=X overrides the recorded sweep parameter
// (default: mean bytes per transfer).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/lint.hpp"

#include "model/sample.hpp"
#include "nas/bt.hpp"
#include "net/fault.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/sp.hpp"
#include "nas/symbolic.hpp"
#include "overlap/report_io.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/timeline.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  util::Flags flags(
      "usage: nas_run [flags]\n"
      "Runs one NAS kernel on the simulated cluster and prints its overlap\n"
      "bounds, optionally with tracing, lint, faults and a model sample.\n",
      {
          // class, preset and variant list their choices in the order of
          // the C++ enum getChoice() indexes.
          util::enumFlag("kernel", "cg|bt|lu|ft|sp|mg|ep|is", "cg",
                         "NAS kernel"),
          util::enumFlag("class", "S|A|B", "S", "problem class"),
          util::intFlag("procs", "4",
                        "rank count, in the kernel's template family", 1,
                        65536),
          util::enumFlag("preset", "pipelined|leavepinned|mvapich2|mv2write",
                         "mvapich2", "MPI library preset"),
          util::boolFlag("modified", "SP only: run the Iprobe-modified solve"),
          util::enumFlag("variant", "mpi|armci|armci-nb", "",
                         "MG only: communication variant (default armci-nb)"),
          util::intFlag("iterations", "0",
                        "outer iterations, 0 for the class default", 0,
                        1000000),
          util::stringFlag("reports", "PREFIX",
                           "write the per-rank reports to PREFIX.rank*.ovp"),
          util::frameworkFlag("ovprof-verify"),
          util::frameworkFlag("ovprof-fault"),
          util::frameworkFlag("ovprof-trace"),
          util::frameworkFlag("ovprof-trace-capacity"),
          util::frameworkFlag("ovprof-trace-window"),
          util::frameworkFlag("ovprof-lint"),
          util::frameworkFlag("ovprof-lint-json"),
          util::frameworkFlag("ovprof-model"),
          util::frameworkFlag("ovprof-model-param"),
          util::frameworkFlag("ovprof-vci"),
          util::frameworkFlag("ovprof-vci-rails"),
          util::frameworkFlag("ovprof-workers"),
      });
  flags.parse(argc, argv);

  nas::SpParams params;  // superset of NasParams (modified/stages unused
                         // outside SP)
  params.cls = static_cast<nas::Class>(flags.getChoice("class"));
  params.nranks = static_cast<int>(flags.getInt("procs"));
  params.iterations = static_cast<int>(flags.getInt("iterations"));
  params.modified = flags.getBool("modified");
  params.verify = flags.getBool("ovprof-verify");
  params.workers = static_cast<int>(flags.getInt("ovprof-workers"));
  const std::string fault_spec = flags.getString("ovprof-fault");
  if (!fault_spec.empty()) {
    if (!net::FaultModel::parse(fault_spec, params.fabric.fault)) {
      std::fprintf(stderr, "bad --ovprof-fault spec: %s\n", fault_spec.c_str());
      return 2;
    }
    std::printf("fault model: %s\n", params.fabric.fault.describe().c_str());
  }
  const std::string vci_spec = flags.getString("ovprof-vci");
  if (!vci_spec.empty()) {
    if (!net::VciParams::parse(vci_spec, params.fabric.vci)) {
      std::fprintf(stderr, "bad --ovprof-vci spec: %s\n", vci_spec.c_str());
      return 2;
    }
  }
  params.fabric.vci.rails =
      static_cast<int>(flags.getInt("ovprof-vci-rails"));
  const std::string trace_path = flags.getString("ovprof-trace");
  const DurationNs trace_window = flags.getInt("ovprof-trace-window");
  const bool lint = flags.getBool("ovprof-lint");
  const std::string lint_json = flags.getString("ovprof-lint-json");
  params.trace.ring_capacity =
      static_cast<std::size_t>(flags.getInt("ovprof-trace-capacity"));
  params.trace.enabled = !trace_path.empty() || lint;
  params.preset = static_cast<mpi::Preset>(flags.getChoice("preset"));

  const std::string kernel = flags.getString("kernel");
  // The kernel's communication template names the rank counts it supports;
  // reject the rest before building the machine.
  const std::string why =
      nas::rankCountError(kernel, params.cls, params.nranks, params.iterations,
                          flags.getString("variant"));
  if (!why.empty()) {
    std::fprintf(stderr, "nas_run: --procs=%d: %s\n", params.nranks,
                 why.c_str());
    return 2;
  }
  nas::NasResult result;
  if (kernel == "cg") {
    result = nas::runCg(params);
  } else if (kernel == "bt") {
    result = nas::runBt(params);
  } else if (kernel == "lu") {
    result = nas::runLu(params);
  } else if (kernel == "ft") {
    result = nas::runFt(params);
  } else if (kernel == "sp") {
    result = nas::runSp(params);
  } else if (kernel == "ep") {
    result = nas::runEp(params);
  } else if (kernel == "is") {
    result = nas::runIs(params);
  } else {
    nas::MgParams mg;
    static_cast<nas::NasParams&>(mg) = params;
    if (flags.has("variant")) {
      mg.variant = static_cast<nas::MgVariant>(flags.getChoice("variant"));
    }
    result = nas::runMg(mg);
  }

  std::printf("%s class %s on %d processes (%s)\n", kernel.c_str(),
              nas::className(params.cls), params.nranks,
              mpi::presetName(params.preset));
  std::printf("verified:   %s\n", result.verified ? "yes" : "NO");
  std::printf("checksum:   %.12g\n", result.checksum);
  std::printf("run time:   %.3f ms (virtual)\n", toMsec(result.time));
  std::printf("MPI time:   %.3f ms per rank (mean)\n",
              toMsec(result.mpiTime()));
  const auto whole = nas::aggregateWhole(result.reports);
  std::printf("overlap:    [%.1f%%, %.1f%%] of %.3f ms data transfer "
              "(%lld transfers)\n",
              whole.minPct(), whole.maxPct(),
              toMsec(whole.data_transfer_time),
              static_cast<long long>(whole.transfers));
  std::printf("non-overlapped lower bound: %.3f ms\n",
              toMsec(whole.minNonOverlapped()));
  const overlap::FaultStats faults = nas::aggregateFaults(result.reports);
  if (faults.any()) {
    std::printf("faults:     attempts=%lld drops=%lld retransmissions=%lld "
                "timeouts=%lld dup_discards=%lld retry_exhausted=%lld\n",
                static_cast<long long>(faults.attempts),
                static_cast<long long>(faults.drops),
                static_cast<long long>(faults.retransmissions),
                static_cast<long long>(faults.timeouts),
                static_cast<long long>(faults.dup_discards),
                static_cast<long long>(faults.retry_exhausted));
  }

  if (result.trace && !trace_path.empty()) {
    const trace::Collector& tc = *result.trace;
    if (!trace::writeChromeJsonFile(tc, trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    const std::string csv_path = trace_path + ".csv";
    if (!trace::writeCsvFile(tc, csv_path)) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("trace:      %lld records -> %s (Perfetto) and %s\n",
                static_cast<long long>(tc.recordedTotal()), trace_path.c_str(),
                csv_path.c_str());
    if (tc.droppedTotal() > 0) {
      std::fprintf(stderr,
                   "warning: trace ring overflowed, %lld records dropped; "
                   "rerun with a larger --ovprof-trace-capacity\n",
                   static_cast<long long>(tc.droppedTotal()));
    }

    const auto per_rank = trace::analyzeAllWindows(tc, trace_window);
    const auto merged = trace::sumWindows(per_rank);
    // Keep the table readable: coarsen by merging adjacent windows when the
    // run spans more than ~32 of them.
    const std::size_t group =
        merged.empty() ? 1 : (merged.size() + 31) / 32;
    util::TextTable table({"window", "t [ms]", "comm [ms]", "comp [ms]",
                           "xfers", "xfer time [ms]", "min ovl %",
                           "max ovl %"});
    for (std::size_t w = 0; w < merged.size(); w += group) {
      trace::WindowStats ws;
      std::size_t hi = std::min(merged.size(), w + group);
      for (std::size_t i = w; i < hi; ++i) {
        const trace::WindowStats& m = merged[i];
        ws.comm_time += m.comm_time;
        ws.comp_time += m.comp_time;
        ws.transfers += m.transfers;
        ws.bytes += m.bytes;
        ws.data_transfer_time += m.data_transfer_time;
        ws.min_overlap += m.min_overlap;
        ws.max_overlap += m.max_overlap;
      }
      const double xt = static_cast<double>(ws.data_transfer_time);
      table.addRow(
          {std::to_string(w) + (group > 1 ? "-" + std::to_string(hi - 1) : ""),
           util::TextTable::num(toMsec(static_cast<TimeNs>(w) * trace_window),
                                3),
           util::TextTable::num(toMsec(ws.comm_time), 3),
           util::TextTable::num(toMsec(ws.comp_time), 3),
           util::TextTable::integer(ws.transfers),
           util::TextTable::num(toMsec(ws.data_transfer_time), 3),
           util::TextTable::num(
               xt > 0 ? 100.0 * static_cast<double>(ws.min_overlap) / xt : 0.0,
               1),
           util::TextTable::num(
               xt > 0 ? 100.0 * static_cast<double>(ws.max_overlap) / xt : 0.0,
               1)});
    }
    std::printf("time-resolved overlap (%.3f ms windows, all ranks):\n",
                toMsec(trace_window));
    table.print(std::cout);

    // Reconciliation: with no drops, each rank's window columns must sum to
    // its summary-report whole-run numbers exactly (same state machine, same
    // table, exact integer attribution).
    bool reconciled = true;
    for (const trace::RankWindows& rw : per_rank) {
      if (rw.dropped > 0) continue;  // undershoots by construction
      const std::size_t r = static_cast<std::size_t>(rw.rank);
      if (r >= result.reports.size()) continue;
      const overlap::OverlapAccum& whole = result.reports[r].whole.total;
      if (rw.total.transfers != whole.transfers ||
          rw.total.bytes != whole.bytes ||
          rw.total.data_transfer_time != whole.data_transfer_time ||
          rw.total.min_overlapped != whole.min_overlapped ||
          rw.total.max_overlapped != whole.max_overlapped) {
        std::fprintf(stderr,
                     "trace reconciliation FAILED on rank %d: windows sum to "
                     "%lld xfers / %lld ns transfer / [%lld, %lld] ns overlap,"
                     " report says %lld / %lld / [%lld, %lld]\n",
                     rw.rank, static_cast<long long>(rw.total.transfers),
                     static_cast<long long>(rw.total.data_transfer_time),
                     static_cast<long long>(rw.total.min_overlapped),
                     static_cast<long long>(rw.total.max_overlapped),
                     static_cast<long long>(whole.transfers),
                     static_cast<long long>(whole.data_transfer_time),
                     static_cast<long long>(whole.min_overlapped),
                     static_cast<long long>(whole.max_overlapped));
        reconciled = false;
      }
    }
    if (!result.reports.empty()) {
      std::printf("trace reconciliation vs reports: %s\n",
                  reconciled ? "exact" : "FAILED");
      if (!reconciled) return 1;
    }

    const auto edges = trace::matchMessages(tc);
    const trace::CriticalPath cp = trace::computeCriticalPath(tc, edges);
    std::printf(
        "message edges: %zu matched (%lld late-sender, %lld late-receiver)\n",
        edges.size(), static_cast<long long>(cp.late_sender_edges),
        static_cast<long long>(cp.late_receiver_edges));
    std::printf("critical path (%zu segments):", cp.segments.size());
    for (std::size_t r = 0; r < cp.rank_share.size(); ++r) {
      if (cp.rank_share[r] == 0) continue;
      std::printf(" rank%zu=%.1f%%", r,
                  cp.end_time > 0
                      ? 100.0 * static_cast<double>(cp.rank_share[r]) /
                            static_cast<double>(cp.end_time)
                      : 0.0);
    }
    std::printf("\n");
  }

  bool lint_failed = false;
  if (lint) {
    if (!result.trace) {
      std::fprintf(stderr, "--ovprof-lint: no trace was collected\n");
      return 2;
    }
    const analysis::LintResult lr = analysis::runLint(*result.trace);
    analysis::printLintText(lr, std::cout);
    if (!lint_json.empty()) {
      std::ofstream os(lint_json, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "failed to write %s\n", lint_json.c_str());
        return 2;
      }
      analysis::writeDiagnosticsJson(lr.diagnostics, os);
      std::printf("lint json:  %s\n", lint_json.c_str());
    }
    lint_failed = !lr.clean();
  }

  const std::string reports = flags.getString("reports");
  if (!reports.empty()) {
    if (!overlap::ReportIo::saveAll(result.reports, reports)) {
      std::fprintf(stderr, "failed to write %s.rank*.ovp\n", reports.c_str());
      return 1;
    }
    std::printf("wrote %zu report files to %s.rank*.ovp\n",
                result.reports.size(), reports.c_str());
  }
  const std::string model_path = flags.getString("ovprof-model");
  if (!model_path.empty()) {
    const model::RunSample sample = model::RunSample::fromReports(
        result.reports, kernel, flags.getString("class"),
        mpi::presetName(params.preset), flags.getString("variant"),
        params.nranks, params.iterations,
        flags.getDouble("ovprof-model-param"));
    if (!sample.saveFile(model_path)) {
      std::fprintf(stderr, "failed to write %s\n", model_path.c_str());
      return 1;
    }
    std::printf("model sample: %s=%.6g -> %s\n", sample.param_name.c_str(),
                sample.param, model_path.c_str());
  }
  if (params.verify) {
    std::printf("verifier:   %zu diagnostic(s), %s\n",
                result.diagnostics.size(),
                analysis::clean(result.diagnostics) ? "clean" : "NOT CLEAN");
    if (!analysis::clean(result.diagnostics)) return 1;
  }
  if (lint_failed) return 1;
  return result.verified ? 0 : 1;
}
