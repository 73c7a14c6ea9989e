// ovprof_model: multi-run performance-model fitting and what-if prediction.
//
// Consumes model sample files written by instrumented runs
// (--ovprof-model=FILE on nas_run, or model::RunSample::saveFile) and, for
// what-if replay, the lossless CSV trace (--ovprof-trace=FILE produces
// FILE.csv).  Subcommands:
//
//   fit SAMPLE...                      fit the normal-form models across the
//                                      sweep; JSON to stdout or --out=FILE
//   predict SAMPLE... --at=X           evaluate every fitted model at an
//                                      unmeasured parameter X, with
//                                      residual-based confidence bands
//   eval SAMPLE... --heldout=SAMPLE    fit on SAMPLE..., predict the held-out
//                                      run's parameter, compare to its
//                                      measured values and gate the
//                                      intensive metrics (exit 1 on miss)
//   whatif TRACE.csv [--xfer-scale=S] [--bandwidth-scale=B]
//          [--latency-delta=NS]        replay the recorded schedule under a
//                                      scaled a-priori transfer-time table
//                                      and report bound movements
//
// predict and eval refit from the sample files in-process rather than
// parsing a fit JSON artifact: fitting is milliseconds, and it keeps this
// tool free of a JSON parser the repo otherwise doesn't need.
//
// Exit code: 0 success (eval: every gated metric within tolerance), 1 eval
// gate miss, 2 tool error (unreadable input, bad flags, bad subcommand).
// Output is deterministic: the same input bytes always produce the same
// output bytes — no wall-clock, no environment, fixed float formatting.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/model_set.hpp"
#include "model/pattern_cost.hpp"
#include "model/predict.hpp"
#include "model/sample.hpp"
#include "tool_main.hpp"
#include "trace/reader.hpp"

using namespace ovp;

namespace {

/// The flag table of one subcommand: --out plus the rows it reads, so a
/// flag only another subcommand reads is rejected.  No (or an unknown)
/// subcommand gets every row, which the bare help then lists.
util::Flags modelFlags(const std::string& subcommand) {
  const std::pair<std::string_view, util::FlagSpec> rows[] = {
      {"", util::stringFlag("out", "FILE",
                            "write the JSON to FILE (default stdout)")},
      {"predict", util::doubleFlag("at", "",
                                   "predict: sweep parameter to predict at "
                                   "(required)")},
      {"eval", util::stringFlag("heldout", "SAMPLE",
                                "eval: held-out sample to gate against "
                                "(required)")},
      {"eval", util::doubleFlag("mean-xfer-tol", "0.35",
                                "eval: relative tolerance on mean transfer "
                                "time")},
      {"eval", util::doubleFlag("bounds-tol", "40",
                                "eval: tolerance on min/max overlap, in "
                                "points")},
      {"whatif", util::doubleFlag("xfer-scale", "1",
                                  "whatif: multiply every transfer time, "
                                  ">= 0")},
      {"whatif", util::doubleFlag("bandwidth-scale", "1",
                                  "whatif: divide every transfer time, > 0")},
      {"whatif", util::intFlag("latency-delta", "0",
                               "whatif: add NS to every transfer time")},
      {"whatif", util::intFlag("window", "1000000",
                               "whatif: analysis window in virtual ns", 1)},
      {"costs", util::stringFlag("procs", "SPEC",
                                 "costs: rank counts, e.g. 8, 2,4,6 or "
                                 "8-64:pow2",
                                 "1-64:pow2")}};
  const std::string_view subcommands[] = {"fit", "predict", "eval", "whatif",
                                           "costs"};
  const bool known = std::find(std::begin(subcommands), std::end(subcommands),
                               subcommand) != std::end(subcommands);
  std::vector<util::FlagSpec> specs;
  for (const auto& [reader, spec] : rows) {
    if (!known || reader.empty() || reader == subcommand) {
      specs.push_back(spec);
    }
  }
  return util::Flags(
      "usage: ovprof_model fit|predict|eval SAMPLE... [flags]\n"
      "       ovprof_model whatif TRACE.csv [flags]\n"
      "       ovprof_model costs SYMSKEL [flags]\n"
      "Fits Extra-P-style models (c + a*n^i*log2(n)^j) across model samples\n"
      "(written by --ovprof-model runs), predicts at unmeasured parameters,\n"
      "gates a held-out run, replays a trace under scaled latency and\n"
      "bandwidth (whatif) and evaluates ovprof_check --emit-costs tables\n"
      "(costs).  All output is deterministic JSON.\n"
      "Exit code: 0 success, 1 eval gate miss, 2 tool error.\n",
      std::move(specs));
}

/// Opens --out=FILE or falls back to stdout.
std::ostream* openOut(const util::Flags& flags, std::ofstream& file) {
  return tool::openOutput("ovprof_model", flags.getString("out"), file);
}

bool loadSweep(const std::vector<std::string>& paths, model::SampleSet& set) {
  std::string error;
  if (paths.empty()) {
    std::fprintf(stderr, "ovprof_model: no sample files given\n");
    return false;
  }
  if (!set.loadFiles(paths, &error)) {
    std::fprintf(stderr, "ovprof_model: %s\n", error.c_str());
    return false;
  }
  std::string why;
  if (!set.consistent(&why)) {
    std::fprintf(stderr,
                 "ovprof_model: samples disagree on %s — a sweep must vary "
                 "only the parameter\n",
                 why.c_str());
    return false;
  }
  return true;
}

int cmdFit(const std::vector<std::string>& inputs, const util::Flags& flags) {
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  model::writeModelSetJson(models, *os);
  return 0;
}

int cmdPredict(const std::vector<std::string>& inputs,
               const util::Flags& flags) {
  if (!flags.has("at")) {
    std::fprintf(stderr, "ovprof_model predict: --at=X is required\n");
    return 2;
  }
  const double at = flags.getDouble("at");
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_predict_version\": 1,\n";
  *os << "  \"param_name\": \"" << models.param_name << "\",\n";
  *os << "  \"at\": " << model::jsonNum(at) << ",\n";
  *os << "  \"predictions\": [";
  for (std::size_t i = 0; i < models.metrics.size(); ++i) {
    const model::FittedMetric& m = models.metrics[i];
    const model::Interval p = model::predictInterval(m.fit, at);
    *os << (i == 0 ? "\n" : ",\n");
    *os << "    {\"section\": \"" << m.ref.section
        << "\", \"class\": " << m.ref.size_class << ", \"metric\": \""
        << m.ref.metric << "\", \"model\": \"" << m.fit.model.describe()
        << "\", \"value\": " << model::jsonNum(p.value)
        << ", \"lo\": " << model::jsonNum(p.lo)
        << ", \"hi\": " << model::jsonNum(p.hi) << "}";
  }
  *os << "\n  ]\n}\n";
  return 0;
}

int cmdEval(const std::vector<std::string>& inputs, const util::Flags& flags) {
  const std::string heldout_path = flags.getString("heldout");
  if (heldout_path.empty()) {
    std::fprintf(stderr, "ovprof_model eval: --heldout=SAMPLE is required\n");
    return 2;
  }
  model::RunSample heldout;
  if (!heldout.loadFile(heldout_path)) {
    std::fprintf(stderr, "ovprof_model: cannot load sample file %s\n",
                 heldout_path.c_str());
    return 2;
  }
  model::SampleSet set;
  if (!loadSweep(inputs, set)) return 2;
  const model::ModelSet models = model::fitSamples(std::move(set));
  model::EvalGate gate;
  gate.mean_xfer_rel_tol = flags.getDouble("mean-xfer-tol");
  gate.bounds_abs_tol_pct = flags.getDouble("bounds-tol");
  const model::EvalResult result = model::evalHeldOut(models, heldout, gate);
  if (!result.error.empty()) {
    std::fprintf(stderr, "ovprof_model: %s\n", result.error.c_str());
    return 2;
  }
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_eval_version\": 1,\n";
  *os << "  \"param_name\": \"" << models.param_name << "\",\n";
  *os << "  \"heldout_param\": " << model::jsonNum(heldout.param) << ",\n";
  *os << "  \"mean_xfer_rel_tol\": " << model::jsonNum(gate.mean_xfer_rel_tol)
      << ",\n";
  *os << "  \"bounds_abs_tol_pct\": " << model::jsonNum(gate.bounds_abs_tol_pct)
      << ",\n";
  *os << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n";
  *os << "  \"rows\": [";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const model::EvalRow& r = result.rows[i];
    *os << (i == 0 ? "\n" : ",\n");
    *os << "    {\"metric\": \"" << r.metric
        << "\", \"predicted\": " << model::jsonNum(r.predicted.value)
        << ", \"lo\": " << model::jsonNum(r.predicted.lo)
        << ", \"hi\": " << model::jsonNum(r.predicted.hi)
        << ", \"measured\": " << model::jsonNum(r.measured)
        << ", \"error\": " << model::jsonNum(r.error) << ", \"gated\": "
        << (r.gated ? "true" : "false") << ", \"pass\": "
        << (r.pass ? "true" : "false") << "}";
  }
  *os << "\n  ]\n}\n";
  return result.ok ? 0 : 1;
}

void writeTotals(std::ostream& os, const char* key,
                 const model::WhatIfTotals& t) {
  os << "  \"" << key << "\": {\"transfers\": " << t.accum.transfers
     << ", \"bytes\": " << t.accum.bytes
     << ", \"data_transfer_time\": " << t.accum.data_transfer_time
     << ", \"min_overlapped\": " << t.accum.min_overlapped
     << ", \"max_overlapped\": " << t.accum.max_overlapped
     << ", \"min_pct\": " << model::jsonNum(t.accum.minPct())
     << ", \"max_pct\": " << model::jsonNum(t.accum.maxPct())
     << ", \"comm_time\": " << t.comm_time
     << ", \"comp_time\": " << t.comp_time << "}";
}

int cmdWhatIf(const std::vector<std::string>& inputs,
              const util::Flags& flags) {
  if (inputs.size() != 1) {
    std::fprintf(stderr, "ovprof_model whatif: exactly one TRACE.csv input\n");
    return 2;
  }
  const trace::ReadResult loaded = trace::readCsvFile(inputs.front());
  if (!loaded.collector) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 loaded.error.c_str());
    return 2;
  }
  model::WhatIfConfig cfg;
  cfg.xfer_scale = flags.getDouble("xfer-scale");
  cfg.bandwidth_scale = flags.getDouble("bandwidth-scale");
  cfg.latency_delta = flags.getInt("latency-delta");
  cfg.window_ns = flags.getInt("window");
  if (cfg.xfer_scale < 0.0 || cfg.bandwidth_scale <= 0.0) {
    std::fprintf(stderr,
                 "ovprof_model whatif: want --xfer-scale >= 0 and "
                 "--bandwidth-scale > 0\n");
    return 2;
  }
  const model::WhatIfResult result = model::whatIf(*loaded.collector, cfg);
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  *os << "{\n";
  *os << "  \"ovprof_whatif_version\": 1,\n";
  *os << "  \"xfer_scale\": " << model::jsonNum(cfg.xfer_scale) << ",\n";
  *os << "  \"bandwidth_scale\": " << model::jsonNum(cfg.bandwidth_scale)
      << ",\n";
  *os << "  \"latency_delta\": " << cfg.latency_delta << ",\n";
  *os << "  \"window_ns\": " << cfg.window_ns << ",\n";
  writeTotals(*os, "baseline", result.baseline);
  *os << ",\n";
  writeTotals(*os, "scenario", result.scenario);
  *os << "\n}\n";
  return 0;
}

int cmdCosts(const std::vector<std::string>& inputs,
             const util::Flags& flags) {
  if (inputs.size() != 1) {
    std::fprintf(stderr, "ovprof_model costs: exactly one SYMSKEL input\n");
    return 2;
  }
  skel::sym::SymCostReport report;
  std::string error;
  if (!model::loadPatternCosts(inputs.front(), &report, &error)) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 error.c_str());
    return 2;
  }
  std::vector<int> procs;
  if (!tool::parseProcsSpec(flags.getString("procs"), procs, error)) {
    std::fprintf(stderr, "ovprof_model costs: --procs: %s\n", error.c_str());
    return 2;
  }
  std::vector<model::PatternCostEval> evals;
  if (!model::evalPatternCosts(report, procs, &evals, &error)) {
    std::fprintf(stderr, "ovprof_model: %s: %s\n", inputs.front().c_str(),
                 error.c_str());
    return 2;
  }
  std::ofstream file;
  std::ostream* os = openOut(flags, file);
  if (os == nullptr) return 2;
  model::writePatternCostJson(report, evals, *os);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments are the subcommand then its inputs; the first one
  // picks the flag table the rest parse against.
  std::string first;
  for (int i = 1; i < argc && first.empty(); ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0 && arg != "-h") first = arg;
  }
  const tool::CommandLine cl =
      tool::parseCommandLine(argc, argv, modelFlags(first));
  const util::Flags& flags = cl.flags;
  const std::string subcommand = cl.positional.front();
  const std::vector<std::string> inputs(cl.positional.begin() + 1,
                                        cl.positional.end());
  if (subcommand == "fit") return cmdFit(inputs, flags);
  if (subcommand == "predict") return cmdPredict(inputs, flags);
  if (subcommand == "eval") return cmdEval(inputs, flags);
  if (subcommand == "whatif") return cmdWhatIf(inputs, flags);
  if (subcommand == "costs") return cmdCosts(inputs, flags);
  std::fprintf(stderr, "ovprof_model: unknown subcommand: %s\n",
               subcommand.c_str());
  return 2;
}
