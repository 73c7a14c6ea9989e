// ovbench: runs one workload of the repository benchmark and prints its
// metrics.  ovbench/run.py builds this binary and calls it; see
// ovbench/README.md for the workloads and metrics.
//
//   ovbench --workload=NAME --seed=N --seconds=S --trace=0|1 --work=DIR
//           [--spans-out=FILE] [--ledger=DIR]
//
// --trace=0 is the gated run: passes of NAME, engine at one worker, no
// spans, repeated for S seconds after one warm-up pass.  Each pass sets up
// kSetupRepeats times and runs the last set-up.  It reports every set-up
// and wall time and the process's peak RSS.  campaign200 draws a new
// campaign seed from --seed for every pass, so one run measures many
// campaigns.
//
// --trace=1 is the span run.  A round of a workload is an unspanned pass, a
// spanned pass and its ablation passes, after one warm-up pass in its first
// round.  NAME runs in rounds until S seconds have passed, then every other
// workload runs one round, so the run reports every per-layer metric.  It
// writes every span to --spans-out.
//
// Every pass checks its outputs; a pass whose check fails, or whose
// modelled outputs differ from the first pass of the same inputs, counts
// as failed.  With --ledger the modelled outputs are also compared with
// those of earlier runs in the same build directory.
//
// The last line of stdout is one JSON object: attempted, failed and samples
// (metric name -> every value measured).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "checks.hpp"
#include "span.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ovbench {
namespace {

using Prepare = std::function<std::unique_ptr<Pass>(PassContext&)>;

const HaloShape kHalo16{16, 400, 1024};
const HaloShape kHalo1024{1024, 20, 256};

struct Workload {
  std::string name;
  Prepare prepare;
  bool seeded = false;  // inputs depend on the seed
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"halo16",
       [](PassContext& c) { return prepareHalo(c, kHalo16, 1, true); }},
      {"halo1024",
       [](PassContext& c) { return prepareHalo(c, kHalo1024, 1, true); }},
      {"nas_traced", [](PassContext& c) { return prepareNas(c, true); }},
      {"campaign200", [](PassContext& c) { return prepareCampaign(c); },
       true},
  };
  return all;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work;
  std::string spans_out;
  std::string ledger;
};

bool parseOptions(int argc, char** argv, Options& o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      o.workload = val;
    } else if (key == "seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (key == "seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "trace") {
      o.trace = val == "0" ? 0 : (val == "1" ? 1 : -1);
    } else if (key == "work") {
      o.work = val;
    } else if (key == "spans-out") {
      o.spans_out = val;
    } else if (key == "ledger") {
      o.ledger = val;
    } else {
      return false;
    }
  }
  return have_seed && o.seconds > 0.0 && o.trace >= 0 && !o.work.empty();
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double num(const Modelled& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Pass accounting plus the determinism guard: the first pass of each
/// input set is the reference for every later pass of the same inputs.
class Tally {
 public:
  void record(const std::string& inputs, const PassResult& r) {
    Failures f = r.failures;
    const auto [it, fresh] = refs_.try_emplace(inputs, r.modelled);
    if (!fresh) {
      for (std::string& d : compareModelled(it->second, r.modelled)) {
        f.push_back(std::move(d));
      }
    }
    ++attempted_;
    if (!f.empty()) {
      ++failed_;
      for (const std::string& why : f) {
        std::fprintf(stderr, "ovbench: pass %d of %s failed: %s\n",
                     attempted_, inputs.c_str(), why.c_str());
      }
    }
  }
  /// Marks every pass failed (the modelled outputs moved between runs).
  void failAll() { failed_ = attempted_; }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Modelled>& references() const {
    return refs_;
  }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::map<std::string, Modelled> refs_;
};

/// Compares the run's reference outputs with those an earlier run of the
/// same inputs left in the ledger, or records them there.
Failures checkLedger(const std::string& dir, const std::string& inputs,
                     const Modelled& got) {
  const std::string path = dir + "/" + inputs + ".txt";
  Modelled earlier;
  {
    std::ifstream is(path);
    std::string name;
    std::string value;
    while (is >> name >> value) earlier[name] = value;
  }
  if (!earlier.empty()) return compareModelled(earlier, got);
  std::filesystem::create_directories(dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    for (const auto& [name, value] : got) os << name << ' ' << value << '\n';
  }
  std::filesystem::rename(tmp, path);
  return {};
}

using Samples = std::map<std::string, std::vector<double>>;

void printResult(const Tally& tally, const Samples& metrics) {
  std::printf("{\"attempted\": %d, \"failed\": %d, \"samples\": {",
              tally.attempted(), tally.failed());
  const char* sep = "";
  for (const auto& [name, values] : metrics) {
    std::printf("%s\"%s\": [", sep, name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
    }
    std::printf("]");
    sep = ", ";
  }
  std::printf("}}\n");
}

void printModelled(const Tally& tally) {
  for (const auto& [inputs, m] : tally.references()) {
    std::printf("modelled outputs of %s (identical on every pass):\n",
                inputs.c_str());
    for (const auto& [name, value] : m) {
      std::printf("  %-34s %s\n", name.c_str(), value.c_str());
    }
  }
}

/// Seed of pass `pass`'s inputs: --seed itself for the fixed workloads, a
/// fresh draw from it per timed pass for the campaign.  The warm-up pass 0
/// repeats the inputs of pass 1, so every run checks at least one pair.
std::uint64_t passSeed(const Workload& w, std::uint64_t seed, int pass) {
  if (!w.seeded) return seed;
  ovp::util::Rng rng(seed);
  std::uint64_t s = rng.next();
  for (int i = 1; i < pass; ++i) s = rng.next();
  return s;
}

std::string inputsKey(const Workload& w, std::uint64_t pass_seed) {
  return w.seeded ? w.name + ".seed" + std::to_string(pass_seed) : w.name;
}

double peakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

// ---- gated run -----------------------------------------------------------

constexpr int kMinTimedPasses = 3;
constexpr int kSetupRepeats = 21;

int gatedRun(const Workload& w, const Options& opt) {
  SpanLog off(false);
  PassContext ctx{off, opt.seed, opt.work};
  Tally tally;
  Samples metrics;
  const Clock::time_point begin = Clock::now();
  for (int pass = 0;; ++pass) {
    ctx.seed = passSeed(w, opt.seed, pass);
    std::unique_ptr<Pass> prepared;
    Clock::time_point sim_start;
    for (int i = 0; i < kSetupRepeats; ++i) {
      prepared.reset();
      const Clock::time_point t0 = Clock::now();
      prepared = w.prepare(ctx);
      sim_start = Clock::now();
      if (pass > 0) {  // pass 0 warms caches and allocators
        metrics["setup_s"].push_back(secondsBetween(t0, sim_start));
      }
    }
    const PassResult r = prepared->run();
    const Clock::time_point end = Clock::now();
    tally.record(inputsKey(w, ctx.seed), r);
    if (pass > 0) metrics["wall_s"].push_back(secondsBetween(sim_start, end));
    if (pass >= kMinTimedPasses && secondsBetween(begin, end) >= opt.seconds) {
      break;
    }
  }
  metrics["peak_rss_mb"].push_back(peakRssMiB());
  if (!opt.ledger.empty()) {
    bool moved = false;
    for (const auto& [inputs, m] : tally.references()) {
      for (const std::string& why : checkLedger(opt.ledger, inputs, m)) {
        std::fprintf(stderr, "ovbench: %s differs from an earlier run: %s\n",
                     inputs.c_str(), why.c_str());
        moved = true;
      }
    }
    if (moved) tally.failAll();
  }
  printModelled(tally);
  printResult(tally, metrics);
  return 0;
}

// ---- span run ------------------------------------------------------------

class SpanRun {
 public:
  explicit SpanRun(const Options& opt) : opt_(opt) {}

  struct Done {
    PassResult result;
    double wall_s = 0.0;  // from the end of set-up to the end of the pass
    int pass = -1;
  };

  /// Sets up and runs one pass, with or without spans, and records its
  /// outcome under the given input set.
  Done pass(const std::string& workload, const std::string& inputs,
            std::uint64_t seed, bool with_spans, const Prepare& prepare) {
    Done d;
    d.pass = next_pass_++;
    spans_.setEnabled(with_spans);
    spans_.setPass(d.pass);
    PassContext ctx{spans_, seed, opt_.work};
    {
      ScopedSpan root(spans_, "pass." + workload);
      std::unique_ptr<Pass> prepared = prepare(ctx);
      const Clock::time_point sim_start = Clock::now();
      d.result = prepared->run();
      d.wall_s = secondsBetween(sim_start, Clock::now());
    }
    spans_.setEnabled(true);
    tally_.record(inputs, d.result);
    return d;
  }

  /// In a workload's first round only, an unspanned pass that warms the
  /// process's caches and heap for it, so the unspanned and spanned passes
  /// that follow start alike.
  void warmUp(const std::string& workload, const std::string& inputs,
              std::uint64_t seed, const Prepare& prepare) {
    if (warmed_.insert(workload).second) {
      pass(workload, inputs, seed, false, prepare);
    }
  }

  [[nodiscard]] double self(const char* name, int pass) const {
    return selfTimeOf(spans_.spans(), selfTimes(spans_.spans()), name, pass);
  }

  void add(const std::string& metric, double v) {
    metrics_[metric].push_back(v);
  }

  void halo(const std::string& name, const HaloShape& shape,
            bool instrument_ablation) {
    const auto prep = [&shape](int workers, bool instrument) -> Prepare {
      return [&shape, workers, instrument](PassContext& c) {
        return prepareHalo(c, shape, workers, instrument);
      };
    };
    warmUp(name, name, opt_.seed, prep(1, true));
    const Done gated = pass(name, name, opt_.seed, false, prep(1, true));
    const Done sp = pass(name, name, opt_.seed, true, prep(1, true));
    // Parallel mode must reproduce the sequential outputs exactly.
    const Done par2 = pass(name, name, opt_.seed, true, prep(2, true));
    const Modelled& m = sp.result.modelled;
    const std::string p = name + ".";
    const double run_s = self("mpi.Machine.run", sp.pass);
    const double events = num(m, "sim.events");
    add(p + "sim.setup_s", self("mpi.Machine", sp.pass));
    add(p + "sim.run_s", run_s);
    add(p + "sim.events", events);
    add(p + "sim.host_ns_per_event", ratio(run_s * 1e9, events));
    add(p + "sim.virtual_finish_ns", num(m, "sim.virtual_finish_ns"));
    const double par2_s = self("mpi.Machine.run", par2.pass);
    add(p + "sim.par2_run_s", par2_s);
    add(p + "sim.par2_speedup", ratio(run_s, par2_s));
    for (const char* key :
         {"mpi.transfers", "mpi.bytes", "mpi.call_time_ns",
          "overlap.events_logged", "overlap.queue_drains", "overlap.min_pct",
          "overlap.max_pct"}) {
      add(p + key, num(m, key));
    }
    if (instrument_ablation) {
      const Done off = pass(name, name + ".uninstrumented", opt_.seed, true,
                            prep(1, false));
      add(p + "overlap.instr_overhead_s",
          run_s - self("mpi.Machine.run", off.pass));
    }
    add(p + "bench.span_overhead_s", sp.wall_s - gated.wall_s);
  }

  void nas(const std::string& name) {
    const auto prep = [](bool traced) -> Prepare {
      return [traced](PassContext& c) { return prepareNas(c, traced); };
    };
    warmUp(name, name, opt_.seed, prep(true));
    const Done gated = pass(name, name, opt_.seed, false, prep(true));
    const Done sp = pass(name, name, opt_.seed, true, prep(true));
    const Done untraced =
        pass(name, name + ".untraced", opt_.seed, true, prep(false));
    const Modelled& m = sp.result.modelled;
    const std::string p = name + ".";
    const auto both = [&m](const std::string& key) {
      return num(m, "cg." + key) + num(m, "mg." + key);
    };
    const std::map<std::string, double>& host = sp.result.host;
    const auto bothHost = [&host](const std::string& key) {
      double v = 0.0;
      for (const char* kernel : {"cg.", "mg."}) {
        const auto it = host.find(kernel + key);
        if (it != host.end()) v += it->second;
      }
      return v;
    };
    const int s = sp.pass;
    const double cg_s = self("nas.runCg", s);
    const double mg_s = self("nas.runMg", s);
    add(p + "trace.records", both("trace.records"));
    add(p + "trace.dropped", both("trace.dropped"));
    add(p + "trace.ring_reserved_mb",
        bothHost("trace.ring_reserved_bytes") / (1024.0 * 1024.0));
    add(p + "trace.capture_overhead_s",
        cg_s + mg_s - self("nas.runCg", untraced.pass) -
            self("nas.runMg", untraced.pass));
    add(p + "trace.export_json_s", self("trace.writeChromeJson", s));
    add(p + "trace.export_csv_s", self("trace.writeCsv", s));
    add(p + "trace.export_bytes", bothHost("trace.export_bytes"));
    add(p + "trace.windows_s", self("trace.analyzeAllWindows", s));
    add(p + "trace.critpath_s", self("trace.matchMessages", s) +
                                    self("trace.computeCriticalPath", s));
    add(p + "trace.csv_read_s", self("trace.readCsv", s));
    add(p + "analysis.lint_s", self("analysis.runLint", s));
    add(p + "analysis.findings", both("analysis.findings"));
    add(p + "analysis.verify_diags", both("analysis.verify_diags"));
    add(p + "nas.cg.run_s", cg_s);
    add(p + "nas.mg.run_s", mg_s);
    add(p + "overlap.report_save_s", self("overlap.ReportIo.saveAll", s));
    add(p + "overlap.report_load_s", self("overlap.ReportIo.loadMerged", s));
    add(p + "bench.span_overhead_s", sp.wall_s - gated.wall_s);
  }

  void campaign(const Workload& w) {
    const std::uint64_t seed = passSeed(w, opt_.seed, 0);
    const std::string inputs = inputsKey(w, seed);
    warmUp(w.name, inputs, seed, w.prepare);
    const Done gated = pass(w.name, inputs, seed, false, w.prepare);
    const Done sp = pass(w.name, inputs, seed, true, w.prepare);
    const Modelled& m = sp.result.modelled;
    const std::string p = w.name + ".";
    const double run_s = self("cluster.ClusterRuntime.run", sp.pass);
    add(p + "cluster.run_s", run_s);
    add(p + "cluster.host_ms_per_job",
        ratio(run_s * 1e3, num(m, "cluster.jobs")));
    for (const char* key :
         {"cluster.jobs", "cluster.baselines", "cluster.backfills",
          "cluster.peak_open_jobs", "cluster.makespan_ns", "cluster.agg_bytes",
          "cluster.mean_slowdown", "net.link_wait_ns"}) {
      add(p + key, num(m, key));
    }
    add(p + "cluster.agg_load_s",
        self("cluster.Aggregator.loadAll", sp.pass));
    add(p + "bench.span_overhead_s", sp.wall_s - gated.wall_s);
  }

  void round(const Workload& w) {
    if (w.name == "halo16") {
      halo(w.name, kHalo16, true);
    } else if (w.name == "halo1024") {
      halo(w.name, kHalo1024, false);
    } else if (w.name == "nas_traced") {
      nas(w.name);
    } else {
      campaign(w);
    }
  }

  int run(const Workload& named) {
    const Clock::time_point begin = Clock::now();
    do {
      round(named);
    } while (secondsBetween(begin, Clock::now()) < opt_.seconds);
    for (const Workload& w : workloads()) {
      if (&w != &named) round(w);
    }
    if (!opt_.spans_out.empty()) {
      std::ofstream os(opt_.spans_out);
      spans_.writeJsonLines(os);
      if (!os) {
        std::fprintf(stderr, "ovbench: cannot write %s\n",
                     opt_.spans_out.c_str());
        return 1;
      }
    }
    printModelled(tally_);
    printResult(tally_, metrics_);
    return 0;
  }

 private:
  const Options& opt_;
  SpanLog spans_{true};
  Tally tally_;
  Samples metrics_;
  int next_pass_ = 0;
  std::set<std::string> warmed_;
};

}  // namespace
}  // namespace ovbench

int main(int argc, char** argv) {
  using namespace ovbench;
  Options opt;
  if (!parseOptions(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: ovbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work=DIR [--spans-out=FILE] "
                 "[--ledger=DIR]\n");
    return 2;
  }
  const Workload* w = findWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "ovbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.work);
  if (opt.trace == 1) {
    SpanRun run(opt);
    return run.run(*w);
  }
  return gatedRun(*w, opt);
}
