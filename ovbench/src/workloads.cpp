#include "workloads.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "analysis/lint.hpp"
#include "cluster/aggregator.hpp"
#include "cluster/runtime.hpp"
#include "cluster/workload.hpp"
#include "mpi/machine.hpp"
#include "mpi/mpi.hpp"
#include "nas/cg.hpp"
#include "nas/mg.hpp"
#include "net/vci.hpp"
#include "overlap/report_io.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/reader.hpp"
#include "trace/timeline.hpp"

namespace ovbench {

using namespace ovp;

namespace {

void haloRank(mpi::Mpi& mpi, const HaloShape& s, HaloOutcome& out) {
  const int rank = mpi.rank();
  const int n = mpi.size();
  const int left = (rank + n - 1) % n;
  const int right = (rank + 1) % n;
  std::vector<double> send_l(s.halo), send_r(s.halo);
  std::vector<double> recv_l(s.halo), recv_r(s.halo);
  for (int it = 0; it < s.iters; ++it) {
    for (int i = 0; i < s.halo; ++i) {
      send_l[i] = haloValue(rank, it, 0, i);
      send_r[i] = haloValue(rank, it, 1, i);
    }
    mpi::Request rl = mpi.irecvT(recv_l.data(), s.halo, left, 1);
    mpi::Request rr = mpi.irecvT(recv_r.data(), s.halo, right, 2);
    mpi::Request sl = mpi.isendT(send_l.data(), s.halo, left, 2);
    mpi::Request sr = mpi.isendT(send_r.data(), s.halo, right, 1);
    mpi.compute(static_cast<DurationNs>(s.halo));
    mpi.wait(rl);
    mpi.wait(rr);
    mpi.wait(sl);
    mpi.wait(sr);
    // The left neighbour sent its right halo with tag 1, the right
    // neighbour its left halo with tag 2.
    out.bad_halo_values += countHaloErrors(recv_l, left, it, 1);
    out.bad_halo_values += countHaloErrors(recv_r, right, it, 0);
    const double mine = allreduceContribution(rank, it);
    double total = 0.0;
    mpi.allreduce(&mine, &total, 1, mpi::Op::Sum);
    if (total != allreduceExpected(n, it)) ++out.bad_allreduces;
    ++out.iterations_done;
  }
}

/// Modelled statistics of a set of per-rank reports.
void addReportCounts(const std::vector<overlap::Report>& reports,
                     const std::string& prefix, Modelled& m) {
  const overlap::Report merged = overlap::mergeReports(reports);
  const overlap::SectionReport& w = merged.whole;
  m[prefix + "mpi.transfers"] = count(w.total.transfers);
  m[prefix + "mpi.bytes"] = count(w.total.bytes);
  m[prefix + "mpi.call_time_ns"] = count(w.communication_call_time);
  m[prefix + "overlap.events_logged"] = count(merged.events_logged);
  m[prefix + "overlap.queue_drains"] = count(merged.queue_drains);
  m[prefix + "overlap.min_pct"] = exactReal(w.total.minPct());
  m[prefix + "overlap.max_pct"] = exactReal(w.total.maxPct());
  std::ostringstream os;
  merged.save(os);
  m[prefix + "overlap.report_digest"] = digest(os.str());
}

std::string savedText(const overlap::Report& r) {
  std::ostringstream os;
  r.save(os);
  return os.str();
}

/// The analyst pipeline over one traced kernel result.
void analyse(PassContext& ctx, const std::string& kernel,
             const nas::NasResult& res, PassResult& out) {
  SpanLog& spans = ctx.spans;
  Modelled& m = out.modelled;
  const std::string p = kernel + ".";
  NasOutcome o;
  o.kernel = kernel;
  o.verified = res.verified;
  o.verifier_clean = analysis::clean(res.diagnostics);
  m[p + "nas.checksum"] = exactReal(res.checksum);
  m[p + "nas.virtual_time_ns"] = count(res.time);
  m[p + "analysis.verify_diags"] =
      count(static_cast<std::int64_t>(res.diagnostics.size()));
  addReportCounts(res.reports, p, m);
  if (!res.trace) {
    out.failures.push_back(kernel + ": no trace was collected");
    return;
  }
  const trace::Collector& tc = *res.trace;
  o.records = tc.recordedTotal();
  o.dropped = tc.droppedTotal();
  std::int64_t reserved = 0;
  for (int r = 0; r < tc.nranks(); ++r) {
    reserved += static_cast<std::int64_t>(tc.ring(r).capacity() *
                                          sizeof(trace::Record));
  }
  m[p + "trace.records"] = count(o.records);
  m[p + "trace.dropped"] = count(o.dropped);
  out.host[p + "trace.ring_reserved_bytes"] = static_cast<double>(reserved);

  std::ostringstream json;
  {
    ScopedSpan s(spans, "trace.writeChromeJson");
    trace::writeChromeJson(tc, json);
  }
  std::ostringstream csv_os;
  {
    ScopedSpan s(spans, "trace.writeCsv");
    trace::writeCsv(tc, csv_os);
  }
  const std::string csv = csv_os.str();
  out.host[p + "trace.export_bytes"] =
      static_cast<double>(json.str().size() + csv.size());
  m[p + "trace.csv_digest"] = digest(csv);

  std::vector<trace::RankWindows> windows;
  {
    ScopedSpan s(spans, "trace.analyzeAllWindows");
    windows = trace::analyzeAllWindows(tc, 1'000'000);
  }
  o.reconciliation = reconcileWindows(windows, res.reports);

  std::vector<trace::MessageEdge> edges;
  trace::CriticalPath cp;
  {
    ScopedSpan s(spans, "trace.matchMessages");
    edges = trace::matchMessages(tc);
  }
  {
    ScopedSpan s(spans, "trace.computeCriticalPath");
    cp = trace::computeCriticalPath(tc, edges);
  }
  m[p + "trace.message_edges"] = count(static_cast<std::int64_t>(edges.size()));
  m[p + "trace.critical_segments"] =
      count(static_cast<std::int64_t>(cp.segments.size()));
  m[p + "trace.late_sender_edges"] = count(cp.late_sender_edges);

  analysis::LintResult lint;
  {
    ScopedSpan s(spans, "analysis.runLint");
    lint = analysis::runLint(tc);
  }
  o.lint_clean = lint.clean();
  m[p + "analysis.findings"] =
      count(static_cast<std::int64_t>(lint.diagnostics.size()));

  const std::string prefix = ctx.work_dir + "/" + kernel;
  {
    ScopedSpan s(spans, "overlap.ReportIo.saveAll");
    o.reports_saved = overlap::ReportIo::saveAll(res.reports, prefix);
  }
  std::vector<std::string> paths;
  for (const overlap::Report& r : res.reports) {
    paths.push_back(overlap::ReportIo::rankPath(prefix, r.rank));
  }
  overlap::Report reloaded;
  {
    ScopedSpan s(spans, "overlap.ReportIo.loadMerged");
    if (!overlap::ReportIo::loadMerged(paths, reloaded)) {
      reloaded = overlap::Report{};
    }
  }
  o.merged_in_memory = savedText(overlap::mergeReports(res.reports));
  o.merged_reloaded = savedText(reloaded);

  trace::ReadResult back;
  {
    ScopedSpan s(spans, "trace.readCsv");
    std::istringstream is(csv);
    back = trace::readCsv(is);
  }
  if (back.collector) {
    o.csv_records = back.collector->recordedTotal();
  } else {
    o.csv_read_error = back.error.empty() ? "no collector" : back.error;
  }
  for (std::string& f : checkNas(o)) out.failures.push_back(std::move(f));
}

class HaloPass final : public Pass {
 public:
  HaloPass(PassContext& ctx, const HaloShape& shape, int workers,
           bool instrument)
      : spans_(ctx.spans),
        shape_(shape),
        instrument_(instrument),
        per_rank_(static_cast<std::size_t>(shape.nranks)) {
    mpi::JobConfig cfg;
    cfg.nranks = shape.nranks;
    cfg.workers = workers;
    cfg.mpi.instrument = instrument;
    ScopedSpan s(spans_, "mpi.Machine");
    machine_.emplace(cfg);
  }

  PassResult run() override {
    {
      ScopedSpan s(spans_, "mpi.Machine.run");
      machine_->run([this](mpi::Mpi& mpi) {
        haloRank(mpi, shape_, per_rank_[static_cast<std::size_t>(mpi.rank())]);
      });
    }
    PassResult out;
    HaloOutcome total;
    total.iterations_expected =
        static_cast<std::int64_t>(shape_.nranks) * shape_.iters;
    for (const HaloOutcome& r : per_rank_) {
      total.bad_halo_values += r.bad_halo_values;
      total.bad_allreduces += r.bad_allreduces;
      total.iterations_done += r.iterations_done;
    }
    out.failures = checkHalo(total);
    out.modelled["sim.events"] = count(machine_->engine().eventsProcessed());
    out.modelled["sim.virtual_finish_ns"] = count(machine_->finishTime());
    if (instrument_) {
      ScopedSpan s(spans_, "overlap.mergeReports");
      addReportCounts(machine_->reports(), "", out.modelled);
    }
    return out;
  }

 private:
  SpanLog& spans_;
  HaloShape shape_;
  bool instrument_;
  std::vector<HaloOutcome> per_rank_;  // one slot per rank, written by it
  std::optional<mpi::Machine> machine_;
};

class NasPass final : public Pass {
 public:
  NasPass(PassContext& ctx, bool traced) : ctx_(ctx), traced_(traced) {
    params_.nranks = 16;
    params_.preset = mpi::Preset::Mvapich2;
    params_.verify = true;
    params_.trace.enabled = traced;
  }

  PassResult run() override {
    PassResult out;
    {
      nas::NasParams cg = params_;
      cg.cls = nas::Class::B;
      nas::NasResult res;
      {
        ScopedSpan s(ctx_.spans, "nas.runCg");
        res = nas::runCg(cg);
      }
      finish("cg", res, out);
    }
    {
      nas::MgParams mg;
      static_cast<nas::NasParams&>(mg) = params_;
      mg.cls = nas::Class::A;
      mg.variant = nas::MgVariant::ArmciNonBlocking;
      nas::NasResult res;
      {
        ScopedSpan s(ctx_.spans, "nas.runMg");
        res = nas::runMg(mg);
      }
      finish("mg", res, out);
    }
    return out;
  }

 private:
  void finish(const std::string& kernel, const nas::NasResult& res,
              PassResult& out) {
    if (traced_) {
      analyse(ctx_, kernel, res, out);
    } else if (!res.verified) {
      out.failures.push_back(kernel + ": kernel did not verify");
    }
  }

  PassContext& ctx_;
  bool traced_;
  nas::NasParams params_;
};

class CampaignPass final : public Pass {
 public:
  explicit CampaignPass(PassContext& ctx) : spans_(ctx.spans) {
    {
      ScopedSpan s(spans_, "cluster.synthWorkload");
      jobs_ = cluster::synthWorkload(200, ctx.seed, 32);
    }
    cluster::ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.ranks_per_node = 4;
    cfg.policy = cluster::SchedPolicy::Backfill;
    cfg.exclusive_nodes = false;
    vci_ok_ = net::VciParams::parse("2", cfg.fabric.vci);
    ScopedSpan s(spans_, "cluster.ClusterRuntime");
    runtime_.emplace(cfg);
  }

  PassResult run() override {
    PassResult out;
    if (!vci_ok_) {
      out.failures.push_back("campaign: VCI spec rejected");
      return out;
    }
    CampaignOutcome o;
    o.jobs_submitted = static_cast<std::int64_t>(jobs_.size());
    std::ostringstream agg;
    cluster::CampaignResult res;
    {
      ScopedSpan s(spans_, "cluster.ClusterRuntime.run");
      res = runtime_->run(std::move(jobs_), agg);
    }
    o.jobs = res.jobs;
    o.records_written = res.records_written;
    const std::string stream = agg.str();
    std::vector<cluster::JobRecord> records;
    {
      ScopedSpan s(spans_, "cluster.Aggregator.loadAll");
      std::istringstream is(stream);
      o.reloaded = cluster::Aggregator::loadAll(is, records);
    }
    o.records_reloaded = static_cast<std::int64_t>(records.size());
    out.failures = checkCampaign(o);

    DurationNs link_wait = 0;
    double slowdown = 0.0;
    for (const cluster::JobRecord& r : records) {
      link_wait += r.link_wait;
      slowdown += r.slowdown;
    }
    Modelled& m = out.modelled;
    m["cluster.jobs"] = count(res.jobs);
    m["cluster.baselines"] = count(res.baselines);
    m["cluster.backfills"] = count(res.backfills);
    m["cluster.peak_open_jobs"] = count(res.peak_open_jobs);
    m["cluster.makespan_ns"] = count(res.makespan);
    m["cluster.agg_bytes"] = count(static_cast<std::int64_t>(stream.size()));
    m["cluster.agg_digest"] = digest(stream);
    m["cluster.mean_slowdown"] =
        exactReal(records.empty()
                      ? 0.0
                      : slowdown / static_cast<double>(records.size()));
    m["net.link_wait_ns"] = count(link_wait);
    return out;
  }

 private:
  SpanLog& spans_;
  std::vector<cluster::JobSpec> jobs_;
  bool vci_ok_ = false;
  std::optional<cluster::ClusterRuntime> runtime_;
};

}  // namespace

std::unique_ptr<Pass> prepareHalo(PassContext& ctx, const HaloShape& shape,
                                  int workers, bool instrument) {
  return std::make_unique<HaloPass>(ctx, shape, workers, instrument);
}

std::unique_ptr<Pass> prepareNas(PassContext& ctx, bool traced) {
  return std::make_unique<NasPass>(ctx, traced);
}

std::unique_ptr<Pass> prepareCampaign(PassContext& ctx) {
  return std::make_unique<CampaignPass>(ctx);
}

}  // namespace ovbench
