#include "mpi/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "analysis/stream_verifier.hpp"
#include "analysis/usage_checker.hpp"
#include "overlap/report_io.hpp"
#include "trace/net_tap.hpp"

namespace ovp::mpi {

overlap::XferTimeTable analyticTable(const net::FabricParams& params) {
  overlap::XferTimeTable table;
  for (Bytes size = 8; size <= 16 * 1024 * 1024; size *= 2) {
    table.add(size, params.unloadedTransfer(size));
  }
  return table;
}

Machine::Machine(JobConfig cfg) : cfg_(std::move(cfg)) {}

namespace {

/// Copies one NIC's per-(channel, size-class) wire counters into the report
/// form, deriving the LogGP o_send / o_recv estimates from the fabric's
/// host-side post/poll costs (the NIC itself never spends host time).
overlap::VciStats vciStatsFor(const net::Nic& nic,
                              const net::FabricParams& p) {
  overlap::VciStats out;
  out.channels = p.vci.channels;
  out.class_bounds.assign(p.vci.class_bounds.begin(),
                          p.vci.class_bounds.end());
  const std::vector<net::Nic::VciCounters>& counters = nic.vciCounters();
  out.rows.resize(counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const net::Nic::VciCounters& c = counters[i];
    overlap::VciChannelClass& row = out.rows[i];
    row.posts = c.posts;
    row.deliveries = c.deliveries;
    row.bytes = c.bytes;
    row.o_send = c.posts * p.post_overhead;
    row.o_recv = c.deliveries * p.cq_poll_cost;
    row.gap = c.gap;
    row.link_wait = c.link_wait;
    row.incast_wait = c.incast_wait;
  }
  return out;
}

}  // namespace

void observeMonitor(overlap::Monitor& mon, analysis::StreamVerifier* verifier,
                    trace::Collector* tc, Rank r) {
  if (verifier == nullptr && tc == nullptr) return;
  mon.setEventObserver(
      [&mon, verifier, tc, r](const overlap::Event& e) {
        if (verifier != nullptr) verifier->consume(e);
        if (tc != nullptr) {
          if (e.type == overlap::EventType::SectionBegin) {
            tc->noteSectionName(
                r, e.id,
                mon.sectionName(static_cast<overlap::SectionId>(e.id)));
          }
          tc->onMonitorEvent(r, e);
        }
      },
      tc != nullptr ? tc->config().record_cost : 0);
}

bool Machine::writeReports(const std::string& prefix) const {
  return overlap::ReportIo::saveAll(reports_, prefix);
}

void Machine::run(const std::function<void(Mpi&)>& rankMain) {
  net::Fabric fabric(engine_, cfg_.fabric, cfg_.nranks);
  engine_.setWorkers(fabric.faultEnabled() ? 1 : cfg_.workers);
  reports_.assign(
      cfg_.mpi.instrument ? static_cast<std::size_t>(cfg_.nranks) : 0,
      overlap::Report{});
  diagnostics_.clear();
  trace_.reset();
  std::unique_ptr<trace::NetTap> tap;
  if (cfg_.trace.enabled) {
    trace_ = std::make_shared<trace::Collector>(cfg_.trace, cfg_.nranks);
    // The analysis pass replays bounds with the table the rank monitors
    // will use (Mpi fills an empty configured table the same way).
    trace_->setTable(cfg_.mpi.monitor.table.empty()
                         ? analyticTable(cfg_.fabric)
                         : cfg_.mpi.monitor.table);
    tap = std::make_unique<trace::NetTap>(*trace_);
    fabric.setObserver(tap.get());
  }
  std::mutex reports_mu;
  engine_.run(cfg_.nranks, [&](sim::Context& ctx) {
    Mpi mpi(ctx, fabric, cfg_.mpi);
    std::unique_ptr<analysis::StreamVerifier> verifier;
    std::unique_ptr<analysis::UsageChecker> checker;
    if (cfg_.mpi.verify) {
      if (mpi.monitor() != nullptr) {
        verifier = std::make_unique<analysis::StreamVerifier>(ctx.rank());
      }
      checker = std::make_unique<analysis::UsageChecker>(ctx.rank());
      checker->setClock([cx = &ctx]() { return cx->now(); });
      mpi.setUsageChecker(checker.get());
    }
    if (trace_) mpi.setTraceSink(trace_.get());
    if (overlap::Monitor* mon = mpi.monitor()) {
      observeMonitor(*mon, verifier.get(), trace_.get(), ctx.rank());
    }
    rankMain(mpi);
    if (mpi.instrumented()) {
      const overlap::Report& r = mpi.finalizeReport();
      // Rank threads never run concurrently, but guard for clarity.
      std::lock_guard<std::mutex> lock(reports_mu);
      reports_[static_cast<std::size_t>(ctx.rank())] = r;
    }
    // Same instant finalizeReport closed the books; the trace analysis
    // finalizes each rank's replay at exactly this time.
    if (trace_) trace_->setEndTime(ctx.rank(), ctx.now());
    if (checker) checker->onFinalize("MPI_Finalize");
    if (verifier) {
      // finalizeReport drained the queue, so the verifier saw the whole
      // stream; reconcile against the monitor's own event count.
      verifier->finish(mpi.monitor() != nullptr ? mpi.monitor()->eventsLogged()
                                                : -1);
    }
    if (verifier || checker) {
      std::lock_guard<std::mutex> lock(reports_mu);
      if (verifier) {
        for (const auto& d : verifier->diagnostics()) diagnostics_.push_back(d);
      }
      if (checker) {
        for (const auto& d : checker->diagnostics()) diagnostics_.push_back(d);
      }
    }
  });
  fault_totals_ = overlap::FaultStats{};
  if (fabric.faultEnabled()) {
    for (overlap::Report& r : reports_) {
      r.faults.assignFrom(fabric.nic(r.rank).faultCounters());
    }
    fault_totals_.assignFrom(fabric.faultTotals());
  }
  if (cfg_.fabric.vci.enabled()) {
    for (overlap::Report& r : reports_) {
      r.vci = vciStatsFor(fabric.nic(r.rank), cfg_.fabric);
    }
  }
  if (!diagnostics_.empty()) {
    std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                     [](const analysis::Diagnostic& a,
                        const analysis::Diagnostic& b) { return a.rank < b.rank; });
    for (const analysis::Diagnostic& d : diagnostics_) {
      std::fprintf(stderr, "ovprof-verify: %s\n", d.toString().c_str());
    }
  }
}

}  // namespace ovp::mpi
