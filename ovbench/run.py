#!/usr/bin/env python3
"""Repository benchmark for ovprof.

    python3 ovbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ovbench/run.py --selftest
    python3 ovbench/run.py --write-spec

Builds the ovbench package (the ovprof libraries from src/ plus the program in
ovbench/src) into $CARGO_TARGET_DIR or .bench_build, runs one workload and
prints its metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of the span run.  --selftest runs the
benchmark's own tests; --write-spec rewrites BENCHMARK.json from the tables
below.  See ovbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 25
PROCESS_TIMEOUT_S = 160
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)

WORKLOADS = [
    ("halo16",
     "16-rank ring halo + allreduce: engine is ~65% of host time, tiny "
     "working set, no tracing; engine queue and fiber changes show here"),
    ("halo1024",
     "same body at 1024 ranks: 1024 fiber stacks and a deep calendar queue, "
     "2.5x the cost per event; a change that helps halo16 but hurts wide runs "
     "shows here"),
    ("nas_traced",
     "CG B and MG A armci-nb, 16 ranks, verify + trace + export, windows, "
     "critical path, lint, report and CSV round trips: tracing is ~80% of "
     "host time"),
    ("campaign200",
     "200 synthetic jobs from the seed on 8x4 shared nodes, backfill, 2 VCI "
     "channels, solo baselines: the only cluster, net contention and "
     "aggregation workload"),
]

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]


def _halo_layer(w, instr_ablation):
    rows = [
        ("sim.setup_s", "s", "lower"),
        ("sim.run_s", "s", "lower"),
        ("sim.events", "count", "lower"),
        ("sim.host_ns_per_event", "ns", "lower"),
        ("sim.virtual_finish_ns", "sim_ns", "lower"),
        ("sim.par2_run_s", "s", "lower"),
        ("sim.par2_speedup", "ratio", "higher"),
        ("mpi.transfers", "count", "lower"),
        ("mpi.bytes", "bytes", "lower"),
        ("mpi.call_time_ns", "sim_ns", "lower"),
        ("overlap.events_logged", "count", "lower"),
        ("overlap.queue_drains", "count", "lower"),
        ("overlap.min_pct", "%", "higher"),
        ("overlap.max_pct", "%", "higher"),
    ]
    if instr_ablation:
        rows.append(("overlap.instr_overhead_s", "s", "lower"))
    rows.append(("bench.span_overhead_s", "s", "lower"))
    return [(w + "." + n, u, b) for n, u, b in rows]


PER_LAYER = (
    _halo_layer("halo16", True)
    + _halo_layer("halo1024", False)
    + [("nas_traced." + n, u, b) for n, u, b in [
        ("trace.records", "count", "lower"),
        ("trace.dropped", "count", "lower"),
        ("trace.ring_reserved_mb", "MiB", "lower"),
        ("trace.capture_overhead_s", "s", "lower"),
        ("trace.export_json_s", "s", "lower"),
        ("trace.export_csv_s", "s", "lower"),
        ("trace.export_bytes", "bytes", "lower"),
        ("trace.windows_s", "s", "lower"),
        ("trace.critpath_s", "s", "lower"),
        ("trace.csv_read_s", "s", "lower"),
        ("analysis.lint_s", "s", "lower"),
        ("analysis.findings", "count", "lower"),
        ("analysis.verify_diags", "count", "lower"),
        ("nas.cg.run_s", "s", "lower"),
        ("nas.mg.run_s", "s", "lower"),
        ("overlap.report_save_s", "s", "lower"),
        ("overlap.report_load_s", "s", "lower"),
        ("bench.span_overhead_s", "s", "lower"),
    ]]
    + [("campaign200." + n, u, b) for n, u, b in [
        ("cluster.run_s", "s", "lower"),
        ("cluster.host_ms_per_job", "ms", "lower"),
        ("cluster.jobs", "count", "higher"),
        ("cluster.baselines", "count", "lower"),
        ("cluster.backfills", "count", "higher"),
        ("cluster.peak_open_jobs", "count", "lower"),
        ("cluster.makespan_ns", "sim_ns", "lower"),
        ("cluster.agg_bytes", "bytes", "lower"),
        ("cluster.agg_load_s", "s", "lower"),
        ("cluster.mean_slowdown", "ratio", "lower"),
        ("net.link_wait_ns", "sim_ns", "lower"),
        ("bench.span_overhead_s", "s", "lower"),
    ]]
)


def spec():
    return {
        "command": ["python3", "ovbench/run.py"],
        "paths": ["ovbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def fail(msg):
    print("ovbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "ovbench")


def build(targets):
    """Configures (once) and builds the package; exits on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                log.flush()
                why = tail(log_path)
                shutil.rmtree(out, ignore_errors=True)
                fail("configure failed; see the log below\n" + why)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("build failed; see the log below\n" + tail(log_path))
    return out


def tail(path, lines=30):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def percentile(values, p):
    """Nearest-rank percentile of `values`, p in (0, 100]."""
    v = sorted(values)
    rank = (round(p * 10) * len(v) + 999) // 1000
    return v[max(rank, 1) - 1]


def tail_percentile(n):
    """The percentile a timing's tail is reported at: the highest of
    TAIL_LADDER that leaves at least ten of n samples above it, or None."""
    for p in TAIL_LADDER:
        if n - (round(p * 10) * n + 999) // 1000 >= 10:
            return p
    return None


def summarise(samples):
    """Median, sample count and tail percentile of every metric."""
    out = {}
    for name, values in samples.items():
        p = tail_percentile(len(values))
        out[name] = {
            "median": statistics.median(values),
            "n": len(values),
            "tail": None if p is None else (p, percentile(values, p)),
        }
    return out


def run_workload(args):
    out = build(["ovbench"])
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out, "work", str(os.getpid()))
    for sub in ("logs", "spans"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    err_path = os.path.join(out, "logs", tag + ".err")
    cmd = [os.path.join(out, "ovbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--work=" + work,
           "--ledger=" + os.path.join(out, "ledger"),
           "--spans-out=" + os.path.join(out, "spans", tag + ".jsonl")]
    try:
        with open(err_path, "w") as err:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (tag, PROCESS_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("ovbench exited with %d\n%s" % (proc.returncode, tail(err_path)))
    result = json.loads(lines[-1])
    table = END_TO_END if args.trace == 0 else PER_LAYER
    units = {row[0]: row[1] for row in table}
    if set(result["samples"]) != set(units):
        fail("metrics %s do not match the spec %s" %
             (sorted(result["samples"]), sorted(units)))
    attempted, failed = result["attempted"], result["failed"]
    if failed != 0:
        print(tail(err_path, 20), file=sys.stderr, end="")
    stats = summarise(result["samples"])
    for line in lines[:-1]:
        print(line)
    print("ovbench %s, seed %d, trace %d: %d passes, %d failed, "
          "fail_ratio %.6g" % (args.workload, args.seed, args.trace,
                               attempted, failed, failed / attempted))
    for name, *_ in table:
        s = stats[name]
        line = "  %-45s %-24.10g %-6s n=%d" % (name, s["median"],
                                               units[name], s["n"])
        if s["tail"] is not None:
            line += "  p%g=%.10g" % s["tail"]
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"],
                           "unit": units[name]} for name, *_ in table},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return
    if args.selftest:
        out = build(["ovbench_selftest"])
        code = subprocess.run(os.path.join(out, "ovbench_selftest")).returncode
        code |= subprocess.run([sys.executable, "-m", "unittest", "-q",
                                "test_run"], cwd=HERE).returncode
        sys.exit(code)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    started = time.time()
    run_workload(args)
    print("ovbench: %.1f s including build" % (time.time() - started),
          file=sys.stderr)


if __name__ == "__main__":
    main()
