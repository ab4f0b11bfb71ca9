// chip8_fixed and chip8_dram_far: the 8W3 chip (4 cores x 2 contexts) run
// in process on one thread. A point is one (policy, trace seed) pair; each
// point's chip is built, warmed and captured once per set-up repetition.
// The measured phase then runs rounds: every point forks its snapshot
// (restore + one measured interval), the policies taking turns. Every fork
// of a point does the same simulated work and must produce bit-identical
// SimMetrics. Each run covers several seeds derived from --seed, so that
// its figures average over several trace contents instead of inheriting
// one seed's luck.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"
#include "trace/generator.h"
#include "trace/spec2000.h"

namespace perfbench {
namespace {

using mflush::Cycle;
using mflush::PolicySpec;
using mflush::SimMetrics;

struct ChipWorkload {
  bool dram_far = false;
  std::vector<PolicySpec> policies;
  std::uint64_t trace_seeds = 0;
  Cycle warmup = 0;
  Cycle measure = 0;  ///< per fork
};

/// Set-up is ~0.3-1.3 s per repetition, so a few give a steady median.
constexpr int kSetupReps = 3;
/// Restores per run at least: the attach p90 then has ten samples beyond it.
constexpr std::size_t kMinRestores = 100;
/// Instructions per thread in the trace-generator replay.
constexpr mflush::SeqNo kReplayInstrs = 100'000;

struct Point {
  mflush::SimConfig cfg;
  PolicySpec policy;
  std::unique_ptr<mflush::CmpSimulator> sim;
  std::vector<std::uint8_t> snapshot;
  std::optional<SimMetrics> reference;  ///< the first fork's metrics
};

mflush::SimConfig chip_config(const mflush::Workload& w, std::uint64_t seed,
                              bool dram_far) {
  mflush::SimConfig cfg = mflush::SimConfig::paper_default(w.num_cores(), seed);
  if (dram_far) {
    // The dram+far row of fig_latency_spread: banked DRAM with every line
    // in the far class. Trace addresses live above 2^40, so "every line"
    // needs the full address range.
    cfg.mem.memory_model = mflush::MemModelKind::BankedDram;
    cfg.mem.dram.far_base = 0;
    cfg.mem.dram.far_bytes = ~std::uint64_t{0};
  }
  return cfg;
}

/// Replays SyntheticTraceSource::at over the workload's thread profiles
/// and returns drift-corrected nanoseconds per generated instruction.
double trace_gen_ns_per_instr(const mflush::Workload& w,
                              const mflush::SimConfig& cfg, DriftClock& clock,
                              Tracer& tracer) {
  std::vector<mflush::BenchmarkProfile> profiles;
  for (const char code : w.codes)
    profiles.push_back(*mflush::spec2000::by_code(code));
  const Timed t = clock.time([&] {
    const auto span = tracer.span("SyntheticTraceSource::at");
    for (std::size_t tid = 0; tid < profiles.size(); ++tid) {
      mflush::SyntheticTraceSource src(profiles[tid], cfg.seed,
                                       cfg.rewind_window(), tid);
      for (mflush::SeqNo seq = 0; seq < kReplayInstrs; ++seq) {
        (void)src.at(seq);
        if ((seq & 63) == 0) src.retire_up_to(seq);
      }
    }
  });
  return 1e9 * tracer.take_total("SyntheticTraceSource::at") * t.factor() /
         static_cast<double>(kReplayInstrs * profiles.size());
}

std::uint64_t run_chip(const ChipWorkload& cw, const Args& args,
                       Report& report) {
  const mflush::Workload wl = *mflush::workloads::by_name("8W3");
  DriftClock clock(3);
  Tracer tracer(args.trace);
  EndToEnd e2e;
  Layers layers;

  std::vector<Point> points;
  for (std::uint64_t k = 0; k < cw.trace_seeds; ++k) {
    const auto cfg = chip_config(wl, derived_seed(args.seed, k), cw.dram_far);
    for (const PolicySpec& p : cw.policies)
      points.push_back({cfg, p, {}, {}, {}});
  }
  const std::size_t n = points.size();

  // ---- set-up: ctor + warm-up + capture of every point per repetition.
  std::vector<double> ctor_ms, capture_ms;
  std::vector<std::vector<std::uint8_t>> first_snapshots;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Timed t = clock.time([&] {
      for (Point& p : points) {
        {
          const auto s = tracer.span("CmpSimulator::ctor");
          p.sim = std::make_unique<mflush::CmpSimulator>(p.cfg, wl, p.policy);
        }
        p.sim->run(cw.warmup);
        const auto s = tracer.span("snapshot::capture");
        p.snapshot = mflush::snapshot::capture(*p.sim);
      }
    });
    e2e.setup_s.add(t.raw_s, t.factor());
    if (tracer.enabled()) {
      const double per_point = 1e3 * t.factor() / static_cast<double>(n);
      ctor_ms.push_back(tracer.take_total("CmpSimulator::ctor") * per_point);
      capture_ms.push_back(tracer.take_total("snapshot::capture") * per_point);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (rep == 0) {
        first_snapshots.push_back(points[i].snapshot);
      } else {
        report.check(points[i].snapshot == first_snapshots[i],
                     "set-up " + std::to_string(rep) + " of " +
                         points[i].policy.label() +
                         " captured different snapshot bytes");
      }
    }
  }

  // ---- measured rounds: one fork of every point, policies taking turns.
  std::vector<double> run_s, restore_ms;
  // Per point: raw and corrected fork times (restore + interval + metrics).
  std::vector<std::vector<double>> fork_raw(n), fork_corrected(n);
  bool counted = false;
  const std::size_t min_rounds = (kMinRestores + n - 1) / n;
  const double t_end = now_s() + args.seconds;
  for (std::size_t round = 0; round < min_rounds || now_s() < t_end;
       ++round) {
    const bool traced = args.trace && round % 2 == 0;
    tracer.set_enabled(traced);
    std::vector<SimMetrics> got(n);
    std::vector<double> restore_raw(n), fork_s(n);
    std::vector<Cycle> skipped(n);
    double run_raw = 0.0, cpu = 0.0;
    std::uint64_t committed = 0;
    const Timed t = clock.time([&] {
      const double cpu0 = cpu_seconds();
      for (std::size_t i = 0; i < n; ++i) {
        Point& p = points[i];
        const double a = now_s();
        {
          const auto s = tracer.span("snapshot::restore");
          mflush::snapshot::restore(*p.sim, p.snapshot);
        }
        const double b = now_s();
        p.sim->reset_stats();
        const Cycle idle0 = p.sim->idle_cycles_skipped();
        {
          const auto s = tracer.span("CmpSimulator::run");
          p.sim->run(cw.measure);
        }
        const double c = now_s();
        got[i] = p.sim->metrics();
        restore_raw[i] = b - a;
        run_raw += c - b;
        committed += got[i].committed;
        skipped[i] = p.sim->idle_cycles_skipped() - idle0;
        fork_s[i] = now_s() - a;
      }
      cpu = cpu_seconds() - cpu0;
    });
    const double f = t.factor();
    e2e.campaign_s.add(t.raw_s, f);
    if (e2e.harness_peak_rss_mb == 0.0)
      e2e.harness_peak_rss_mb = self_peak_rss_mb();
    e2e.cpu_s.add(cpu, f);
    e2e.committed_per_s.add_rate(static_cast<double>(committed), run_raw, f);
    for (std::size_t i = 0; i < n; ++i) {
      e2e.attach_s.add(restore_raw[i], f);
      fork_raw[i].push_back(fork_s[i]);
      fork_corrected[i].push_back(fork_s[i] * f);
    }
    if (traced) {
      restore_ms.push_back(1e3 * tracer.take_total("snapshot::restore") * f /
                           static_cast<double>(n));
      run_s.push_back(tracer.take_total("CmpSimulator::run") * f);
    }
    if (args.trace) {
      (traced ? e2e.campaign_traced_s : e2e.campaign_untraced_s)
          .push_back(t.corrected_s);
    }

    if (args.force_mismatch && round == 1) ++got[0].committed;
    for (std::size_t i = 0; i < n; ++i) {
      Point& p = points[i];
      if (!p.reference) {
        p.reference = got[i];
        continue;
      }
      report.check(got[i] == *p.reference,
                   "fork " + std::to_string(round) + " of " +
                       p.policy.label() + " seed " +
                       std::to_string(p.cfg.seed) + " differs from fork 0");
    }

    // Per-layer counts of one round (every round repeats them exactly).
    if (traced && !counted) {
      counted = true;
      double fetched = 0.0, committed_core = 0.0, core_cycles = 0.0,
             skipped_total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const mflush::CmpSimulator& sim = *points[i].sim;
        for (mflush::CoreId c = 0; c < sim.num_cores(); ++c) {
          const mflush::CoreStats& cs = sim.core(c).stats();
          fetched += static_cast<double>(cs.fetched);
          committed_core += static_cast<double>(cs.committed_total());
          layers.add("pipeline.wrong_path",
                     static_cast<double>(cs.fetched_wrong_path));
          layers.add("pipeline.issued",
                     static_cast<double>(cs.instructions_issued));
        }
        core_cycles += static_cast<double>(cw.measure) * sim.num_cores();
        skipped_total += static_cast<double>(skipped[i]);
        add_metric_counters(got[i], layers);
      }
      layers.set("pipeline.fetched", fetched);
      layers.set("pipeline.useful_frac",
                 fetched > 0 ? committed_core / fetched : 0.0);
      layers.set("cmp.skip_frac", skipped_total / core_cycles);
    }
  }
  tracer.set_enabled(args.trace);

  // A round's first result is one point's fork, and points differ in cost
  // by policy and seed. So first_result is the mean over points of each
  // point's median fork time: the expected wait for a first result when
  // any point may come first. (A median over points would jump between
  // the points' modes.)
  double first_raw = 0.0, first_corrected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    first_raw += median(fork_raw[i]) / static_cast<double>(n);
    first_corrected += median(fork_corrected[i]) / static_cast<double>(n);
  }
  e2e.first_result_s.raw.push_back(first_raw);
  e2e.first_result_s.corrected.push_back(first_corrected);

  double snapshot_bytes = 0.0;
  for (const Point& p : points)
    snapshot_bytes += static_cast<double>(p.snapshot.size());

  if (args.trace) {
    layers.set("trace.gen_ns_per_instr",
               trace_gen_ns_per_instr(wl, points.front().cfg, clock, tracer));
    layers.set("cmp.run_s", median(run_s));
    layers.set("cmp.ctor_ms", median(ctor_ms));
    layers.set("snapshot.capture_ms", median(capture_ms));
    layers.set("snapshot.restore_ms", median(restore_ms));
    layers.set("snapshot.bytes", snapshot_bytes / static_cast<double>(n));
    fill_host_layers(e2e, clock, layers);
    layers.emit(report);
  } else {
    report_end_to_end(e2e, clock.refs(), report);
  }

  std::vector<mflush::RunResult> results;
  for (const Point& p : points) {
    mflush::RunResult r;
    r.workload = wl.name;
    r.policy = p.policy.label();
    r.metrics = *p.reference;
    results.push_back(std::move(r));
  }
  return metrics_digest(results);
}

}  // namespace

std::uint64_t run_chip8_fixed(const Args& args, Report& report) {
  return run_chip({false,
                   {PolicySpec::icount(), PolicySpec::mflush()},
                   4,
                   30'000,
                   20'000},
                  args, report);
}

std::uint64_t run_chip8_dram_far(const Args& args, Report& report) {
  // Far-memory intervals vary more with the trace seed, so more seeds.
  return run_chip({true,
                   {PolicySpec::flush_spec(30), PolicySpec::mflush()},
                   8,
                   30'000,
                   100'000},
                  args, report);
}

}  // namespace perfbench
