/// perf_simloop — simulator-throughput benchmark (not a paper figure).
///
/// Runs the same 4-point sweep (2W3 under the four Fig. 8 policies) twice:
/// once serially (1 job) and once on the parallel experiment engine
/// (MFLUSH_JOBS or all hardware threads), verifies the two are
/// bit-identical, and reports simulated kilo-cycles per wall-clock second
/// (KIPS) for both.
///
/// A third scenario times the sampled-mode warm-store path: a fixed
/// 6-point sampled grid (2 workloads x 3 policies, 4 forks each) runs
/// against a cold store (parents warm as parallel jobs, entries written)
/// and again against the hot store (zero warm-up simulation), next to the
/// old serial warm-every-parent loop — `sweep_points_per_sec` tracks the
/// cold path, `sweep_points_per_sec_hot` the reuse path.
///
/// The last stdout line is a single JSON object (BENCH_*.json-compatible)
/// so CI can track the perf trajectory:
///   {"bench":"perf_simloop","jobs":4,...,"speedup":3.8,"identical":true}
///
/// Exit status: 0 on success, 1 when parallel metrics diverge from serial
/// (a determinism regression — never expected) or the hot sweep still
/// warmed something.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/parallel.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/workloads.h"

namespace {

using namespace mflush;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  ExperimentSpec spec;
  spec.name = "perf_simloop";
  spec.workloads = {*workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                   PolicySpec::flush_spec(100), PolicySpec::mflush()};
  spec.warmup = warmup_cycles(10'000);
  spec.measure = bench_cycles(60'000);
  const std::vector<JobSpec> jobs = spec.expand();

  const Cycle warm = spec.warmup;
  const Cycle measure = spec.measure;
  const auto total_cycles =
      static_cast<double>((warm + measure) * jobs.size());

  std::cout << "== perf_simloop: simulated-cycles-per-second, serial vs "
               "parallel backend\n   4-point sweep (2W3 x 4 policies), "
            << warm + measure << " cycles per point\n\n";

  SerialBackend serial;
  std::vector<RunResult> serial_results;
  // One untimed warm pass so both timed passes see hot caches/allocators.
  (void)serial.run_collect(jobs);
  const double serial_s =
      seconds_of([&] { serial_results = serial.run_collect(jobs); });

  InProcessBackend pool_backend;
  ParallelRunner& pool = ParallelRunner::shared();
  std::vector<RunResult> parallel_results;
  const double parallel_s = seconds_of(
      [&] { parallel_results = pool_backend.run_collect(jobs); });

  bool identical = serial_results.size() == parallel_results.size();
  for (std::size_t i = 0; identical && i < serial_results.size(); ++i)
    identical = serial_results[i].metrics == parallel_results[i].metrics;

  const double serial_kips = total_cycles / serial_s / 1e3;
  const double parallel_kips = total_cycles / parallel_s / 1e3;
  const double speedup = serial_s / parallel_s;

  // Chip-scale serial point (4 cores, MFLUSH): the per-cycle data
  // structures (wakeup wheel, LSQ issue list, policy token tables) scale
  // with chip size, which the 1-core sweep above barely exercises. Kept as
  // a separate JSON field so serial_kips stays comparable across runs.
  const Cycle big_cycles = warm + measure;
  double bigchip_s = 0.0;
  std::uint64_t bigchip_committed = 0;
  {
    const Workload wl = *workloads::by_name("8W3");
    CmpSimulator warm_sim(wl, PolicySpec::mflush(), 1);
    warm_sim.run(big_cycles);  // untimed warm pass
    bigchip_s = seconds_of([&] {
      CmpSimulator sim(wl, PolicySpec::mflush(), 1);
      sim.run(big_cycles);
      bigchip_committed = sim.metrics().committed;
    });
  }
  const double bigchip_kips = static_cast<double>(big_cycles) / bigchip_s / 1e3;
  // Work-normalized: committed instructions per second. Cycles/sec alone
  // rewards a change that simulates less work per cycle.
  const double bigchip_committed_per_sec =
      static_cast<double>(bigchip_committed) / bigchip_s;

  // Banked-DRAM serial point (4 cores, MFLUSH): the wheel-scheduled
  // completion path plus per-access bank/channel reservation — the cost of
  // the memory-model seam's non-trivial branch. Separate JSON field so
  // serial_kips (fixed-latency) stays comparable across runs.
  double dram_s = 0.0;
  {
    const Workload wl = *workloads::by_name("8W3");
    SimConfig cfg = SimConfig::paper_default(wl.num_cores(), 1);
    cfg.mem.memory_model = MemModelKind::BankedDram;
    CmpSimulator warm_sim(cfg, wl, PolicySpec::mflush());
    warm_sim.run(big_cycles);  // untimed warm pass
    dram_s = seconds_of([&] {
      CmpSimulator sim(cfg, wl, PolicySpec::mflush());
      sim.run(big_cycles);
    });
  }
  const double dram_kips = static_cast<double>(big_cycles) / dram_s / 1e3;

  // Sampled-grid warm-store scenario: 6 points x 4 forks. The serial
  // warm-every-parent loop is the pre-warm-store baseline; the cold run
  // warms the same parents as parallel jobs while filling the store; the
  // hot run reuses every entry and must simulate zero warm-up cycles.
  ExperimentSpec sweep;
  sweep.name = "perf_sweep";
  sweep.workloads = {*workloads::by_name("2W3"), *workloads::by_name("2W1")};
  sweep.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                    PolicySpec::mflush()};
  sweep.warmup = warm;
  sweep.measure = measure;
  sweep.mode = RunMode::Sampled;
  sweep.sampled.forks = 4;
  sweep.sampled.fork_stride = measure / 2;
  const std::vector<JobSpec> sweep_jobs = sweep.expand();
  const auto sweep_points = static_cast<double>(sweep.num_points());

  const double warm_serial_s = seconds_of([&] {
    for (std::size_t p = 0; p < sweep.num_points(); ++p) {
      const JobSpec& j = sweep_jobs[p * sweep.sampled.forks];
      CmpSimulator parent(j.workload, j.policy, j.seed);
      parent.run(j.warmup);
      (void)snapshot::capture(parent);
    }
  });

  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      ("mflush-perfsweep-" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);

  std::vector<RunResult> sweep_cold, sweep_hot;
  WarmStore store(store_dir.string());
  RunOptions ropts;
  ropts.warm_store = &store;
  const double sweep_cold_s = seconds_of([&] {
    ResultSink sink;
    sweep_cold = run_experiment(sweep, pool_backend, sink, ropts);
  });
  const WarmStore::Stats cold_stats = store.stats();
  const double sweep_hot_s = seconds_of([&] {
    ResultSink sink;
    sweep_hot = run_experiment(sweep, pool_backend, sink, ropts);
  });
  const WarmStore::Stats hot_stats = store.stats();
  std::filesystem::remove_all(store_dir);
  // The hot pass warmed nothing iff the store gained no entries and saw no
  // new misses after the cold pass.
  const bool zero_warm_hot = hot_stats.stored == cold_stats.stored &&
                             hot_stats.misses == cold_stats.misses;

  // Store-less serial reference last: it reuses the in-process registry,
  // so it adds no warm-up time but pins the bit-identity contract.
  SerialBackend sweep_serial;
  ResultSink sweep_serial_sink;
  const std::vector<RunResult> sweep_ref =
      run_experiment(sweep, sweep_serial, sweep_serial_sink);
  bool sweep_identical = sweep_cold.size() == sweep_ref.size() &&
                         sweep_hot.size() == sweep_ref.size();
  for (std::size_t i = 0; sweep_identical && i < sweep_ref.size(); ++i) {
    sweep_identical = sweep_cold[i].metrics == sweep_ref[i].metrics &&
                      sweep_hot[i].metrics == sweep_ref[i].metrics;
  }

  const double sweep_pps = sweep_points / sweep_cold_s;
  const double sweep_pps_hot = sweep_points / sweep_hot_s;

  std::cout << "serial   (1 job):   " << serial_s << " s, " << serial_kips
            << " KIPS\n"
            << "parallel (" << pool.jobs() << " jobs): " << parallel_s
            << " s, " << parallel_kips << " KIPS\n"
            << "speedup: " << speedup << "x, metrics "
            << (identical ? "bit-identical" : "DIVERGED") << "\n"
            << "8W3 chip (serial): " << bigchip_s << " s, " << bigchip_kips
            << " KIPS, " << bigchip_committed_per_sec << " committed/s\n"
            << "8W3 chip (serial, banked DRAM): " << dram_s << " s, "
            << dram_kips << " KIPS\n"
            << "sampled sweep (" << sweep.num_points() << " points, "
            << sweep_jobs.size() << " forks): warm-serial "
            << warm_serial_s << " s, cold " << sweep_cold_s << " s ("
            << sweep_pps << " points/s), hot " << sweep_hot_s << " s ("
            << sweep_pps_hot << " points/s), "
            << (zero_warm_hot ? "zero warm-up on hot" : "HOT RUN WARMED")
            << ", metrics "
            << (sweep_identical ? "bit-identical" : "DIVERGED") << "\n\n";

  // Machine-readable trajectory record: keep this the last stdout line.
  std::cout << "{\"bench\":\"perf_simloop\",\"jobs\":" << pool.jobs()
            << ",\"points\":" << jobs.size()
            << ",\"cycles_per_point\":" << warm + measure
            << ",\"serial_seconds\":" << serial_s
            << ",\"parallel_seconds\":" << parallel_s
            << ",\"serial_kips\":" << serial_kips
            << ",\"parallel_kips\":" << parallel_kips
            << ",\"bigchip_serial_kips\":" << bigchip_kips
            << ",\"bigchip_committed_per_sec\":" << bigchip_committed_per_sec
            << ",\"dram_serial_kips\":" << dram_kips
            << ",\"speedup\":" << speedup << ",\"identical\":"
            << (identical ? "true" : "false")
            << ",\"sweep_points\":" << sweep.num_points()
            << ",\"sweep_jobs\":" << sweep_jobs.size()
            << ",\"sweep_warm_serial_seconds\":" << warm_serial_s
            << ",\"sweep_cold_seconds\":" << sweep_cold_s
            << ",\"sweep_hot_seconds\":" << sweep_hot_s
            << ",\"sweep_points_per_sec\":" << sweep_pps
            << ",\"sweep_points_per_sec_hot\":" << sweep_pps_hot
            << ",\"sweep_zero_warm_hot\":" << (zero_warm_hot ? "true" : "false")
            << ",\"sweep_identical\":" << (sweep_identical ? "true" : "false")
            << "}" << std::endl;

  return identical && sweep_identical && zero_warm_hot ? 0 : 1;
}
