// sweep_remote: a cold sampled sweep run as a durable campaign through
// RemoteBackend/LocalTransport on one `local slots=2` host with a warm
// store. Short intervals keep the simulation share small, so expand, the
// warm phase, snapshot shipping, worker spawns, result part files and the
// journal set the makespan.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/remote.h"
#include "sim/warmstore.h"
#include "sim/workloads.h"

namespace perfbench {

mflush::ExperimentSpec sampled_grid_spec(
    const std::vector<std::string>& workload_names, std::uint64_t seed) {
  mflush::ExperimentSpec s;
  s.name = "perfbench";
  for (const std::string& n : workload_names)
    s.workloads.push_back(*mflush::workloads::by_name(n));
  s.policies = {mflush::PolicySpec::icount(),
                mflush::PolicySpec::flush_spec(30),
                mflush::PolicySpec::mflush()};
  s.seeds = {seed};
  s.warmup = 20'000;
  s.measure = 8'000;
  s.mode = mflush::RunMode::Sampled;
  s.sampled.forks = 4;
  s.sampled.target_half_width = 0.0;
  s.sampled.max_rounds = 1;
  return s;
}

namespace {

namespace fs = std::filesystem;

/// Set-up is well under a millisecond, so its median needs many
/// repetitions, each bracketed by its own reference sample.
constexpr int kSetupOnlyReps = 40;
constexpr int kMinCampaignReps = 4;
/// Resubmits per repetition; even kMinCampaignReps of them give
/// the attach p90 far more than ten samples beyond it.
constexpr int kAttachPerRep = 60;
/// Jobs per repetition re-executed in process as an output check.
constexpr std::uint32_t kChecksPerRep = 2;

/// Everything a campaign needs before its first dispatch.
struct Rig {
  std::vector<mflush::JobSpec> jobs;  ///< as expanded, before any warm-up
  std::unique_ptr<mflush::WarmStore> warm;
  std::optional<mflush::CampaignStore> store;
  std::unique_ptr<mflush::RemoteBackend> backend;
};

Rig make_rig(const mflush::ExperimentSpec& spec,
             std::vector<mflush::JobSpec> jobs, const std::string& dir,
             const std::string& worker_bin) {
  Rig rig;
  rig.jobs = std::move(jobs);
  rig.warm = std::make_unique<mflush::WarmStore>(dir + "/warm");
  rig.store.emplace(mflush::CampaignStore::create(dir + "/campaign", spec));
  fs::create_directories(dir + "/scratch");
  mflush::RemoteBackend::Options o;
  o.hosts = {mflush::remote::parse_host("local slots=2")};
  o.worker_binary = worker_bin;
  o.scratch_dir = dir + "/scratch";
  o.warm_store = rig.warm.get();
  rig.backend = std::make_unique<mflush::RemoteBackend>(std::move(o));
  return rig;
}

/// Re-runs one of the campaign's jobs in process, independently of the
/// workers and of the process-wide warm registry: warms the parent from the
/// pristine expanded job, compares it with the snapshot the campaign
/// shipped, then runs the fork from it.
void check_job(const mflush::JobSpec& pristine, const mflush::JobSpec& shipped,
               const mflush::RunResult& remote_result, Report& report) {
  const std::string id = std::to_string(pristine.id);
  const mflush::RunResult parent =
      mflush::run_job(mflush::warmstore::warm_job_of(pristine));
  report.check(shipped.snapshot && parent.payload &&
                   *shipped.snapshot == *parent.payload,
               "job " + id + ": shipped parent snapshot differs from a local "
                             "warm-up");
  mflush::JobSpec local = pristine;
  local.snapshot = parent.payload;
  report.check(mflush::run_job(local).metrics == remote_result.metrics,
               "job " + id + " differs from an in-process run_job");
}

}  // namespace

std::uint64_t run_sweep_remote(const Args& args, Report& report) {
  const std::vector<std::string> grid = {"2W1", "2W3", "4W2", "4W4"};
  const std::string worker_bin = args.bin_dir + "/mflushsim";
  const std::uint32_t slots = 2;
  DriftClock clock(5);
  Tracer tracer(args.trace);
  EndToEnd e2e;
  Layers layers;

  // ---- set-up only: expand + warm store + campaign store + backend.
  std::vector<double> expand_ms;
  const auto setup_spec = sampled_grid_spec(grid, args.seed);
  for (int rep = 0; rep < kSetupOnlyReps; ++rep) {
    const std::string dir = args.work_dir + "/setup" + std::to_string(rep);
    std::optional<Rig> rig;
    const Timed t = clock.time([&] {
      std::vector<mflush::JobSpec> jobs;
      {
        const auto s = tracer.span("ExperimentSpec::expand");
        jobs = setup_spec.expand();
      }
      rig.emplace(make_rig(setup_spec, std::move(jobs), dir, worker_bin));
    });
    e2e.setup_s.add(t.raw_s, t.factor());
    if (tracer.enabled()) {
      expand_ms.push_back(1e3 * tracer.take_total("ExperimentSpec::expand") *
                          t.factor());
    }
  }
  for (int rep = 0; rep < kSetupOnlyReps; ++rep)
    fs::remove_all(args.work_dir + "/setup" + std::to_string(rep));

  // ---- cold campaigns. The in-process warm registry outlives a
  // repetition, so each repetition sweeps its own seed (derived from
  // --seed) to keep every warm-up cold.
  std::uint64_t digest0 = 0;
  std::vector<double> warm_phase_s, busy_frac, overhead_s;
  bool counted = false;
  const double t_end = now_s() + args.seconds;
  for (int rep = 0; rep < kMinCampaignReps || now_s() < t_end; ++rep) {
    const bool traced = args.trace && rep % 2 == 0;
    tracer.set_enabled(traced);
    const std::string dir = args.work_dir + "/rep" + std::to_string(rep);
    const auto spec = sampled_grid_spec(
        grid, derived_seed(args.seed, static_cast<std::uint64_t>(rep)));
    std::optional<Rig> rig_slot;
    rig_slot.emplace(make_rig(spec, spec.expand(), dir, worker_bin));
    Rig& rig = *rig_slot;

    const std::uint32_t n_jobs = static_cast<std::uint32_t>(rig.jobs.size());
    // kChecksPerRep evenly spaced jobs, offset by seed and repetition.
    const std::uint32_t stride = n_jobs / kChecksPerRep;
    const std::uint32_t offset =
        static_cast<std::uint32_t>((args.seed * 31 + rep * 7) % stride);
    std::vector<double> result_t;
    std::vector<std::pair<mflush::JobSpec, mflush::RunResult>> picks;
    mflush::ResultSink sink(
        [&](const mflush::JobSpec& job, const mflush::RunResult& r) {
          result_t.push_back(now_s());
          if (job.id % stride == offset) picks.emplace_back(job, r);
        });
    double warm_done = 0.0;
    mflush::RunOptions ro;
    ro.warm_store = rig.warm.get();
    ro.on_event = [&](const std::string& line) {
      if (line.find("parent(s)") != std::string::npos) warm_done = now_s();
    };
    std::vector<mflush::RunResult> results;
    double t_submit = 0.0, cpu = 0.0;
    const Timed t = clock.time([&] {
      const double cpu0 = cpu_seconds();
      t_submit = now_s();
      const auto s = tracer.span("run_experiment_durable");
      results =
          mflush::run_experiment_durable(*rig.store, *rig.backend, sink, ro);
      cpu = cpu_seconds() - cpu0;
    });
    const mflush::WarmStore::Stats warm_stats = rig.warm->stats();

    // Identical resubmits: resume the finished campaign, all from cache.
    // They are milliseconds each, so one reference sample brackets them all.
    std::vector<std::uint64_t> attach_digests;
    std::vector<double> attach_raw;
    const Timed ta = clock.time([&] {
      for (int k = 0; k < kAttachPerRep; ++k) {
        std::vector<mflush::RunResult> again;
        const double a = now_s();
        auto store = mflush::CampaignStore::resume(dir + "/campaign");
        mflush::ResultSink s2;
        mflush::RunOptions ra;
        ra.warm_store = rig.warm.get();
        again = mflush::run_experiment_durable(store, *rig.backend, s2, ra);
        attach_raw.push_back(now_s() - a);
        attach_digests.push_back(metrics_digest(again));
      }
    });
    for (const double r : attach_raw) e2e.attach_s.add(r, ta.factor());

    // ---- outputs.
    const double f = t.factor();
    double committed = 0.0, wall = 0.0;
    for (const auto& r : results) {
      committed += static_cast<double>(r.metrics.committed);
      wall += r.wall_seconds;
    }
    const double campaign_raw =
        result_t.empty() ? t.raw_s : result_t.back() - t_submit;
    e2e.campaign_s.add(campaign_raw, f);
    if (e2e.harness_peak_rss_mb == 0.0)
      e2e.harness_peak_rss_mb = self_peak_rss_mb();
    e2e.first_result_s.add(
        result_t.empty() ? t.raw_s : result_t.front() - t_submit, f);
    e2e.cpu_s.add(cpu, f);
    e2e.committed_per_s.add_rate(committed, campaign_raw, f);
    if (args.trace) {
      (traced ? e2e.campaign_traced_s : e2e.campaign_untraced_s)
          .push_back(campaign_raw * f);
    }
    if (traced) {
      const double makespan = tracer.take_total("run_experiment_durable");
      warm_phase_s.push_back((warm_done - t_submit) * f);
      busy_frac.push_back(wall / (slots * makespan));
      overhead_s.push_back((makespan - wall / slots) * f);
    }

    report.check(results.size() == n_jobs,
                 "sweep returned " + std::to_string(results.size()) + " of " +
                     std::to_string(n_jobs) + " results");
    const std::uint64_t digest = metrics_digest(results);
    if (rep == 0) digest0 = digest;
    for (const std::uint64_t d : attach_digests)
      report.check(d == digest, "resubmitted campaign returned other results");
    if (args.force_mismatch && rep == 0 && !picks.empty())
      ++picks.front().second.metrics.committed;
    for (const auto& [job, remote_result] : picks)
      check_job(rig.jobs[job.id], job, remote_result, report);

    if (traced && !counted) {
      counted = true;
      for (const auto& r : results) add_metric_counters(r.metrics, layers);
      const DirFootprint warm = footprint(dir + "/warm", ".mfws");
      const DirFootprint cache = footprint(dir + "/campaign/cache", ".mfcr");
      layers.set("warmstore.entries", static_cast<double>(warm.files));
      layers.set("warmstore.bytes", static_cast<double>(warm.bytes));
      layers.set("warmstore.hits", static_cast<double>(warm_stats.hits));
      layers.set("warmstore.misses", static_cast<double>(warm_stats.misses));
      layers.set("campaign.cache_entries", static_cast<double>(cache.files));
      layers.set("campaign.cache_bytes", static_cast<double>(cache.bytes));
      layers.set("campaign.journal_bytes",
                 static_cast<double>(
                     footprint(dir + "/campaign", "journal.wal").bytes));
    }
    rig_slot.reset();
    fs::remove_all(dir);
  }
  tracer.set_enabled(args.trace);

  if (args.trace) {
    layers.set("spec.expand_ms", median(expand_ms));
    layers.set("experiment.warm_phase_s", median(warm_phase_s));
    layers.set("remote.sim_busy_frac", median(busy_frac));
    layers.set("remote.overhead_s", median(overhead_s));
    fill_host_layers(e2e, clock, layers);
    layers.emit(report);
  } else {
    report_end_to_end(e2e, clock.refs(), report);
  }
  return digest0;
}

}  // namespace perfbench
