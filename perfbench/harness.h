#pragma once

// Shared pieces of mflushbench, the perfbench harness: host timing with
// drift correction, order statistics, the result report (metrics +
// operation counts), span recording for traced runs, and the SimMetrics
// digest.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment_spec.h"

namespace perfbench {

// ------------------------------------------------------------ host timing

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + system) of this process, of every child it has
/// reaped (children's CPU includes their own reaped descendants), and both.
[[nodiscard]] double self_cpu_seconds();
[[nodiscard]] double children_cpu_seconds();
[[nodiscard]] inline double cpu_seconds() {
  return self_cpu_seconds() + children_cpu_seconds();
}

/// Largest resident set so far, in MiB, of this process and of the largest
/// reaped descendant.
[[nodiscard]] double self_peak_rss_mb();
[[nodiscard]] double children_peak_rss_mb();

// ---------------------------------------------------- drift correction
//
// Host speed drifts by tens of percent between and within processes on a
// shared machine. Every timed repetition is bracketed by runs of a fixed
// reference kernel (refkernel.cpp, independent of the simulator), and its
// time is scaled by kNominalRefSeconds / (the faster of the adjacent
// reference samples): a host running 20% slow stretches both, and the
// ratio cancels. The faster one, because work still draining from the
// repetition (a daemon's workers exiting) can only slow a sample down.

/// Nominal reference-kernel time: its median on a 4-vCPU x86-64 container
/// with gcc 12 -O2. Only a scale factor — corrected times are expressed in
/// "seconds on a host where the kernel takes this long".
inline constexpr double kNominalRefSeconds = 0.0050;

/// One run of the reference kernel; returns its wall time in seconds.
double run_reference_kernel();

/// `raw_s` scaled to the nominal host speed, given the adjacent reference
/// time `ref_s`.
[[nodiscard]] double drift_correct(double raw_s, double ref_s,
                                   double nominal_s = kNominalRefSeconds);

/// One drift-corrected measurement.
struct Timed {
  double raw_s = 0.0;
  double ref_s = 0.0;  ///< faster of the reference samples before and after
  double corrected_s = 0.0;
  /// Factor that maps a raw time taken inside this interval to nominal.
  [[nodiscard]] double factor() const { return kNominalRefSeconds / ref_s; }
};

/// Times code between reference samples. A sample that ended immediately
/// before the next timed section is reused as its "before" sample, so
/// back-to-back sections cost one sample each. A sample is the median of
/// `runs_per_sample` kernel runs: one suffices next to sub-second sections
/// with many repetitions; multi-second sections with few repetitions take
/// more, so one slow kernel run cannot skew a whole repetition.
class DriftClock {
 public:
  explicit DriftClock(int runs_per_sample = 1)
      : runs_per_sample_(runs_per_sample) {}

  template <class F>
  Timed time(F&& fn) {
    if (now_s() - last_ref_end_ > kReuseWindowS) sample();
    const double before = last_ref_;
    const double t0 = now_s();
    std::forward<F>(fn)();
    const double raw = now_s() - t0;
    sample();
    const double ref = std::min(before, last_ref_);
    return {raw, ref, drift_correct(raw, ref)};
  }

  /// Every reference sample so far.
  [[nodiscard]] const std::vector<double>& refs() const { return refs_; }

 private:
  static constexpr double kReuseWindowS = 0.001;
  void sample();

  int runs_per_sample_;
  double last_ref_ = 0.0;
  double last_ref_end_ = -1.0;
  std::vector<double> refs_;
};

// ------------------------------------------------------ order statistics

[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The highest of the percentiles 50, 90, 99, 99.9 that still has at least
/// ten samples beyond it in a sample of `n`; 0 when not even the median
/// does (n < 20).
[[nodiscard]] double highest_reportable_percentile(std::size_t n);

// ------------------------------------------------------------- reporting

[[nodiscard]] bool valid_metric_name(std::string_view name);
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Everything one run prints: metrics by name with units, plus the
/// operations attempted and failed. A failed output check is a failed
/// operation, never a crash.
class Report {
 public:
  explicit Report(bool log_failures = true) : log_failures_(log_failures) {}

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Throws std::invalid_argument on an invalid or repeated name/unit.
  void add(const std::string& name, double value, const std::string& unit);

  /// Count one operation; a false `ok` counts it failed and logs `what`.
  bool check(bool ok, const std::string& what);

  /// A line printed before the result line (diagnostics for humans).
  void note(const std::string& line) { notes_.push_back(line); }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  bool log_failures_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- spans

/// Spans recorded around calls into the simulator's public API in traced
/// repetitions; the per-layer times are computed from them. A closed span's
/// duration is kept under its name until take_total() collects it.
/// Disabled (the untraced run, or an untraced repetition of a traced run),
/// span() records nothing.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* t, std::string_view name)
        : t_(t), name_(name), start_s_(t ? now_s() : 0.0) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer* t_;
    std::string_view name_;
    double start_s_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Switch recording between repetitions (never with a span open).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// `name` must outlive the span (a string literal).
  [[nodiscard]] Span span(std::string_view name) {
    return Span(enabled_ ? this : nullptr, name);
  }

  /// Total seconds of the spans named `name` closed since the last call
  /// for that name, which are then forgotten.
  double take_total(std::string_view name);

 private:
  bool enabled_;
  std::map<std::string, double, std::less<>> totals_;
};

// --------------------------------------------------------------- digest

/// FNV-1a over the results' simulated content: workload, policy and every
/// SimMetrics field, in the order given. Host-time fields are excluded, so
/// a change that only alters speed leaves the digest unchanged.
[[nodiscard]] std::uint64_t metrics_digest(
    const std::vector<mflush::RunResult>& results);

[[nodiscard]] std::string hex64(std::uint64_t v);

// ------------------------------------------------------ metric catalog

/// (name, unit) of every per-layer metric, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

/// Drift-corrected samples of one end-to-end quantity, with the raw values
/// kept for the host.raw_* diagnostics.
struct Series {
  std::vector<double> corrected;
  std::vector<double> raw;
  void add(double raw_value, double factor) {
    raw.push_back(raw_value);
    corrected.push_back(raw_value * factor);
  }
  /// A throughput: `count` units of work done in `raw_s` host seconds.
  void add_rate(double count, double raw_s, double factor) {
    raw.push_back(count / raw_s);
    corrected.push_back(count / (raw_s * factor));
  }
};

/// What every workload measures for the end-to-end metrics. Times are in
/// seconds here and converted to each metric's unit on output.
struct EndToEnd {
  Series setup_s;
  Series committed_per_s;
  Series campaign_s;
  Series first_result_s;
  Series cpu_s;
  Series attach_s;
  /// self_peak_rss_mb() at the end of the first measured repetition. Later
  /// repetitions only add parents to the process-wide warm registry, which
  /// keeps every one for the life of the process, so the harness's final
  /// peak would grow with the number of repetitions a run has time for.
  double harness_peak_rss_mb = 0.0;
  /// Corrected campaign_s of traced and untraced repetitions of a traced
  /// run: their medians give trace.overhead_frac.
  std::vector<double> campaign_traced_s;
  std::vector<double> campaign_untraced_s;
};

/// Per-layer values keyed by catalog name; every entry starts at 0, which
/// is what a layer the workload does not exercise reports.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<double> values_;
};

/// The end-to-end metrics (medians of `e2e`) into `report`, plus a note
/// with the same figures uncorrected. Throws when a series is empty.
void report_end_to_end(const EndToEnd& e2e,
                       const std::vector<double>& clock_refs, Report& report);

/// host.* diagnostics (raw medians, reference time and its spread) and
/// trace.overhead_frac.
void fill_host_layers(const EndToEnd& e2e, const DriftClock& clock,
                      Layers& layers);

/// Sums the simulated counters every SimMetrics carries (flush, branch,
/// L2 and DRAM behaviour) into the matching per-layer entries.
void add_metric_counters(const mflush::SimMetrics& m, Layers& layers);

// ------------------------------------------------------------- run setup

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt one result before it is checked (proves a mismatch is
  /// reported as a failed operation).
  bool force_mismatch = false;
  /// Scratch root inside the checkout for data directories and sockets.
  std::string work_dir;
  /// Directory holding this binary and the mflushsim it spawns.
  std::string bin_dir;
};

/// Count and total bytes of the regular files under `dir` (recursively)
/// whose name ends with `suffix` (empty = all).
struct DirFootprint {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] DirFootprint footprint(const std::string& dir,
                                     std::string_view suffix = {});

// ------------------------------------------------------------ workloads

/// Each runs one workload for about `args.seconds` of measurement after
/// its set-up, checks its outputs into `report`, and adds its metrics:
/// the end-to-end ones untraced, the per-layer ones when traced. Returns
/// the SimMetrics digest of the workload's results.
std::uint64_t run_chip8_fixed(const Args& args, Report& report);
std::uint64_t run_chip8_dram_far(const Args& args, Report& report);
std::uint64_t run_sweep_remote(const Args& args, Report& report);
std::uint64_t run_daemon_two_tenants(const Args& args, Report& report);

/// The k-th simulation seed a run derives from its --seed (k = 0 is the
/// seed itself). Runs average over several derived seeds so that their
/// medians do not rest on one trace's content.
[[nodiscard]] inline std::uint64_t derived_seed(std::uint64_t seed,
                                                std::uint64_t k) {
  return seed + 1'000'003ull * k;
}

/// The sampled grid every distributed workload runs: `workload_names` x
/// {ICOUNT, FLUSH-S30, MFLUSH} x 4 forks, 20k warm-up, 8k measured cycles,
/// one round.
[[nodiscard]] mflush::ExperimentSpec sampled_grid_spec(
    const std::vector<std::string>& workload_names, std::uint64_t seed);

/// Object sizes as the library was compiled (layout_probe.cpp is built into
/// the library target, with its flags). The self-test compares them with
/// mflushbench's own view.
struct LibraryLayout {
  unsigned long cmp_simulator;
  unsigned long memory_hierarchy;
  unsigned long smt_core;
};
LibraryLayout library_layout();

/// mflushbench's self-test: drift arithmetic, the percentile rule, metric
/// names, failure accounting, and the library/harness layout match.
/// Returns false (after logging to stderr) on any failure.
bool run_selftest();

}  // namespace perfbench
