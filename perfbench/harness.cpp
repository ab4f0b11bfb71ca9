#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/archive.h"
#include "sim/backend.h"

namespace perfbench {

namespace {

double rusage_cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

double self_cpu_seconds() { return rusage_cpu_seconds(RUSAGE_SELF); }

double children_cpu_seconds() { return rusage_cpu_seconds(RUSAGE_CHILDREN); }

namespace {

double rusage_peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

double self_peak_rss_mb() { return rusage_peak_rss_mb(RUSAGE_SELF); }

double children_peak_rss_mb() { return rusage_peak_rss_mb(RUSAGE_CHILDREN); }

double drift_correct(double raw_s, double ref_s, double nominal_s) {
  if (!(ref_s > 0.0)) throw std::invalid_argument("reference time must be > 0");
  return raw_s * nominal_s / ref_s;
}

void DriftClock::sample() {
  std::vector<double> runs;
  for (int i = 0; i < runs_per_sample_; ++i)
    runs.push_back(run_reference_kernel());
  last_ref_ = median(std::move(runs));
  last_ref_end_ = now_s();
  refs_.push_back(last_ref_);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  // The epsilon keeps e.g. 0.9 * 100 = 90.00000000000001 at rank 90.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double highest_reportable_percentile(std::size_t n) {
  // Percentiles in tenths of a percent, so the rank is exact.
  for (const std::size_t p : {999, 990, 900, 500}) {
    const std::size_t rank = (p * n + 999) / 1000;  // nearest rank
    if (n >= rank + 10) return static_cast<double>(p) / 10.0;
  }
  return 0.0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name '" + name + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("invalid unit '" + unit + "' for " + name);
  if (!std::isfinite(value))
    throw std::invalid_argument("metric " + name + " is not finite");
  for (const Metric& m : metrics_) {
    if (m.name == name)
      throw std::invalid_argument("metric '" + name + "' reported twice");
  }
  metrics_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (log_failures_) std::cerr << "perfbench: FAILED: " << what << '\n';
  }
  return ok;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

Tracer::Span::~Span() {
  if (t_ == nullptr) return;
  const double d = now_s() - start_s_;
  const auto it = t_->totals_.find(name_);
  if (it == t_->totals_.end())
    t_->totals_.emplace(std::string(name_), d);
  else
    it->second += d;
}

double Tracer::take_total(std::string_view name) {
  const auto it = totals_.find(name);
  if (it == totals_.end()) return 0.0;
  const double total = it->second;
  totals_.erase(it);
  return total;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> c = {
      {"cmp.run_s", "s"},
      {"cmp.ctor_ms", "ms"},
      {"cmp.skip_frac", "ratio"},
      {"pipeline.fetched", "count"},
      {"pipeline.wrong_path", "count"},
      {"pipeline.issued", "count"},
      {"pipeline.useful_frac", "ratio"},
      {"core.flush_events", "count"},
      {"core.flushed_instrs", "count"},
      {"core.flushes_on_hit", "count"},
      {"branch.resolved", "count"},
      {"branch.mispredicts", "count"},
      {"mem.l2_hits", "count"},
      {"mem.l2_misses", "count"},
      {"mem.dram_row_hits", "count"},
      {"mem.dram_row_misses", "count"},
      {"mem.dram_row_conflicts", "count"},
      {"mem.dram_far", "count"},
      {"trace.gen_ns_per_instr", "ns"},
      {"snapshot.capture_ms", "ms"},
      {"snapshot.restore_ms", "ms"},
      {"snapshot.bytes", "bytes"},
      {"spec.expand_ms", "ms"},
      {"experiment.warm_phase_s", "s"},
      {"remote.sim_busy_frac", "ratio"},
      {"remote.overhead_s", "s"},
      {"warmstore.entries", "count"},
      {"warmstore.bytes", "bytes"},
      {"warmstore.hits", "count"},
      {"warmstore.misses", "count"},
      {"campaign.journal_bytes", "bytes"},
      {"campaign.cache_entries", "count"},
      {"campaign.cache_bytes", "bytes"},
      {"daemon.ready_ms", "ms"},
      {"daemon.executed", "count"},
      {"daemon.cached", "count"},
      {"daemon.exec_per_distinct", "ratio"},
      {"wire.result_frames", "count"},
      {"wire.result_bytes", "bytes"},
      {"attach.ms_p90", "ms"},
      {"host.ref_s", "s"},
      {"host.ref_iqr_frac", "ratio"},
      {"host.raw_setup_s", "s"},
      {"host.raw_committed_per_s", "1/s"},
      {"host.raw_campaign_s", "s"},
      {"host.raw_first_result_ms", "ms"},
      {"host.raw_cpu_s", "s"},
      {"host.raw_attach_ms_p50", "ms"},
      {"host.raw_attach_ms_p90", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return c;
}

namespace {

std::size_t layer_index(const std::string& name) {
  const auto& c = per_layer_catalog();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i].first == name) return i;
  }
  throw std::invalid_argument("unknown per-layer metric '" + name + "'");
}

double iqr_frac(const std::vector<double>& v) {
  if (v.size() < 4) return 0.0;
  return (percentile(v, 75) - percentile(v, 25)) / median(v);
}

}  // namespace

Layers::Layers() : values_(per_layer_catalog().size(), 0.0) {}

void Layers::set(const std::string& name, double value) {
  values_[layer_index(name)] = value;
}

void Layers::add(const std::string& name, double value) {
  values_[layer_index(name)] += value;
}

void Layers::emit(Report& report) const {
  const auto& c = per_layer_catalog();
  for (std::size_t i = 0; i < c.size(); ++i)
    report.add(c[i].first, values_[i], c[i].second);
}

namespace {

/// The attach p90, which the percentile rule allows only from >= 100
/// samples (ten beyond it).
double attach_p90(const std::vector<double>& attach_s) {
  if (highest_reportable_percentile(attach_s.size()) < 90.0) {
    throw std::runtime_error("attach p90 needs >= 100 samples, got " +
                             std::to_string(attach_s.size()));
  }
  return 1e3 * percentile(attach_s, 90.0);
}

}  // namespace

void report_end_to_end(const EndToEnd& e, const std::vector<double>& clock_refs,
                       Report& report) {
  report.add("setup_s", median(e.setup_s.corrected), "s");
  report.add("committed_per_s", median(e.committed_per_s.corrected), "1/s");
  report.add("campaign_s", median(e.campaign_s.corrected), "s");
  report.add("first_result_ms", 1e3 * median(e.first_result_s.corrected),
             "ms");
  report.add("cpu_s", median(e.cpu_s.corrected), "s");
  if (e.harness_peak_rss_mb <= 0.0)
    throw std::runtime_error("the harness's peak RSS was never sampled");
  report.add("peak_rss_mb",
             std::max(e.harness_peak_rss_mb, children_peak_rss_mb()), "MB");
  report.add("attach_ms_p50", 1e3 * median(e.attach_s.corrected), "ms");
  char raw[512];
  std::snprintf(raw, sizeof raw,
                "perfbench: uncorrected setup_s %.6g committed_per_s %.6g "
                "campaign_s %.6g first_result_ms %.6g cpu_s %.6g "
                "attach_ms_p50 %.6g attach_ms_p90 %.6g reference_s %.6g",
                median(e.setup_s.raw), median(e.committed_per_s.raw),
                median(e.campaign_s.raw), 1e3 * median(e.first_result_s.raw),
                median(e.cpu_s.raw), 1e3 * median(e.attach_s.raw),
                attach_p90(e.attach_s.raw), median(clock_refs));
  report.note(raw);
}

void fill_host_layers(const EndToEnd& e, const DriftClock& clock,
                      Layers& layers) {
  layers.set("host.ref_s", median(clock.refs()));
  layers.set("host.ref_iqr_frac", iqr_frac(clock.refs()));
  layers.set("host.raw_setup_s", median(e.setup_s.raw));
  layers.set("host.raw_committed_per_s", median(e.committed_per_s.raw));
  layers.set("host.raw_campaign_s", median(e.campaign_s.raw));
  layers.set("host.raw_first_result_ms", 1e3 * median(e.first_result_s.raw));
  layers.set("host.raw_cpu_s", median(e.cpu_s.raw));
  layers.set("host.raw_attach_ms_p50", 1e3 * median(e.attach_s.raw));
  layers.set("attach.ms_p90", attach_p90(e.attach_s.corrected));
  layers.set("host.raw_attach_ms_p90", attach_p90(e.attach_s.raw));
  if (!e.campaign_traced_s.empty() && !e.campaign_untraced_s.empty()) {
    layers.set("trace.overhead_frac", median(e.campaign_traced_s) /
                                          median(e.campaign_untraced_s) -
                                          1.0);
  }
}

void add_metric_counters(const mflush::SimMetrics& m, Layers& layers) {
  layers.add("core.flush_events", static_cast<double>(m.flush_events));
  layers.add("core.flushed_instrs",
             static_cast<double>(m.flushed_instructions));
  layers.add("core.flushes_on_hit",
             static_cast<double>(m.policy_flushes_on_hit));
  layers.add("branch.resolved", static_cast<double>(m.branches_resolved));
  layers.add("branch.mispredicts", static_cast<double>(m.mispredicts));
  layers.add("mem.l2_hits", static_cast<double>(m.l2_hits_observed));
  layers.add("mem.l2_misses", static_cast<double>(m.l2_misses_observed));
  layers.add("mem.dram_row_hits", static_cast<double>(m.dram_row_hits));
  layers.add("mem.dram_row_misses", static_cast<double>(m.dram_row_misses));
  layers.add("mem.dram_row_conflicts",
             static_cast<double>(m.dram_row_conflicts));
  layers.add("mem.dram_far", static_cast<double>(m.dram_far_accesses));
}

std::uint64_t metrics_digest(const std::vector<mflush::RunResult>& results) {
  std::vector<std::pair<std::uint32_t, mflush::RunResult>> entries;
  entries.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    mflush::RunResult r;
    r.workload = results[i].workload;
    r.policy = results[i].policy;
    r.metrics = results[i].metrics;
    entries.emplace_back(static_cast<std::uint32_t>(i), std::move(r));
  }
  return mflush::fnv1a(mflush::worker::encode_results(entries));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

DirFootprint footprint(const std::string& dir, std::string_view suffix) {
  namespace fs = std::filesystem;
  DirFootprint fp;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return fp;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
             0))
      continue;
    ++fp.files;
    fp.bytes += e.file_size(ec);
  }
  return fp;
}

}  // namespace perfbench
