// mflushbench's self-test, run before every measurement: a failure stops
// the run before it reports anything.
#include <cmath>
#include <iostream>
#include <string>

#include "harness.h"
#include "sim/cmp.h"

namespace perfbench {

namespace {

bool expect(bool ok, const std::string& what) {
  if (!ok) std::cerr << "perfbench selftest: FAILED: " << what << '\n';
  return ok;
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::fabs(b);
}

bool drift_arithmetic() {
  bool ok = true;
  ok &= expect(near(drift_correct(1.0, 0.008, 0.008), 1.0),
               "a host at nominal speed is not corrected");
  ok &= expect(near(drift_correct(2.0, 0.016, 0.008), 1.0),
               "a host at half speed is corrected back to nominal");
  ok &= expect(near(drift_correct(0.5, 0.004, 0.008), 1.0),
               "a host at double speed is corrected back to nominal");
  Timed t{0.3, 0.012, drift_correct(0.3, 0.012)};
  ok &= expect(near(0.3 * t.factor(), t.corrected_s),
               "Timed::factor agrees with drift_correct");
  bool threw = false;
  try {
    (void)drift_correct(1.0, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  ok &= expect(threw, "a zero reference time is rejected");
  return ok;
}

bool percentile_rule() {
  bool ok = true;
  ok &= expect(highest_reportable_percentile(19) == 0.0,
               "n=19 has no percentile");
  ok &= expect(highest_reportable_percentile(20) == 50.0, "n=20 gives p50");
  ok &= expect(highest_reportable_percentile(99) == 50.0, "n=99 gives p50");
  ok &= expect(highest_reportable_percentile(100) == 90.0, "n=100 gives p90");
  ok &= expect(highest_reportable_percentile(999) == 90.0, "n=999 gives p90");
  ok &= expect(highest_reportable_percentile(1000) == 99.0, "n=1000 gives p99");
  ok &= expect(highest_reportable_percentile(10000) == 99.9,
               "n=10000 gives p99.9");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  ok &= expect(percentile(v, 90) == 90.0, "p90 of 1..100 is 90");
  ok &= expect(percentile(v, 100) == 100.0, "p100 of 1..100 is 100");
  ok &= expect(median(v) == 50.5, "median of 1..100 is 50.5");
  ok &= expect(median({3.0, 1.0, 2.0}) == 2.0, "median of 3 values");
  return ok;
}

bool metric_names() {
  bool ok = true;
  // Report::add validates every name and unit it is given and rejects
  // repeats, so emitting both metric sets through it checks them all.
  EndToEnd e2e;
  for (int i = 0; i < 100; ++i) {
    for (Series* s : {&e2e.setup_s, &e2e.committed_per_s, &e2e.campaign_s,
                      &e2e.first_result_s, &e2e.cpu_s, &e2e.attach_s})
      s->add(1.0 + i, 1.0);
  }
  e2e.harness_peak_rss_mb = 1.0;
  try {
    Report end_to_end, per_layer;
    report_end_to_end(e2e, {0.005}, end_to_end);
    Layers().emit(per_layer);
    ok &= expect(per_layer.metrics().size() == per_layer_catalog().size(),
                 "every per-layer metric is emitted");
  } catch (const std::exception& e) {
    ok &= expect(false, std::string("metric catalog: ") + e.what());
  }
  const std::string too_long(65, 'x');
  for (const std::string& bad :
       {std::string(), std::string("_lead"), std::string(".lead"),
        std::string("has space"), std::string("semi;colon"), too_long}) {
    ok &= expect(!valid_metric_name(bad), "bad name accepted: " + bad);
  }
  ok &= expect(valid_metric_name(std::string(64, 'x')),
               "a 64-letter name is accepted");
  ok &= expect(!valid_unit("") && !valid_unit("m s") &&
                   !valid_unit(std::string(17, 's')),
               "bad units rejected");
  Report r;
  r.add("a.b", 1.0, "s");
  bool threw = false;
  try {
    r.add("a.b", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  ok &= expect(threw, "a repeated metric name is rejected");
  return ok;
}

bool corrupted_result_counts_as_failed() {
  mflush::RunResult good;
  good.workload = "8W3";
  good.policy = "MFLUSH";
  good.metrics.committed = 1000;
  good.metrics.cycles = 500;
  mflush::RunResult bad = good;
  ++bad.metrics.committed;
  Report r(/*log_failures=*/false);
  r.check(good.metrics == good.metrics, "identical results");
  r.check(bad.metrics == good.metrics, "corrupted result");
  bool ok = true;
  ok &= expect(r.attempted() == 2 && r.failed() == 1,
               "a corrupted result is one failed operation");
  ok &= expect(r.json().find("\"correct\": false") != std::string::npos,
               "a failed operation makes the run incorrect");
  ok &= expect(metrics_digest({good}) != metrics_digest({bad}),
               "the digest sees a one-instruction difference");
  mflush::RunResult slower = good;
  slower.wall_seconds = 9.0;
  ok &= expect(metrics_digest({good}) == metrics_digest({slower}),
               "the digest ignores host time");
  return ok;
}

bool layout_matches_library() {
  const LibraryLayout lib = library_layout();
  const bool ok = lib.cmp_simulator == sizeof(mflush::CmpSimulator) &&
                  lib.memory_hierarchy == sizeof(mflush::MemoryHierarchy) &&
                  lib.smt_core == sizeof(mflush::SmtCore);
  return expect(ok,
                "mflushbench and libmflush disagree on object layout (sizeof "
                "CmpSimulator " + std::to_string(sizeof(mflush::CmpSimulator)) +
                    " vs " + std::to_string(lib.cmp_simulator) +
                    "): build both with the same NDEBUG setting");
}

}  // namespace

bool run_selftest() {
  bool ok = layout_matches_library();
  ok &= drift_arithmetic();
  ok &= percentile_rule();
  ok &= metric_names();
  ok &= corrupted_result_counts_as_failed();
  return ok;
}

}  // namespace perfbench
