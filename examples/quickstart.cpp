/// Quickstart: describe an experiment as data, run it, and see the same
/// study expressed as a spec file for `mflushsim --spec`.
///
/// The paper's Fig. 2 setting: a 1-core 2-context SMT chip running the 2W3
/// workload (mcf + gzip) under ICOUNT, FLUSH-S30 and MFLUSH.
#include <iostream>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/report.h"
#include "sim/workloads.h"

int main() {
  using namespace mflush;

  const auto workload = workloads::by_name("2W3");
  if (!workload) {
    std::cerr << "workload table is missing 2W3\n";
    return 1;
  }
  std::cout << "Workload 2W3 = " << workload->describe() << " on "
            << workload->num_cores() << " core(s)\n\n";

  // An experiment is a value: workloads x policies x seeds x interval.
  ExperimentSpec spec;
  spec.name = "quickstart";
  spec.workloads = {*workload};
  spec.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                   PolicySpec::mflush()};
  spec.warmup = warmup_cycles(10'000);
  spec.measure = bench_cycles(60'000);

  // The same study as a spec file — save this as quickstart.spec and
  // `mflushsim --spec quickstart.spec` (add `--backend remote` to fan the
  // jobs out across mflushsim subprocesses) reproduces the run below.
  std::cout << "-- equivalent spec file (mflushsim --spec FILE):\n"
            << spec.to_text() << '\n';

  // Execute on the in-process backend; results stream through the sink as
  // they finish and collect() returns them in job order.
  InProcessBackend backend;
  ResultSink sink;
  for (const RunResult& r : run_experiment(spec, backend, sink)) {
    std::cout << report::summarize(r) << '\n';
  }
  return 0;
}
