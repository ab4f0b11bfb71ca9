// mflushbench — the perfbench harness. Runs one named workload for about
// --seconds of measurement and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// ones. The lines before it give the end-to-end figures without drift
// correction and the digest of the simulated results. The work directory
// must be on tmpfs.
//
//   mflushbench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--force-mismatch] | --selftest
#include <linux/magic.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <charconv>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "harness.h"

namespace {

namespace fs = std::filesystem;

using WorkloadFn = std::uint64_t (*)(const perfbench::Args&,
                                     perfbench::Report&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"chip8_fixed", perfbench::run_chip8_fixed},
      {"chip8_dram_far", perfbench::run_chip8_dram_far},
      {"sweep_remote", perfbench::run_sweep_remote},
      {"daemon_two_tenants", perfbench::run_daemon_two_tenants},
  };
  return w;
}

template <class T>
bool parse_number(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

int usage() {
  std::cerr << "usage: mflushbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--force-mismatch]\n"
               "       mflushbench --selftest\nworkloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool selftest_only = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest_only = true;
    } else if (arg == "--force-mismatch") {
      args.force_mismatch = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!parse_number(argv[++i], args.seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_number(argv[++i], args.seconds) || args.seconds <= 0)
        return usage();
    } else if (arg == "--trace") {
      if (!parse_number(argv[++i], trace) || (trace != 0 && trace != 1))
        return usage();
    } else if (arg == "--work-dir") {
      args.work_dir = argv[++i];
    } else {
      return usage();
    }
  }

  if (!perfbench::run_selftest()) {
    std::cerr << "mflushbench: self-test failed; not measuring\n";
    return 1;
  }
  if (selftest_only) {
    std::cerr << "mflushbench: self-test passed\n";
    return 0;
  }
  const auto it = workloads().find(args.workload);
  if (it == workloads().end() || trace < 0) return usage();
  args.trace = trace == 1;

  std::error_code ec;
  args.bin_dir = fs::read_symlink("/proc/self/exe", ec).parent_path().string();
  if (ec) args.bin_dir = fs::path(argv[0]).parent_path().string();
  if (args.work_dir.empty())
    args.work_dir = args.bin_dir + "/run-" + std::to_string(::getpid());
  const ScratchDir scratch{args.work_dir};
  try {
    fs::remove_all(args.work_dir, ec);
    fs::create_directories(args.work_dir);
    // The benchmark measures no disk behaviour: data directories, sockets
    // and worker scratch files must live in memory.
    struct statfs sfs {};
    if (::statfs(args.work_dir.c_str(), &sfs) != 0 ||
        sfs.f_type != TMPFS_MAGIC) {
      std::cerr << "mflushbench: work directory " << args.work_dir
                << " is not on tmpfs; run through perfbench/run.py\n";
      return 1;
    }
    perfbench::Report report;
    const std::uint64_t digest = it->second(args, report);
    for (const std::string& line : report.notes()) std::cout << line << '\n';
    std::cout << "perfbench: " << args.workload << " seed " << args.seed
              << " simmetrics_digest " << perfbench::hex64(digest) << '\n'
              << report.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "mflushbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
  return 0;
}
