// daemon_two_tenants: `mflushsim --serve` on a `local slots=2` pool. After
// a series of cold starts (the set-up figure), each repetition starts a
// fresh daemon and two tenants submit overlapping sampled specs at the
// same time (A drops 4W4, B drops 2W1: 36 jobs each, 24 shared); then
// tenant A resubmits its spec many times and attaches to the finished
// campaign, then SHUTDOWN. This drives the wire layer, the fair-share
// JobMux, cross-tenant dedup through the shared cache and warm store, and
// the attach path.
//
// Results are read with a client built on sim/wire.h + common/sockio.h,
// not daemon::submit, so each RESULT frame is timed as it arrives.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sockio.h"
#include "harness.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/daemon.h"
#include "sim/wire.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mflush::daemon::Message;
using mflush::daemon::MsgType;

constexpr int kMinReps = 2;
/// Resubmits per repetition; even kMinReps of them give the attach p90 far
/// more than ten samples beyond it.
constexpr int kAttachPerRep = 100;
/// Spawn-to-ready takes 2-5 ms with a long tail from host noise; the median
/// of this many cold starts, each bracketed by its own reference sample,
/// repeats across runs.
constexpr int kColdStarts = 60;
constexpr double kReadyTimeoutS = 30.0;

/// One `mflushsim --serve` process. The destructor SIGKILLs and reaps a
/// daemon that was not shut down, so no run leaves one behind.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& bin, const std::string& dir)
      : address_("unix:" + dir + "/d.sock") {
    fs::create_directories(dir);
    const std::string hosts = dir + "/hosts.txt", log = dir + "/daemon.log";
    std::ofstream(hosts) << "local slots=2\n";
    std::vector<std::string> argv_s = {bin,  "--serve", address_,
                                       "--data", dir + "/data", "--hosts",
                                       hosts};
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  [[nodiscard]] const std::string& address() const { return address_; }

  /// Blocks until the daemon answers a LIST request.
  void wait_ready() {
    const double deadline = now_s() + kReadyTimeoutS;
    Message list;
    list.type = MsgType::kList;
    for (;;) {
      try {
        if (mflush::daemon::request(address_, list).type == MsgType::kOk)
          return;
      } catch (const std::exception&) {
      }
      if (now_s() > deadline)
        throw std::runtime_error("mflushd did not become ready");
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("mflushd exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  /// SHUTDOWN, then reap. Returns whether the daemon acknowledged and
  /// exited with status 0; one that did not acknowledge is killed.
  bool shutdown() {
    Message m;
    m.type = MsgType::kShutdown;
    bool acked = false;
    try {
      acked = mflush::daemon::request(address_, m).type == MsgType::kOk;
    } catch (const std::exception&) {
    }
    if (!acked) ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string address_;
  pid_t pid_ = -1;
};

/// One followed SUBMIT as seen on the wire.
struct Submission {
  double t_first = 0.0;  ///< first RESULT frame
  double t_last = 0.0;   ///< last RESULT frame
  std::map<std::uint32_t, std::vector<std::uint8_t>> blobs;  ///< by job id
  std::uint64_t result_bytes = 0;
  Message done;
};

Submission submit_follow(const std::string& address,
                         const std::vector<std::uint8_t>& spec_bytes) {
  const int fd = mflush::sockio::connect_to(address);
  struct FdGuard {
    int fd;
    ~FdGuard() { mflush::sockio::close_fd(fd); }
  } guard{fd};
  Message sub;
  sub.type = MsgType::kSubmit;
  sub.follow = 1;
  sub.blob = spec_bytes;
  mflush::daemon::send_frame(fd, sub);

  Submission out;
  std::vector<std::uint8_t> buffer;
  for (;;) {
    auto msg = mflush::daemon::read_frame(fd, buffer);
    if (!msg) throw std::runtime_error("mflushd closed a followed submission");
    switch (msg->type) {
      case MsgType::kSubmitted:
        break;
      case MsgType::kResult:
        out.t_last = now_s();
        if (out.blobs.empty()) out.t_first = out.t_last;
        out.result_bytes += msg->blob.size();
        out.blobs[msg->job_id] = std::move(msg->blob);
        break;
      case MsgType::kDone:
        out.done = std::move(*msg);
        return out;
      case MsgType::kError:
        throw std::runtime_error("mflushd: " + msg->text);
      default:
        throw std::runtime_error(std::string("unexpected ") +
                                 mflush::daemon::type_name(msg->type) +
                                 " frame");
    }
  }
}

/// Decoded results in job-id order; throws on a damaged or missing one.
std::vector<mflush::RunResult> decode(const Submission& s) {
  std::vector<mflush::RunResult> out;
  for (const auto& [id, blob] : s.blobs) {
    if (id != out.size()) throw std::runtime_error("result ids have a gap");
    auto r = mflush::worker::decode_results(blob, "RESULT frame");
    if (r.size() != 1 || r[0].first != id)
      throw std::runtime_error("RESULT frame does not match its job id");
    out.push_back(std::move(r[0].second));
  }
  return out;
}

/// The two tenants' specs for one simulation seed, and which jobs they share.
struct Tenants {
  mflush::ExperimentSpec spec_a, spec_b;
  std::vector<std::uint8_t> bytes_a, bytes_b;
  std::vector<std::uint64_t> keys_a, keys_b;  ///< campaign::job_key by job id
  std::map<std::uint64_t, std::uint32_t> b_id_of;
  std::vector<bool> b_only;  ///< B's jobs that A does not have
  std::size_t distinct = 0;

  explicit Tenants(std::uint64_t seed)
      : spec_a(sampled_grid_spec({"2W1", "2W3", "4W2"}, seed)),
        spec_b(sampled_grid_spec({"2W3", "4W2", "4W4"}, seed)),
        bytes_a(spec_a.to_bytes()),
        bytes_b(spec_b.to_bytes()) {
    for (const mflush::JobSpec& j : spec_a.expand())
      keys_a.push_back(mflush::campaign::job_key(j));
    for (const mflush::JobSpec& j : spec_b.expand())
      keys_b.push_back(mflush::campaign::job_key(j));
    for (std::uint32_t i = 0; i < keys_b.size(); ++i) b_id_of[keys_b[i]] = i;
    const std::set<std::uint64_t> in_a(keys_a.begin(), keys_a.end());
    for (const std::uint64_t k : keys_b) b_only.push_back(!in_a.contains(k));
    distinct = keys_a.size() +
               static_cast<std::size_t>(
                   std::count(b_only.begin(), b_only.end(), true));
  }
};

}  // namespace

std::uint64_t run_daemon_two_tenants(const Args& args, Report& report) {
  const std::string bin = args.bin_dir + "/mflushsim";
  DriftClock clock(5);
  EndToEnd e2e;
  Layers layers;
  std::uint64_t digest0 = 0;

  // ---- cold starts: spawn until the daemon answers LIST.
  for (int k = 0; k < kColdStarts; ++k) {
    const std::string dir = args.work_dir + "/start" + std::to_string(k);
    std::optional<DaemonProcess> d;
    const Timed t = clock.time([&] {
      d.emplace(bin, dir);
      d->wait_ready();
    });
    e2e.setup_s.add(t.raw_s, t.factor());
    report.check(d->shutdown(), "mflushd did not shut down cleanly");
    fs::remove_all(dir);
  }

  // Each repetition is a fresh daemon on fresh data, so every warm-up and
  // job is cold; repetitions sweep seeds derived from --seed.
  const double t_end = now_s() + args.seconds;
  for (int rep = 0; rep < kMinReps || now_s() < t_end; ++rep) {
    const Tenants ten(derived_seed(args.seed, static_cast<std::uint64_t>(rep)));
    const std::string dir = args.work_dir + "/rep" + std::to_string(rep);
    const double children_cpu0 = children_cpu_seconds();
    std::optional<DaemonProcess> d;
    const Timed ts = clock.time([&] {
      d.emplace(bin, dir);
      d->wait_ready();
    });
    e2e.setup_s.add(ts.raw_s, ts.factor());

    // ---- two tenants at once.
    Submission sub_a, sub_b;
    std::string error_a, error_b;
    double t0 = 0.0, client_cpu = 0.0;
    const Timed t = clock.time([&] {
      const double cpu0 = self_cpu_seconds();
      t0 = now_s();
      auto tenant = [&](const std::vector<std::uint8_t>& bytes,
                        Submission& out, std::string& error) {
        try {
          out = submit_follow(d->address(), bytes);
        } catch (const std::exception& e) {
          error = e.what();
        }
      };
      std::thread a(tenant, std::cref(ten.bytes_a), std::ref(sub_a),
                    std::ref(error_a));
      std::thread b(tenant, std::cref(ten.bytes_b), std::ref(sub_b),
                    std::ref(error_b));
      a.join();
      b.join();
      client_cpu = self_cpu_seconds() - cpu0;
    });

    // ---- identical resubmits of A attach to its finished campaign. They
    // are sub-millisecond, so one reference sample brackets them all. A
    // failed one is kept (empty, with its error) and checked below.
    std::vector<Submission> attaches(kAttachPerRep);
    std::vector<std::string> attach_errors(kAttachPerRep);
    std::vector<double> attach_raw;
    const Timed ta = clock.time([&] {
      for (int k = 0; k < kAttachPerRep; ++k) {
        const double a = now_s();
        try {
          attaches[k] = submit_follow(d->address(), ten.bytes_a);
        } catch (const std::exception& e) {
          attach_errors[k] = e.what();
        }
        attach_raw.push_back(now_s() - a);
      }
    });
    for (const double r : attach_raw) e2e.attach_s.add(r, ta.factor());
    const std::string data = dir + "/data";
    const DirFootprint warm = footprint(data + "/warm", ".mfws");
    const DirFootprint cache = footprint(data + "/cache", ".mfcr");
    const DirFootprint journals = footprint(data + "/campaigns", "journal.wal");
    report.check(d->shutdown(), "mflushd did not shut down cleanly");
    // The daemon is reaped, so its CPU and its workers' are now counted:
    // the whole daemon session plus the two tenants' client threads.
    const double cpu = children_cpu_seconds() - children_cpu0 + client_cpu;
    fs::remove_all(dir);

    // ---- outputs.
    const bool ok_a = report.check(
        error_a.empty() && sub_a.done.text == "finished",
        "tenant A: " + error_a + sub_a.done.text);
    const bool ok_b = report.check(
        error_b.empty() && sub_b.done.text == "finished",
        "tenant B: " + error_b + sub_b.done.text);
    if (!ok_a || !ok_b) continue;
    std::vector<mflush::RunResult> res_a, res_b;
    try {
      res_a = decode(sub_a);
      res_b = decode(sub_b);
    } catch (const std::exception& e) {
      report.check(false, std::string("tenant results: ") + e.what());
      continue;
    }
    if (!report.check(res_a.size() == ten.keys_a.size() &&
                          res_b.size() == ten.keys_b.size(),
                      "a tenant is missing results"))
      continue;
    if (args.force_mismatch && rep == 0)
      ++res_b[ten.b_id_of.at(ten.keys_a.back())].metrics.committed;
    std::size_t shared = 0;
    for (std::uint32_t i = 0; i < ten.keys_a.size(); ++i) {
      const auto it = ten.b_id_of.find(ten.keys_a[i]);
      if (it == ten.b_id_of.end()) continue;
      ++shared;
      report.check(res_a[i].metrics == res_b[it->second].metrics,
                   "shared job " + std::to_string(i) +
                       " differs between tenants");
    }
    report.check(shared == 24, "tenants share " + std::to_string(shared) +
                                   " jobs, expected 24");
    const std::uint64_t digest_a = metrics_digest(res_a);
    for (int k = 0; k < kAttachPerRep; ++k) {
      std::string error = attach_errors[k];
      bool same = false;
      if (error.empty()) {
        try {
          same = attaches[k].done.text == "finished" &&
                 metrics_digest(decode(attaches[k])) == digest_a;
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      report.check(same, "attach " + std::to_string(k) +
                             " returned other results " + error);
    }
    {
      // One job per repetition re-run in process from its spec alone.
      const std::vector<mflush::JobSpec> jobs = ten.spec_a.expand();
      const std::size_t pick = (args.seed * 13 + rep * 5) % jobs.size();
      report.check(mflush::run_job(jobs[pick]).metrics == res_a[pick].metrics,
                   "daemon job " + std::to_string(pick) +
                       " differs from an in-process run_job");
    }
    // The distinct results: all of A's, plus B's that A does not have.
    std::vector<mflush::RunResult> distinct = res_a;
    for (std::uint32_t i = 0; i < res_b.size(); ++i) {
      if (ten.b_only[i]) distinct.push_back(res_b[i]);
    }
    if (rep == 0) digest0 = metrics_digest(distinct);

    const double f = t.factor();
    const double campaign_raw = std::max(sub_a.t_last, sub_b.t_last) - t0;
    double committed = 0.0;
    for (const auto& r : distinct)
      committed += static_cast<double>(r.metrics.committed);
    e2e.campaign_s.add(campaign_raw, f);
    if (e2e.harness_peak_rss_mb == 0.0)
      e2e.harness_peak_rss_mb = self_peak_rss_mb();
    e2e.first_result_s.add(std::min(sub_a.t_first, sub_b.t_first) - t0, f);
    e2e.cpu_s.add(cpu, f);
    e2e.committed_per_s.add_rate(committed, campaign_raw, f);

    // Per-layer counts of the first repetition (every repetition repeats
    // them for its own seed).
    if (args.trace && rep == 0) {
      for (const auto& r : distinct) add_metric_counters(r.metrics, layers);
      const double executed =
          static_cast<double>(sub_a.done.executed + sub_b.done.executed);
      layers.set("daemon.executed", executed);
      layers.set("daemon.cached",
                 static_cast<double>(sub_a.done.cached + sub_b.done.cached));
      layers.set("daemon.exec_per_distinct",
                 executed / static_cast<double>(ten.distinct));
      layers.set("wire.result_frames",
                 static_cast<double>(sub_a.blobs.size() + sub_b.blobs.size()));
      layers.set("wire.result_bytes",
                 static_cast<double>(sub_a.result_bytes + sub_b.result_bytes));
      layers.set("warmstore.entries", static_cast<double>(warm.files));
      layers.set("warmstore.bytes", static_cast<double>(warm.bytes));
      layers.set("campaign.cache_entries", static_cast<double>(cache.files));
      layers.set("campaign.cache_bytes", static_cast<double>(cache.bytes));
      layers.set("campaign.journal_bytes",
                 static_cast<double>(journals.bytes));
    }
  }

  if (args.trace) {
    // The daemon's start-up is the workload's set-up; this workload records
    // no spans, so its tracing overhead is 0 by construction.
    layers.set("daemon.ready_ms", 1e3 * median(e2e.setup_s.corrected));
    fill_host_layers(e2e, clock, layers);
    layers.emit(report);
  } else {
    report_end_to_end(e2e, clock.refs(), report);
  }
  return digest0;
}

}  // namespace perfbench
