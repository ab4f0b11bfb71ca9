#include "sim/backend.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/env.h"
#include "common/frame.h"
#include "common/sockio.h"
#include "sim/campaign.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

extern char** environ;

namespace mflush {
namespace {

// ------------------------------------------------- RunResult serialization
//
// Doubles are written as raw little-endian bytes, so a result that crosses
// the process boundary compares bit-identical to one computed in-process —
// the property the cross-backend determinism test pins down.

void put_metrics(ArchiveWriter& ar, const SimMetrics& m) {
  ar.put(m.cycles);
  ar.put(m.committed);
  ar.put(m.ipc);
  ar.put_vec(m.per_thread_ipc);
  ar.put(m.flush_events);
  ar.put(m.flushed_instructions);
  ar.put(m.branches_resolved);
  ar.put(m.mispredicts);
  ar.put(m.l2_hit_time_mean);
  ar.put(m.l2_hit_time_p50);
  ar.put(m.l2_hit_time_p90);
  ar.put(m.l2_hits_observed);
  ar.put(m.l2_misses_observed);
  ar.put(m.policy_flushes_on_miss);
  ar.put(m.policy_flushes_on_hit);
  ar.put(m.policy_flushes_on_l1);
  ar.put(m.policy_stall_events);
  ar.put(m.policy_gate_cycles);
  m.l2_hit_time_hist.save(ar);
  ar.put(m.dram_row_hits);
  ar.put(m.dram_row_misses);
  ar.put(m.dram_row_conflicts);
  ar.put(m.dram_far_accesses);
  ar.put(m.dram_bank_busy_cycles);
  ar.put(m.dram_chan_busy_cycles);
  ar.put(m.energy.committed_units);
  ar.put(m.energy.flush_wasted_units);
  ar.put(m.energy.branch_wasted_units);
}

SimMetrics get_metrics(ArchiveReader& ar) {
  SimMetrics m;
  m.cycles = ar.get<Cycle>();
  m.committed = ar.get<std::uint64_t>();
  m.ipc = ar.get<double>();
  ar.get_vec(m.per_thread_ipc);
  m.flush_events = ar.get<std::uint64_t>();
  m.flushed_instructions = ar.get<std::uint64_t>();
  m.branches_resolved = ar.get<std::uint64_t>();
  m.mispredicts = ar.get<std::uint64_t>();
  m.l2_hit_time_mean = ar.get<double>();
  m.l2_hit_time_p50 = ar.get<double>();
  m.l2_hit_time_p90 = ar.get<double>();
  m.l2_hits_observed = ar.get<std::uint64_t>();
  m.l2_misses_observed = ar.get<std::uint64_t>();
  m.policy_flushes_on_miss = ar.get<std::uint64_t>();
  m.policy_flushes_on_hit = ar.get<std::uint64_t>();
  m.policy_flushes_on_l1 = ar.get<std::uint64_t>();
  m.policy_stall_events = ar.get<std::uint64_t>();
  m.policy_gate_cycles = ar.get<std::uint64_t>();
  m.l2_hit_time_hist.load(ar);
  m.dram_row_hits = ar.get<std::uint64_t>();
  m.dram_row_misses = ar.get<std::uint64_t>();
  m.dram_row_conflicts = ar.get<std::uint64_t>();
  m.dram_far_accesses = ar.get<std::uint64_t>();
  m.dram_bank_busy_cycles = ar.get<std::uint64_t>();
  m.dram_chan_busy_cycles = ar.get<std::uint64_t>();
  m.energy.committed_units = ar.get<double>();
  m.energy.flush_wasted_units = ar.get<double>();
  m.energy.branch_wasted_units = ar.get<double>();
  return m;
}

void put_result(ArchiveWriter& ar, std::uint32_t id, const RunResult& r) {
  ar.put(id);
  ar.put_string(r.workload);
  ar.put_string(r.policy);
  put_metrics(ar, r.metrics);
  ar.put(r.wall_seconds);
  ar.put(r.simulated_cycles);
  ar.put<std::uint8_t>(r.payload ? 1 : 0);
  if (r.payload) ar.put_vec(*r.payload);
}

std::pair<std::uint32_t, RunResult> get_result(ArchiveReader& ar) {
  const auto id = ar.get<std::uint32_t>();
  RunResult r;
  r.workload = ar.get_string();
  r.policy = ar.get_string();
  r.metrics = get_metrics(ar);
  r.wall_seconds = ar.get<double>();
  r.simulated_cycles = ar.get<Cycle>();
  if (ar.get<std::uint8_t>() != 0) {
    std::vector<std::uint8_t> payload;
    ar.get_vec(payload);
    r.payload = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(payload));
  }
  return {id, std::move(r)};
}

/// Owns one file descriptor; closes it on destruction.
struct Fd {
  int fd = -1;
  Fd() = default;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }
  void reset() noexcept {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// argv[0] recorded at startup (record_argv0), the off-Linux fallback for
/// default_worker_binary.
std::string& argv0_recorded() {
  static std::string path;
  return path;
}

}  // namespace

// ------------------------------------------------------ process spawning

namespace proc {

int spawn_and_wait(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& what, unsigned timeout_s,
                   std::span<const std::uint8_t> input,
                   const OnOutput& on_output) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const std::string context = what.empty() ? "" : " on " + what;
  const auto fail = [&](const std::string& step) {
    throw std::runtime_error(step + " failed for worker '" + bin + "'" +
                             context + ": " + std::strerror(errno));
  };

  // Parent ends stay here (CLOEXEC, so concurrent spawns never inherit
  // each other's pipes); child ends become the child's fd 0 / fd 1.
  Fd in_parent, in_child, out_parent, out_child;
  const auto make_pair = [&](Fd& parent, Fd& child) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
      fail("socketpair");
    parent.fd = sv[0];
    child.fd = sv[1];
  };
  if (!input.empty()) make_pair(in_parent, in_child);
  if (on_output) make_pair(out_parent, out_child);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  if (in_child.fd >= 0)
    ::posix_spawn_file_actions_adddup2(&actions, in_child.fd, STDIN_FILENO);
  if (out_child.fd >= 0)
    ::posix_spawn_file_actions_adddup2(&actions, out_child.fd,
                                       STDOUT_FILENO);
  // Own process group (pgroup 0 = the child's pid), SIGPIPE at default.
  posix_spawnattr_t attr;
  ::posix_spawnattr_init(&attr);
  sigset_t sigdef;
  ::sigemptyset(&sigdef);
  ::sigaddset(&sigdef, SIGPIPE);
  ::posix_spawnattr_setsigdefault(&attr, &sigdef);
  ::posix_spawnattr_setpgroup(&attr, 0);
  ::posix_spawnattr_setflags(&attr,
                             POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGDEF);
  pid_t pid = 0;
  const int rc = ::posix_spawnp(&pid, bin.c_str(), &actions, &attr,
                                argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::posix_spawnattr_destroy(&attr);
  if (rc != 0) {
    throw std::runtime_error("failed to spawn worker '" + bin + "'" +
                             context + ": " + std::strerror(rc));
  }
  in_child.reset();
  out_child.reset();

  // Until the child is reaped, every exit path (a deadline, a throwing
  // on_output) kills its process group and reaps it, so neither a zombie
  // nor an orphaned grandchild outlives this call.
  struct Reaper {
    pid_t pid;
    bool reaped = false;
    ~Reaper() {
      if (reaped) return;
      ::kill(-pid, SIGKILL);
      while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
  } reaper{pid};
  Fd exit_fd;  // readable once the child has exited
  exit_fd.fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (exit_fd.fd < 0) fail("pidfd_open");

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(timeout_s);
  std::size_t sent = 0;
  std::vector<std::uint8_t> chunk;
  int status = 0;
  // Run until the child has exited and its stdout is drained.
  while (!reaper.reaped || out_parent.fd >= 0) {
    pollfd fds[3];
    nfds_t n = 0;
    const auto watch = [&](const Fd& f, short events) {
      if (f.fd >= 0) fds[n++] = {f.fd, events, 0};
    };
    if (!reaper.reaped) watch(exit_fd, POLLIN);
    watch(in_parent, POLLOUT);
    watch(out_parent, POLLIN);
    int wait_ms = -1;
    if (timeout_s != 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    const int ready = ::poll(fds, n, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (ready == 0) {
      throw std::runtime_error("worker '" + bin + "' timed out after " +
                               std::to_string(timeout_s) + "s" + context);
    }
    for (nfds_t i = 0; i < n; ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == exit_fd.fd) {
        while (::waitpid(pid, &status, 0) < 0) {
          if (errno != EINTR) fail("waitpid");
        }
        reaper.reaped = true;
      } else if (fds[i].fd == in_parent.fd) {
        const ssize_t w =
            ::send(in_parent.fd, input.data() + sent, input.size() - sent,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) sent += static_cast<std::size_t>(w);
        if (w < 0 && errno != EAGAIN && errno != EINTR) {
          // EPIPE/ECONNRESET: the child stopped reading. Its exit status
          // says why; the unsent input is moot.
          if (errno != EPIPE && errno != ECONNRESET) fail("stdin write");
          in_parent.reset();
        } else if (sent == input.size()) {
          in_parent.reset();  // EOF for the child
        }
      } else if (fds[i].fd == out_parent.fd) {
        chunk.clear();
        if (sockio::read_some(out_parent.fd, chunk) == 0)
          out_parent.reset();
        else
          on_output(chunk);
      }
    }
  }
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("worker '" + bin + "' killed by signal " +
                             std::to_string(WTERMSIG(status)) + context);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

}  // namespace proc

// --------------------------------------------------------------- ResultSink

void ResultSink::push(const JobSpec& job, RunResult result) {
  const std::lock_guard lk(m_);
  if (job.id >= slots_.size()) slots_.resize(job.id + 1);
  if (slots_[job.id].has_value()) {
    throw std::runtime_error("ResultSink: duplicate result for job " +
                             std::to_string(job.id));
  }
  // The slot fills only once the callback has returned: a callback that
  // throws (say, a disk error making the result durable) leaves the slot
  // empty, so a retry meets that error again, not a "duplicate result".
  if (on_result_) on_result_(job, result);
  slots_[job.id] = std::move(result);
}

std::size_t ResultSink::completed() const {
  const std::lock_guard lk(m_);
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s.has_value()) ++n;
  return n;
}

RunResult ResultSink::at(std::size_t id) const {
  const std::lock_guard lk(m_);
  if (id >= slots_.size() || !slots_[id].has_value()) {
    throw std::runtime_error("ResultSink: no result for job " +
                             std::to_string(id));
  }
  return *slots_[id];
}

std::vector<RunResult> ResultSink::collect() const {
  const std::lock_guard lk(m_);
  std::vector<RunResult> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].has_value()) {
      throw std::runtime_error("ResultSink: missing result for job " +
                               std::to_string(i));
    }
    out.push_back(*slots_[i]);
  }
  return out;
}

// ----------------------------------------------------------------- backends

std::vector<RunResult> ExperimentBackend::run_collect(
    const std::vector<JobSpec>& jobs) {
  ResultSink sink;
  run(jobs, sink);
  return sink.collect();
}

void SerialBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  for (const JobSpec& job : jobs) sink.push(job, run_job(job));
}

InProcessBackend::InProcessBackend() : pool_(&ParallelRunner::shared()) {}

void InProcessBackend::run(const std::vector<JobSpec>& jobs,
                           ResultSink& sink) {
  pool_->for_each_index(jobs.size(), [&](std::size_t i) {
    sink.push(jobs[i], run_job(jobs[i]));
  });
}

void record_argv0(const char* argv0) {
  if (argv0 == nullptr || *argv0 == '\0') return;
  std::error_code ec;
  const auto abs = std::filesystem::absolute(argv0, ec);
  if (!ec) argv0_recorded() = abs.string();
}

std::string worker_binary_near(const std::string& exe) {
  if (exe.empty()) return {};
  std::error_code ec;
  const std::filesystem::path path(exe);
  if (path.filename() == "mflushsim" &&
      std::filesystem::exists(path, ec)) {
    return path.string();
  }
  const auto sibling = path.parent_path() / "mflushsim";
  if (std::filesystem::exists(sibling, ec)) return sibling.string();
  return {};
}

std::string default_worker_binary() {
  if (std::string bin = env::str_or("MFLUSH_WORKER_BIN"); !bin.empty())
    return bin;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    if (std::string found = worker_binary_near(self.string());
        !found.empty()) {
      return found;
    }
  }
  // /proc/self/exe absent (non-Linux) or the tool was renamed: fall back
  // to the argv[0] recorded at startup instead of silently giving up.
  return worker_binary_near(argv0_recorded());
}

// ----------------------------------------------------------- run_experiment

void resolve_parent_snapshots(std::vector<JobSpec>& jobs,
                              ExperimentBackend& backend,
                              const RunOptions& options) {
  // Distinct unresolved parents in deterministic first-seen order (job
  // vectors are expanded deterministically, so warm job ids are too).
  std::vector<std::uint64_t> order;
  std::unordered_map<std::uint64_t, const JobSpec*> proto;
  for (const JobSpec& j : jobs) {
    if (j.parent_key == 0 || j.snapshot) continue;
    if (proto.emplace(j.parent_key, &j).second) order.push_back(j.parent_key);
  }
  if (order.empty()) return;

  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<std::uint8_t>>>
      bytes_of;
  std::vector<JobSpec> warm_jobs;
  std::size_t reused = 0;
  for (const std::uint64_t key : order) {
    std::shared_ptr<const std::vector<std::uint8_t>> b;
    if (options.warm_store) b = options.warm_store->lookup(key);
    if (!b) {
      b = warmstore::recall(key);
      // A recall with a store configured means the disk entry is missing
      // (or was just discarded as corrupt): heal it from memory.
      if (b && options.warm_store) options.warm_store->put(key, b);
    }
    if (b) {
      bytes_of.emplace(key, std::move(b));
      ++reused;
    } else {
      JobSpec w = warmstore::warm_job_of(*proto.at(key));
      w.id = static_cast<std::uint32_t>(warm_jobs.size());
      warm_jobs.push_back(std::move(w));
    }
  }

  if (!warm_jobs.empty()) {
    // Misses warm as one batch of ordinary jobs — parallel on any backend,
    // and never on the coordinator thread. A separate sink keeps warm
    // results (and their payloads) out of the experiment's result slots.
    ResultSink warm_sink;
    backend.warmup_backend().run(warm_jobs, warm_sink);
    for (const JobSpec& w : warm_jobs) {
      RunResult r = warm_sink.at(w.id);
      if (!r.payload) {
        throw std::runtime_error("warm job for parent " +
                                 campaign::key_hex(w.parent_key) +
                                 " returned no snapshot payload");
      }
      warmstore::publish(w.parent_key, r.payload);
      if (options.warm_store) options.warm_store->put(w.parent_key, r.payload);
      bytes_of.emplace(w.parent_key, std::move(r.payload));
    }
  }

  for (JobSpec& j : jobs) {
    if (j.parent_key != 0 && !j.snapshot)
      j.snapshot = bytes_of.at(j.parent_key);
  }
  if (options.on_event) {
    const std::string tag =
        options.label.empty() ? "" : "[" + options.label + "] ";
    options.on_event(tag + std::to_string(order.size()) + " parent(s): " +
                     std::to_string(reused) + " reused, " +
                     std::to_string(warm_jobs.size()) + " warmed");
  }
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink,
                                      const RunOptions& options) {
  std::vector<JobSpec> jobs = spec.expand();
  resolve_parent_snapshots(jobs, backend, options);
  backend.run(jobs, sink);
  if (spec.mode != RunMode::Sampled || spec.sampled.target_half_width <= 0.0)
    return sink.collect();

  // SMARTS-style stopping rule: grow each point's fork set until the mean
  // IPC is tight enough. All statistics derive from job results only, so
  // the round structure — and therefore the final result vector — is
  // identical for every backend.
  const Cycle stride = spec.sampled.fork_stride != 0 ? spec.sampled.fork_stride
                                                     : spec.measure / 2;
  const std::size_t points = spec.num_points();
  const std::uint32_t forks = spec.sampled.forks;
  std::vector<std::vector<std::uint32_t>> point_jobs(points);
  std::vector<JobSpec> tmpl(points);  // carries each point's snapshot handle
  for (const JobSpec& j : jobs) {
    const std::size_t p = j.id / forks;
    if (point_jobs[p].empty()) tmpl[p] = j;
    point_jobs[p].push_back(j.id);
  }

  std::uint32_t next_id = static_cast<std::uint32_t>(jobs.size());
  for (std::uint32_t round = 1; round < spec.sampled.max_rounds; ++round) {
    std::vector<JobSpec> more;
    for (std::size_t p = 0; p < points; ++p) {
      const auto& ids = point_jobs[p];
      const auto n = static_cast<double>(ids.size());
      double sum = 0.0;
      for (const std::uint32_t id : ids) sum += sink.at(id).metrics.ipc;
      const double mean = sum / n;
      double ss = 0.0;
      for (const std::uint32_t id : ids) {
        const double d = sink.at(id).metrics.ipc - mean;
        ss += d * d;
      }
      const double half_width =
          1.96 * std::sqrt(ss / (n - 1.0) / n);  // 95% CI, n >= 2
      if (mean <= 0.0 || half_width / mean <= spec.sampled.target_half_width)
        continue;
      // Capture the fork count before appending: ids aliases point_jobs[p],
      // so reading ids.size() inside the loop would skip/duplicate strides.
      const std::size_t have = ids.size();
      for (std::uint32_t k = 0; k < forks; ++k) {
        JobSpec j = tmpl[p];
        j.id = next_id++;
        j.fork_advance = static_cast<Cycle>(have + k) * stride;
        point_jobs[p].push_back(j.id);
        more.push_back(std::move(j));
      }
    }
    if (more.empty()) break;
    backend.run(more, sink);
  }
  return sink.collect();
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink) {
  return run_experiment(spec, backend, sink, RunOptions{});
}

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend) {
  ResultSink sink;
  return run_experiment(spec, backend, sink);
}

// ------------------------------------------------------------------- worker

namespace worker {

std::vector<std::uint8_t> encode_jobs(const std::vector<JobSpec>& jobs) {
  ArchiveWriter ar;
  for (const JobSpec& j : jobs) {
    const std::size_t start = frame::begin(ar, frame::kJob);
    j.save(ar);
    frame::seal(ar, start);
  }
  return ar.take();
}

std::vector<JobSpec> decode_jobs(std::span<const std::uint8_t> bytes,
                                 const std::string& what) {
  try {
    std::vector<JobSpec> jobs;
    while (!bytes.empty()) {
      const frame::Next f = frame::next(bytes, frame::kJob, kMaxFrameBytes);
      if (f.status == frame::Status::kBad) throw std::runtime_error(f.error);
      if (f.status == frame::Status::kNeedMore)
        throw std::runtime_error("job stream cut mid-frame");
      ArchiveReader ar(f.payload);
      jobs.push_back(JobSpec::load(ar));
      frame::finish(ar, frame::kJob);
      bytes = bytes.subspan(f.size);
    }
    return jobs;
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + what);
  }
}

std::vector<std::uint8_t> encode_results(
    const std::vector<std::pair<std::uint32_t, RunResult>>& results) {
  ArchiveWriter ar;
  const std::size_t start = frame::begin(ar, frame::kResult);
  ar.put<std::uint64_t>(results.size());
  for (const auto& [id, r] : results) put_result(ar, id, r);
  frame::seal(ar, start);
  return ar.take();
}

std::vector<std::pair<std::uint32_t, RunResult>> decode_results(
    std::span<const std::uint8_t> bytes, const std::string& what) {
  try {
    ArchiveReader ar = frame::open(bytes, frame::kResult);
    const auto n = ar.get<std::uint64_t>();
    std::vector<std::pair<std::uint32_t, RunResult>> entries;
    entries.reserve(std::min<std::uint64_t>(n, ar.remaining()));
    for (std::uint64_t i = 0; i < n; ++i) entries.push_back(get_result(ar));
    frame::finish(ar, frame::kResult);
    return entries;
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + what);
  }
}

void FrameReader::feed(
    std::span<const std::uint8_t> chunk,
    const std::function<void(std::span<const std::uint8_t>)>& on_frame) {
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
  std::span<const std::uint8_t> rest(buf_);
  for (;;) {
    // decode_results checks the sum; a warm result carries a whole snapshot.
    const frame::Next f = frame::next(rest, frame::kResult, kMaxFrameBytes,
                                      /*check_sum=*/false);
    if (f.status == frame::Status::kBad) throw std::runtime_error(f.error);
    if (f.status == frame::Status::kNeedMore) break;
    on_frame(rest.first(f.size));
    rest = rest.subspan(f.size);
  }
  buf_.erase(buf_.begin(),
             buf_.end() - static_cast<std::ptrdiff_t>(rest.size()));
}

int run_worker(std::istream& in, std::ostream& out,
               const std::string& store_dir) {
  try {
    std::vector<JobSpec> jobs;
    {
      std::ostringstream archive;
      archive << in.rdbuf();
      const std::string bytes = archive.str();
      jobs = decode_jobs(
          {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
          "stdin");
    }
    std::optional<WarmStore> store;
    if (!store_dir.empty()) {
      store.emplace(store_dir);
      // Pass 1: install every embedded parent snapshot before anything
      // runs — batch-internal order must not matter, and one upload has to
      // serve every later batch on this host.
      for (const JobSpec& job : jobs) {
        if (job.parent_key != 0 && job.snapshot)
          store->put(job.parent_key, job.snapshot);
      }
      // Pass 2: resolve by-reference forks from the store. An unresolved
      // fork stays by-ref and run_job re-warms it deterministically.
      for (JobSpec& job : jobs) {
        if (!job.warm_only && job.parent_key != 0 && !job.snapshot)
          job.snapshot = store->lookup(job.parent_key);
      }
    }
    // Jobs run serially: the worker *process* is the unit of parallelism,
    // and serial execution keeps the worker bit-identical to run_job.
    for (const JobSpec& job : jobs) {
      RunResult result = run_job(job);
      // A warm job's capture becomes a store entry immediately, so the
      // scheduler can ship later forks of this parent by hash.
      if (store && job.warm_only && job.parent_key != 0)
        store->put(job.parent_key, result.payload);
      // One frame per job, written the moment it finishes: the
      // coordinator streams it into the sink while later jobs still run.
      const auto framed = encode_results({{job.id, std::move(result)}});
      out.write(reinterpret_cast<const char*>(framed.data()),
                static_cast<std::streamsize>(framed.size()));
      if (!out.flush()) throw std::runtime_error("result write failed");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mflushsim --worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace worker
}  // namespace mflush
