#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "scratch_path.h"
#include "sim/backend.h"
#include "sim/remote.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ host parsing

TEST(RemoteHosts, ParsesNameAndKeys) {
  const remote::HostSpec bare = remote::parse_host("local");
  EXPECT_EQ(bare.name, "local");
  EXPECT_EQ(bare.slots, 1u);
  EXPECT_EQ(bare.fail_batches, 0u);
  EXPECT_TRUE(bare.is_local());

  const remote::HostSpec full =
      remote::parse_host("user@node7 slots=4 fail=2 dir=/scratch/mflush");
  EXPECT_EQ(full.name, "user@node7");
  EXPECT_EQ(full.slots, 4u);
  EXPECT_EQ(full.fail_batches, 2u);
  EXPECT_EQ(full.remote_dir, "/scratch/mflush");
  EXPECT_FALSE(full.is_local());
}

TEST(RemoteHosts, RejectsMalformedEntries) {
  // A typo must never silently shrink or misconfigure the pool.
  EXPECT_THROW((void)remote::parse_host("host slots=0"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slots=abc"),
               std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slotz=2"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slots"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host dir="), std::runtime_error);
  EXPECT_THROW((void)remote::parse_hosts("ok\nbad fail=-1"),
               std::runtime_error);
  // Overflow must error, not wrap modulo 2^32 into a tiny slot count.
  EXPECT_THROW((void)remote::parse_host("host slots=4294967297"),
               std::runtime_error);
}

TEST(RemoteHosts, ParsesTextWithCommentsAndSeparators) {
  // File form (newlines + comments) and env form (commas) share a grammar.
  const auto from_file = remote::parse_hosts(
      "# the pool\n"
      "local slots=2\n"
      "\n"
      "nodeA slots=4   # beefy box\n"
      "nodeB\n");
  ASSERT_EQ(from_file.size(), 3u);
  EXPECT_EQ(from_file[0].name, "local");
  EXPECT_EQ(from_file[0].slots, 2u);
  EXPECT_EQ(from_file[1].name, "nodeA");
  EXPECT_EQ(from_file[1].slots, 4u);
  EXPECT_EQ(from_file[2].name, "nodeB");
  EXPECT_EQ(from_file[2].index, 2u);

  const auto from_env =
      remote::parse_hosts("local slots=2, nodeA slots=4; nodeB");
  ASSERT_EQ(from_env.size(), 3u);
  EXPECT_EQ(from_env[1].name, "nodeA");
  EXPECT_EQ(from_env[1].slots, 4u);
}

TEST(RemoteHosts, ReadsHostsFile) {
  const std::string path = test::scratch_path("hosts-").string();
  {
    std::ofstream out(path);
    out << "local slots=3\nlocal slots=1 fail=5\n";
  }
  const auto hosts = remote::read_hosts_file(path);
  fs::remove(path);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].slots, 3u);
  EXPECT_EQ(hosts[1].fail_batches, 5u);
  EXPECT_EQ(hosts[1].label(), "local#1");

  EXPECT_THROW((void)remote::read_hosts_file(path + ".does-not-exist"),
               std::runtime_error);

  // An explicitly named pool that parses empty (every entry commented
  // out) must error, never silently degrade to a loopback run.
  const std::string empty_path = test::scratch_path("hosts-empty-").string();
  {
    std::ofstream out(empty_path);
    out << "# node1 slots=4\n# node2 slots=4\n";
  }
  EXPECT_THROW((void)remote::read_hosts_file(empty_path),
               std::runtime_error);
  fs::remove(empty_path);
}

TEST(RemoteHosts, EnvPoolSetButEmptyOrCommentedIsAnError) {
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "# commented out", 1), 0);
  EXPECT_THROW((void)remote::hosts_from_env(), std::runtime_error);
  // A '#' mid-string would silently swallow every later comma-separated
  // entry (comments run to end of line, and an env var is one line).
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "local slots=2 # fast, node7", 1), 0);
  EXPECT_THROW((void)remote::hosts_from_env(), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "local slots=2", 1), 0);
  EXPECT_EQ(remote::hosts_from_env().size(), 1u);
  ASSERT_EQ(unsetenv("MFLUSH_HOSTS"), 0);
  EXPECT_TRUE(remote::hosts_from_env().empty());
}

TEST(RemoteHosts, FuzzedTextParsesOrThrowsRuntimeError) {
  // Every prefix of a realistic hosts file, and every byte of it flipped,
  // must either parse or throw std::runtime_error — never crash, hang or
  // throw anything else.
  const std::string text =
      "# pool\n"
      "local slots=2\n"
      "nodeA slots=4 fail=1 dir=/scratch/x   # beefy\n"
      "user@nodeB, nodeC; local slots=1 fail=0\n";
  std::size_t parsed = 0, rejected = 0;
  const auto check = [&](const std::string& input) {
    try {
      (void)remote::parse_hosts(input);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "non-runtime_error escaped for input: " << input;
    }
  };
  for (std::size_t n = 0; n <= text.size(); ++n) check(text.substr(0, n));
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x10, 0x20, 0x80, 0xff}) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      check(flipped);
    }
  }
  // Both outcomes occur, so the fuzz is not vacuous.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SshTransportTimeout, MalformedEnvIsAHardErrorAndValidOnesResolve) {
  // env.h policy: a typo'd MFLUSH_SSH_TIMEOUT must fail construction
  // loudly, never silently fall back to the default deadline.
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "soon", 1), 0);
  EXPECT_THROW(remote::SshTransport("mflushsim"), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "0", 1), 0);
  EXPECT_THROW(remote::SshTransport("mflushsim"), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "90", 1), 0);
  EXPECT_EQ(remote::SshTransport("mflushsim").name(), "ssh");
  ASSERT_EQ(unsetenv("MFLUSH_SSH_TIMEOUT"), 0);
  // Unset env: the built-in default; an explicit Options deadline wins.
  EXPECT_EQ(remote::SshTransport("mflushsim").name(), "ssh");
  EXPECT_EQ(remote::SshTransport("mflushsim", 5).name(), "ssh");
}

// ---------------------------------------------------------------- batching

TEST(RemoteBatching, RangesCoverEveryJobExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 7u, 16u, 100u}) {
    for (const std::size_t batch : {0u, 1u, 3u, 200u}) {
      const auto ranges = remote::batch_ranges(jobs, batch, 4);
      ASSERT_FALSE(ranges.empty());
      std::size_t expect_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, jobs);
    }
  }
  EXPECT_TRUE(remote::batch_ranges(0, 0, 4).empty());
}

TEST(RemoteBatching, AutoSizeAmortizesButKeepsStealingSlack) {
  // ~4 batches per slot: a 64-job sweep over 2 slots packs 8 jobs per
  // batch instead of 64 one-job subprocess spawns.
  const auto ranges = remote::batch_ranges(64, 0, 2);
  EXPECT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges.front().second - ranges.front().first, 8u);
  // Tiny sweeps degenerate to one job per batch, never zero.
  EXPECT_EQ(remote::batch_ranges(3, 0, 16).size(), 3u);
}

// ----------------------------------------------------- scheduler plumbing
//
// These tests drive RemoteBackend through injected transports, so they
// exercise the scheduler (work stealing, re-queue, retirement, scratch
// hygiene) without needing the mflushsim binary on disk.

/// Run one batch in-process through run_job — the full archive protocol
/// without a subprocess.
void run_batch_in_process(std::span<const std::uint8_t> job_bytes,
                          const remote::Transport::OnResult& on_result) {
  for (const JobSpec& job : worker::decode_jobs(job_bytes, "test"))
    on_result(worker::encode_results({{job.id, run_job(job)}}));
}

class InProcessTransport final : public remote::Transport {
 public:
  [[nodiscard]] std::string name() const override { return "test-inproc"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string&) override {
    run_batch_in_process(job_bytes, on_result);
  }
};

/// Cross-transport rendezvous: broken transports count their failures /
/// in-flight batches here, gated healthy transports wait on it so the
/// broken host is guaranteed scheduler time before the queue drains (this
/// container has one CPU, so nothing else orders the threads).
struct BrokenRendezvous {
  std::mutex m;
  std::condition_variable cv;
  int broken_events = 0;

  void bump() {
    const std::lock_guard lk(m);
    ++broken_events;
    cv.notify_all();
  }
  /// Wait until `n` broken events happened (timeout as a starvation
  /// backstop so a test can never deadlock on a scheduling fluke).
  void await(int n) {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(2),
                      [&] { return broken_events >= n; });
  }
};

/// Transport that always fails, either in prepare or per batch.
class BrokenTransport final : public remote::Transport {
 public:
  explicit BrokenTransport(bool fail_prepare,
                           BrokenRendezvous* rendezvous = nullptr)
      : fail_prepare_(fail_prepare), rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-broken"; }
  void prepare(const remote::HostSpec& host) override {
    if (fail_prepare_) {
      if (rendezvous_ != nullptr) rendezvous_->bump();
      throw remote::TransportError(host.label() + ": host unreachable");
    }
  }
  void run_batch(const remote::HostSpec& host, std::span<const std::uint8_t>,
                 const OnResult&, const std::string& what) override {
    if (rendezvous_ != nullptr) rendezvous_->bump();
    throw remote::TransportError(host.label() + ": lost contact during " +
                                 what);
  }

 private:
  bool fail_prepare_;
  BrokenRendezvous* rendezvous_;
};

/// Healthy transport gated on the rendezvous, so the broken host pulls
/// its batches before healthy slots can drain the queue.
class GatedInProcessTransport final : public remote::Transport {
 public:
  explicit GatedInProcessTransport(BrokenRendezvous& rendezvous,
                                   int broken_events = 2)
      : rendezvous_(rendezvous), broken_events_(broken_events) {}
  [[nodiscard]] std::string name() const override { return "test-gated"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string&) override {
    rendezvous_.await(broken_events_);
    run_batch_in_process(job_bytes, on_result);
  }

 private:
  BrokenRendezvous& rendezvous_;
  int broken_events_;
};

std::vector<JobSpec> small_grid_jobs() {
  ExperimentSpec spec;
  spec.name = "remote-grid";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.seeds = {1, 2};
  spec.warmup = 300;
  spec.measure = 900;
  return spec.expand();
}

void expect_identical_runs(const std::vector<RunResult>& a,
                           const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

/// Two-host pool where host 1's transport is broken: every one of its
/// batches must steal onto host 0 and the sweep still matches serial.
TEST(RemoteBackendTest, BrokenHostBatchesStealOntoHealthyHost) {
  for (const bool fail_prepare : {false, true}) {
    SCOPED_TRACE(fail_prepare ? "prepare fails" : "run_batch fails");
    RemoteBackend::Options opts;
    opts.worker_binary = "unused-by-injected-transports";
    remote::HostSpec a, b;
    a.name = "healthy";
    a.slots = 2;
    b.name = "broken";
    b.slots = 2;
    opts.hosts = {a, b};
    opts.batch_jobs = 1;
    opts.max_attempts = 8;
    opts.host_max_failures = 2;
    BrokenRendezvous rendezvous;
    opts.transport_factory = [&](const remote::HostSpec& host)
        -> std::unique_ptr<remote::Transport> {
      if (host.name == "broken")
        return std::make_unique<BrokenTransport>(fail_prepare, &rendezvous);
      return std::make_unique<GatedInProcessTransport>(rendezvous);
    };
    std::vector<std::string> events;
    std::mutex events_mutex;
    opts.on_event = [&](const std::string& line) {
      const std::lock_guard lk(events_mutex);
      events.push_back(line);
    };

    const std::vector<JobSpec> jobs = small_grid_jobs();
    RemoteBackend backend(opts);
    const std::vector<RunResult> got = backend.run_collect(jobs);

    SerialBackend serial;
    expect_identical_runs(serial.run_collect(jobs), got);

    bool retired = false;
    for (const std::string& e : events)
      if (e.find("retired") != std::string::npos &&
          e.find("broken#1") != std::string::npos)
        retired = true;
    EXPECT_TRUE(retired) << "expected a broken#1 retirement event";
  }
}

/// Blocks until both broken slots are in flight (the rendezvous counts
/// entries), then fails the batch — forcing the interleaving where a
/// second failure lands on an already-retired host.
class PairedBrokenTransport final : public remote::Transport {
 public:
  explicit PairedBrokenTransport(BrokenRendezvous& rendezvous)
      : rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-paired"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host, std::span<const std::uint8_t>,
                 const OnResult&, const std::string& what) override {
    rendezvous_.bump();
    rendezvous_.await(2);
    throw remote::TransportError(host.label() + ": dropped " + what);
  }

 private:
  BrokenRendezvous& rendezvous_;
};

/// Regression: a host whose second slot fails after the host was already
/// retired must not be retired twice — double-decrementing the live-host
/// count once made the scheduler believe one host remained of three and
/// blocked any further retirement.
TEST(RemoteBackendTest, RetiredHostIsNotRetiredTwice) {
  BrokenRendezvous rendezvous;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec a, b, broken;
  a.name = "healthy-a";
  b.name = "healthy-b";
  broken.name = "broken";
  broken.slots = 2;
  opts.hosts = {a, b, broken};
  opts.batch_jobs = 1;
  opts.max_attempts = 8;
  opts.host_max_failures = 1;
  opts.transport_factory = [&](const remote::HostSpec& host)
      -> std::unique_ptr<remote::Transport> {
    if (host.name == "broken")
      return std::make_unique<PairedBrokenTransport>(rendezvous);
    return std::make_unique<GatedInProcessTransport>(rendezvous);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };

  const std::vector<JobSpec> jobs = small_grid_jobs();
  RemoteBackend backend(opts);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));

  std::size_t retirements = 0;
  for (const std::string& e : events) {
    if (e.find("retired") == std::string::npos) continue;
    ++retirements;
    // Three hosts, one retirement: two healthy hosts must remain.
    EXPECT_NE(e.find("remaining 2 host(s)"), std::string::npos) << e;
  }
  EXPECT_EQ(retirements, 1u);
}

TEST(RemoteBackendTest, ExhaustedAttemptsSurfaceTheTransportError) {
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec only;
  only.name = "solo";
  opts.hosts = {only};
  opts.batch_jobs = 2;
  opts.max_attempts = 2;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<BrokenTransport>(/*fail_prepare=*/false);
  };

  RemoteBackend backend(opts);
  const std::vector<JobSpec> jobs = small_grid_jobs();
  try {
    (void)backend.run_collect(jobs);
    FAIL() << "expected the sweep to fail";
  } catch (const std::exception& e) {
    // The surfaced error names the underlying transport failure and the
    // batch it killed, not some generic scheduler message.
    EXPECT_NE(std::string(e.what()).find("lost contact"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos)
        << e.what();
  }
}

TEST(RemoteBackendTest, ScratchDirLeftCleanOnSuccessAndFailure) {
  const fs::path scratch = test::scratch_path("remote-scratch-");
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  opts.scratch_dir = scratch.string();
  opts.batch_jobs = 2;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<InProcessTransport>();
  };
  const std::vector<JobSpec> jobs = small_grid_jobs();
  (void)RemoteBackend(opts).run_collect(jobs);
  EXPECT_TRUE(fs::is_empty(scratch)) << "success left files behind";

  // Failure path: nothing may be left behind either.
  opts.max_attempts = 1;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<BrokenTransport>(/*fail_prepare=*/false);
  };
  EXPECT_THROW((void)RemoteBackend(opts).run_collect(jobs),
               std::exception);
  EXPECT_TRUE(fs::is_empty(scratch)) << "failure left files behind";

  fs::remove_all(scratch);
}

// ------------------------------------------------ tenants of one pool
//
// mflushd runs every campaign as a RemoteBackend::Tenant of one pool. A
// batch's `what` names its tenant ("campaign A batch 3 (job 3)"), which is
// how the transports below tell the tenants apart.

/// `n` one-point jobs with dense ids 0..n-1 (seeds 1..n).
std::vector<JobSpec> seed_jobs(std::uint32_t n) {
  ExperimentSpec spec;
  spec.name = "tenant-jobs";
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount()};
  spec.seeds.clear();
  for (std::uint32_t s = 1; s <= n; ++s) spec.seeds.push_back(s);
  spec.warmup = 100;
  spec.measure = 300;
  return spec.expand();
}

/// A gate that stays shut until opened (with a starvation backstop).
struct Latch {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void release() {
    const std::lock_guard lk(m);
    open = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(10), [&] { return open; });
  }
};

/// Records every batch's `what` in dispatch order and holds the first
/// batch until `latch` opens, so a test can queue more work behind it.
/// Also records the pool's events, which say when a named tenant's run has
/// queued its batches.
struct DispatchLog {
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::string> whats;
  std::vector<std::string> events;
  Latch latch;

  [[nodiscard]] std::size_t count(const std::string& needle) {
    const std::lock_guard lk(m);
    std::size_t n = 0;
    for (const std::string& w : whats)
      if (w.find(needle) != std::string::npos) ++n;
    return n;
  }
  /// Block until `n` batches have been dispatched.
  void await(std::size_t n) {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(10),
                      [&] { return whats.size() >= n; });
  }
  /// Block until tenant `id`'s run has queued its batches in the pool.
  void await_queued(const std::string& id) {
    const std::string needle = "campaign " + id + ": ";
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(10), [&] {
      return std::any_of(events.begin(), events.end(),
                         [&](const std::string& e) {
                           return e.starts_with(needle) &&
                                  e.find("queued") != std::string::npos;
                         });
    });
  }
};

class LoggingTransport final : public remote::Transport {
 public:
  explicit LoggingTransport(DispatchLog& log) : log_(log) {}
  [[nodiscard]] std::string name() const override { return "test-logging"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override {
    bool first = false;
    {
      const std::lock_guard lk(log_.m);
      first = log_.whats.empty();
      log_.whats.push_back(what);
      log_.cv.notify_all();
    }
    if (first) log_.latch.wait();
    run_batch_in_process(job_bytes, on_result);
  }

 private:
  DispatchLog& log_;
};

RemoteBackend::Options one_slot_logging_pool(DispatchLog& log) {
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec solo;
  solo.name = "solo";
  opts.hosts = {solo};
  opts.batch_jobs = 1;
  opts.transport_factory = [&log](const remote::HostSpec&) {
    return std::make_unique<LoggingTransport>(log);
  };
  opts.on_event = [&log](const std::string& line) {
    const std::lock_guard lk(log.m);
    log.events.push_back(line);
    log.cv.notify_all();
  };
  return opts;
}

TEST(RemoteTenants, LateSmallTenantIsServedBeforeTheLargeOneDrains) {
  DispatchLog log;
  RemoteBackend backend(one_slot_logging_pool(log));
  RemoteBackend::Tenant large(backend, "A");
  RemoteBackend::Tenant small(backend, "B");
  const std::vector<JobSpec> jobs_a = seed_jobs(40);
  const std::vector<JobSpec> jobs_b = seed_jobs(4);

  ResultSink sink_a, sink_b;
  std::thread ta([&] { large.run(jobs_a, sink_a); });
  log.await(1);  // A's first batch holds the only slot; 39 stay queued
  std::thread tb([&] { small.run(jobs_b, sink_b); });
  log.await_queued("B");  // B's 4 batches wait behind A's 39
  log.latch.release();
  tb.join();
  ta.join();

  // Fewest-served-first: B's four batches interleave with A's next few
  // (A, B, A, B, ...: ties go to the smaller id) instead of waiting
  // behind A's 39 queued ones.
  std::size_t a_before_last_b = 0;
  for (std::size_t i = 0, a_seen = 0; i < log.whats.size(); ++i) {
    if (log.whats[i].find("campaign A ") != std::string::npos) ++a_seen;
    if (log.whats[i].find("campaign B ") != std::string::npos)
      a_before_last_b = a_seen;
  }
  EXPECT_EQ(a_before_last_b, 4u);
  EXPECT_EQ(log.count("campaign A "), 40u);
  EXPECT_EQ(log.count("campaign B "), 4u);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs_a), sink_a.collect());
  expect_identical_runs(serial.run_collect(jobs_b), sink_b.collect());
}

TEST(RemoteTenants, ConcurrentTenantsWithCollidingJobIdsMatchSerial) {
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec a, b;
  a.name = "node-a";
  a.slots = 2;
  b.name = "node-b";
  b.slots = 2;
  opts.hosts = {a, b};
  opts.batch_jobs = 1;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<InProcessTransport>();
  };
  RemoteBackend backend(opts);
  RemoteBackend::Tenant first(backend, "first");
  RemoteBackend::Tenant second(backend, "second");
  // Both vectors number their jobs 0..n-1: the claim set that keeps
  // retries idempotent is per run, so job 0 of one never masks job 0 of
  // the other.
  const std::vector<JobSpec> jobs_1 = small_grid_jobs();
  const std::vector<JobSpec> jobs_2 = seed_jobs(6);
  std::vector<RunResult> got_1, got_2;
  std::thread t1([&] { got_1 = first.run_collect(jobs_1); });
  std::thread t2([&] { got_2 = second.run_collect(jobs_2); });
  t1.join();
  t2.join();

  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs_1), got_1);
  expect_identical_runs(serial.run_collect(jobs_2), got_2);
  EXPECT_EQ(first.executed(), jobs_1.size());
  EXPECT_EQ(second.executed(), jobs_2.size());
}

/// Fails every batch of tenant A (counting on the rendezvous) and runs
/// everyone else's.
class FailsTenantATransport final : public remote::Transport {
 public:
  explicit FailsTenantATransport(BrokenRendezvous& rendezvous)
      : rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-fails-a"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override {
    if (what.find("campaign A ") != std::string::npos) {
      rendezvous_.bump();
      throw remote::TransportError(host.label() + ": lost contact during " +
                                   what);
    }
    run_batch_in_process(job_bytes, on_result);
  }

 private:
  BrokenRendezvous& rendezvous_;
};

TEST(RemoteTenants, FailedBatchOfOneTenantRequeuesWhileTheOtherProceeds) {
  BrokenRendezvous rendezvous;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec healthy, flaky;
  healthy.name = "healthy";
  flaky.name = "flaky";
  opts.hosts = {healthy, flaky};
  opts.batch_jobs = 1;
  // A batch that failed on the flaky host is not dispatched there again
  // while the healthy host is live, so none of A's batches can fail twice.
  opts.transport_factory = [&](const remote::HostSpec& host)
      -> std::unique_ptr<remote::Transport> {
    if (host.name == "flaky")
      return std::make_unique<FailsTenantATransport>(rendezvous);
    // The healthy host waits for one failure, so the flaky one is sure to
    // have pulled a batch of A first.
    return std::make_unique<GatedInProcessTransport>(rendezvous, 1);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };
  RemoteBackend backend(opts);
  RemoteBackend::Tenant a(backend, "A");
  RemoteBackend::Tenant b(backend, "B");
  const std::vector<JobSpec> jobs_a = seed_jobs(6);
  const std::vector<JobSpec> jobs_b = small_grid_jobs();
  std::vector<RunResult> got_a, got_b;
  std::thread ta([&] { got_a = a.run_collect(jobs_a); });
  std::thread tb([&] { got_b = b.run_collect(jobs_b); });
  ta.join();
  tb.join();

  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs_a), got_a);
  expect_identical_runs(serial.run_collect(jobs_b), got_b);
  std::size_t a_failures = 0;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("failed campaign B "), std::string::npos) << e;
    if (e.find("flaky#1 failed campaign A ") != std::string::npos)
      ++a_failures;
  }
  EXPECT_GE(a_failures, 1u);
}

/// Fails every batch of tenant A on any host (a poison job, not a bad
/// host). Each host's first batch of tenant B waits until B has a batch in
/// flight on two hosts, so B shows which hosts are still live.
class PoisonATransport final : public remote::Transport {
 public:
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    std::set<std::string> b_hosts;
  };
  explicit PoisonATransport(Shared& shared) : shared_(shared) {}
  [[nodiscard]] std::string name() const override { return "test-poison"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override {
    if (what.find("campaign A ") != std::string::npos) {
      throw remote::TransportError(host.label() + ": worker crashed on " +
                                   what);
    }
    {
      std::unique_lock lk(shared_.m);
      shared_.b_hosts.insert(host.label());
      shared_.cv.notify_all();
      (void)shared_.cv.wait_for(lk, std::chrono::seconds(10),
                                [&] { return shared_.b_hosts.size() >= 2; });
    }
    run_batch_in_process(job_bytes, on_result);
  }

 private:
  Shared& shared_;
};

TEST(RemoteTenants, PoisonJobOfOneTenantRetiresNoHost) {
  // The daemon's settings: one job per batch, default attempts and
  // retirement threshold. A's one job fails on every host.
  PoisonATransport::Shared shared;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec x, y;
  x.name = "x";
  y.name = "y";
  opts.hosts = {x, y};
  opts.batch_jobs = 1;
  opts.transport_factory = [&](const remote::HostSpec&) {
    return std::make_unique<PoisonATransport>(shared);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };
  RemoteBackend backend(opts);
  RemoteBackend::Tenant a(backend, "A");
  RemoteBackend::Tenant b(backend, "B");

  try {
    (void)a.run_collect(seed_jobs(1));
    FAIL() << "expected A's poison job to fail its run";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("worker crashed"), std::string::npos)
        << e.what();
  }
  // Its retries alternated hosts, and only the first failure was charged.
  std::size_t on_x = 0, on_y = 0;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("retired"), std::string::npos) << e;
    if (e.starts_with("x#0 failed campaign A ")) ++on_x;
    if (e.starts_with("y#1 failed campaign A ")) ++on_y;
  }
  EXPECT_EQ(on_x + on_y, 3u);
  EXPECT_GE(on_x, 1u);
  EXPECT_GE(on_y, 1u);

  // Both hosts still serve the next tenant.
  const std::vector<JobSpec> jobs_b = seed_jobs(4);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs_b), b.run_collect(jobs_b));
  EXPECT_EQ(shared.b_hosts, (std::set<std::string>{"x#0", "y#1"}));
}

/// Fails this host's dispatches numbered in `fail` (1-based) and counts
/// every dispatch on the rendezvous.
class ScriptedFailTransport final : public remote::Transport {
 public:
  ScriptedFailTransport(std::set<int> fail, BrokenRendezvous& rendezvous)
      : fail_(std::move(fail)), rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-scripted"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override {
    const int n = ++dispatched_;
    if (fail_.contains(n)) {
      rendezvous_.bump();
      throw remote::TransportError(host.label() + ": dropped " + what);
    }
    run_batch_in_process(job_bytes, on_result);
    rendezvous_.bump();
  }

 private:
  std::set<int> fail_;
  BrokenRendezvous& rendezvous_;
  std::atomic<int> dispatched_{0};
};

TEST(RemoteBackendTest, ASuccessResetsAHostsFailureCount) {
  // The flaky host fails its first and third batches and runs its second:
  // two failures, but not in a row, so it stays in the pool. The healthy
  // host holds its first batch until the flaky one has run three.
  BrokenRendezvous rendezvous;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec healthy, flaky;
  healthy.name = "healthy";
  flaky.name = "flaky";
  opts.hosts = {healthy, flaky};
  opts.batch_jobs = 1;
  opts.host_max_failures = 2;
  opts.transport_factory = [&](const remote::HostSpec& host)
      -> std::unique_ptr<remote::Transport> {
    if (host.name == "flaky") {
      return std::make_unique<ScriptedFailTransport>(std::set<int>{1, 3},
                                                     rendezvous);
    }
    return std::make_unique<GatedInProcessTransport>(rendezvous, 3);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };

  const std::vector<JobSpec> jobs = small_grid_jobs();
  RemoteBackend backend(opts);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));
  std::size_t failures = 0;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("retired"), std::string::npos) << e;
    if (e.starts_with("flaky#1 failed ")) ++failures;
  }
  EXPECT_EQ(failures, 2u);
}

TEST(RemoteTenants, CancelFailsOnlyThatTenant) {
  DispatchLog log;
  RemoteBackend backend(one_slot_logging_pool(log));
  RemoteBackend::Tenant a(backend, "A");
  RemoteBackend::Tenant b(backend, "B");
  const std::vector<JobSpec> jobs_a = seed_jobs(12);
  const std::vector<JobSpec> jobs_b = seed_jobs(4);

  std::string a_error;
  std::thread ta([&] {
    try {
      (void)a.run_collect(jobs_a);
    } catch (const std::exception& e) {
      a_error = e.what();
    }
  });
  log.await(1);  // A's first batch holds the only slot
  std::vector<RunResult> got_b;
  std::thread tb([&] { got_b = b.run_collect(jobs_b); });
  log.await_queued("B");  // both tenants have queued batches
  backend.cancel(a);
  log.latch.release();
  ta.join();
  tb.join();

  EXPECT_NE(a_error.find("campaign cancelled"), std::string::npos)
      << "A's run ended with: '" << a_error << "'";
  EXPECT_LT(log.count("campaign A "), jobs_a.size());
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs_b), got_b);
  // The cancellation sticks: a later run of A fails without dispatching.
  EXPECT_THROW((void)a.run_collect(jobs_a), std::runtime_error);
}

/// In-process transport that counts prepare() calls.
class CountingTransport final : public remote::Transport {
 public:
  explicit CountingTransport(std::atomic<int>& prepares)
      : prepares_(prepares) {}
  [[nodiscard]] std::string name() const override { return "test-counting"; }
  void prepare(const remote::HostSpec&) override { ++prepares_; }
  void run_batch(const remote::HostSpec&,
                 std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string&) override {
    run_batch_in_process(job_bytes, on_result);
  }

 private:
  std::atomic<int>& prepares_;
};

TEST(RemoteTenants, HostStateOutlivesARun) {
  // A sampled sweep whose forks carry their warmed parents, run twice
  // through one backend: the host is prepared once, and each parent
  // crosses to it once over both runs. One slot keeps the count exact.
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 600;
  spec.measure = 400;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = 200;
  std::vector<JobSpec> jobs = spec.expand();
  SerialBackend serial;
  resolve_parent_snapshots(jobs, serial);
  const std::vector<RunResult> expected = serial.run_collect(jobs);

  std::atomic<int> prepares{0};
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec solo;
  solo.name = "node";
  opts.hosts = {solo};
  opts.batch_jobs = 1;
  opts.transport_factory = [&](const remote::HostSpec&) {
    return std::make_unique<CountingTransport>(prepares);
  };
  std::size_t uploads = 0;
  opts.on_event = [&](const std::string& line) {
    if (line.find(": uploaded parent ") != std::string::npos) ++uploads;
  };
  RemoteBackend backend(opts);
  expect_identical_runs(expected, backend.run_collect(jobs));
  EXPECT_EQ(uploads, 2u);  // two parents
  expect_identical_runs(expected, backend.run_collect(jobs));
  EXPECT_EQ(uploads, 2u) << "the second run re-uploaded a parent";
  EXPECT_EQ(prepares.load(), 1);
}

// ------------------------------------------- end-to-end with the binary

/// The acceptance grid: RemoteBackend over real LocalTransport
/// subprocesses, one host killed mid-run via fail injection, full
/// SimMetrics bit-identity with SerialBackend.
TEST(RemoteBackendTest, MatchesSerialWithMidRunHostFailure) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  RemoteBackend::Options opts;
  remote::HostSpec healthy, flaky;
  healthy.name = "local";
  healthy.slots = 2;
  flaky.name = "local";
  flaky.slots = 2;
  flaky.fail_batches = 2;  // dies on its first two batches, then retires
  opts.hosts = {healthy, flaky};
  opts.batch_jobs = 2;
  opts.host_max_failures = 2;

  const std::vector<JobSpec> jobs = small_grid_jobs();
  RemoteBackend backend(opts);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));
}

TEST(RemoteBackendTest, DefaultPoolIsLoopbackFanOut) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  // No hosts described: one local host, results still serial-identical.
  RemoteBackend backend;
  std::vector<JobSpec> jobs = small_grid_jobs();
  jobs.resize(4);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));
}

// ------------------------------------------ SshTransport over a fake ssh
//
// A fake `ssh` first on PATH strips the -o options and the host, then runs
// the remote command with sh -c on this machine: SshTransport's whole path
// (binary upload over stdin, one ssh call per batch, framed results on
// ssh's stdout) runs without a network. The hosts are loopback addresses,
// so even a bypassed fake could not reach another machine.

class FakeSshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_path("fake-ssh-");
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "bin");
    const char* env_path = std::getenv("PATH");
    old_path_ = env_path != nullptr ? env_path : "/usr/bin:/bin";
    install_ssh(
        "while [ \"$1\" = -o ]; do shift 2; done\n"
        "shift\n"
        "exec /bin/sh -c \"$1\"\n");
    // scp must never be needed; a call leaves a mark and fails.
    install("scp",
            ": > \"" + (dir_ / "scp-called").string() + "\"\nexit 1\n");
    const std::string path = (dir_ / "bin").string() + ":" + old_path_;
    ASSERT_EQ(setenv("PATH", path.c_str(), 1), 0);
    ASSERT_EQ(first_on_path("ssh"), (dir_ / "bin" / "ssh").string());
  }
  void TearDown() override {
    setenv("PATH", old_path_.c_str(), 1);
    fs::remove_all(dir_);
  }

  void install(const std::string& name, const std::string& body) {
    const fs::path path = dir_ / "bin" / name;
    {
      std::ofstream out(path);
      out << "#!/bin/sh\n" << body;
    }
    fs::permissions(path, fs::perms::owner_all, fs::perm_options::add);
  }
  /// The fake ssh: logs its argument line, then runs `body`.
  void install_ssh(const std::string& body) {
    install("ssh",
            "echo \"$*\" >> \"" + log().string() + "\"\n" + body);
  }

  [[nodiscard]] static std::string first_on_path(const std::string& tool) {
    std::string path = std::getenv("PATH");
    std::size_t begin = 0;
    for (;;) {
      const std::size_t end = path.find(':', begin);
      const fs::path candidate =
          fs::path(path.substr(begin, end - begin)) / tool;
      if (::access(candidate.c_str(), X_OK) == 0) return candidate.string();
      if (end == std::string::npos) return {};
      begin = end + 1;
    }
  }

  [[nodiscard]] remote::HostSpec host(std::size_t index) const {
    remote::HostSpec h = remote::parse_host(
        "127.0.0.1 dir=" + (dir_ / ("host" + std::to_string(index))).string());
    h.index = index;
    return h;
  }
  [[nodiscard]] fs::path log() const { return dir_ / "ssh.log"; }
  /// Logged ssh calls whose argument line contains `needle`.
  [[nodiscard]] std::size_t ssh_calls(const std::string& needle) const {
    std::ifstream in(log());
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
      if (line.find(needle) != std::string::npos) ++n;
    return n;
  }

  fs::path dir_;
  std::string old_path_;
};

TEST_F(FakeSshTest, TwoHostSweepMatchesSerial) {
  const std::string real = default_worker_binary();
  if (real.empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  RemoteBackend::Options opts;
  opts.worker_binary = real;
  opts.hosts = {host(0), host(1)};
  opts.batch_jobs = 2;
  const std::vector<JobSpec> jobs = small_grid_jobs();  // 8 jobs, 4 batches
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs),
                        RemoteBackend(opts).run_collect(jobs));
  // One ssh call per batch, plus one upload per host that ran a batch.
  EXPECT_EQ(ssh_calls("--worker -"), 4u);
  const std::size_t uploads = ssh_calls("cat >");
  EXPECT_GE(uploads, 1u);
  EXPECT_LE(uploads, 2u);
  EXPECT_EQ(ssh_calls(""), 4u + uploads);
  EXPECT_FALSE(fs::exists(dir_ / "scp-called"));

  // A sampled sweep: warmed parents ship to each host's store, and the
  // multi-megabyte warm payloads come back over ssh's stdout.
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 600;
  spec.measure = 800;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 2;
  spec.sampled.fork_stride = 400;
  RemoteBackend remote(opts);
  expect_identical_runs(run_experiment(spec, serial),
                        run_experiment(spec, remote));
}

TEST_F(FakeSshTest, PrepareUploadsTheBinaryOverStdin) {
  // Larger than a socket buffer, so the upload needs several writes.
  std::vector<char> binary(300 * 1024);
  for (std::size_t i = 0; i < binary.size(); ++i)
    binary[i] = static_cast<char>((i * 2654435761u) >> 13);
  const fs::path source = dir_ / "worker-binary";
  std::ofstream(source, std::ios::binary)
      .write(binary.data(), static_cast<std::streamsize>(binary.size()));

  remote::SshTransport ssh(source.string(), 30);
  const remote::HostSpec h = host(0);
  ssh.prepare(h);

  const fs::path shipped = fs::path(h.remote_dir) / "mflushsim.0";
  std::ifstream in(shipped, std::ios::binary);
  const std::vector<char> got((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  EXPECT_TRUE(got == binary) << "uploaded bytes differ";
  EXPECT_EQ(::access(shipped.c_str(), X_OK), 0) << "not executable";
  EXPECT_FALSE(fs::exists(shipped.string() + ".tmp"));
  EXPECT_EQ(ssh_calls(""), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "scp-called"));
}

TEST_F(FakeSshTest, WedgedSshHitsTheTimeout) {
  install_ssh("exec sleep 30\n");
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "1", 1), 0);
  remote::SshTransport ssh("unused-worker-binary");
  ASSERT_EQ(unsetenv("MFLUSH_SSH_TIMEOUT"), 0);

  const std::vector<std::uint8_t> job_bytes =
      worker::encode_jobs({small_grid_jobs().front()});
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ssh.run_batch(host(0), job_bytes, [](std::span<const std::uint8_t>) {},
                  "batch 0 (job 0)");
    FAIL() << "expected the wedged ssh to time out";
  } catch (const remote::TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("batch 0"), std::string::npos) << what;
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 10.0) << "the deadline did not cut the wedge short";
}

}  // namespace
}  // namespace mflush
