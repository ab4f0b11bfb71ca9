#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/backend.h"

/// Fault-tolerant distributed sweep backend.
///
/// RemoteBackend schedules *batches* of JobSpecs over a pool of hosts
/// through a pluggable Transport. A batch travels as one MFLUSJOB frame
/// per job on the stdin of one `mflushsim --worker -` invocation on its
/// host, and comes back as one MFLUSRES frame per job on its stdout (both
/// laid out by common/frame.h) — amortizing the process-spawn overhead
/// that dominates one-subprocess-per-job fan-out.
/// It is the project's one scheduler. The backend owns its hosts and one
/// thread per host slot for its whole lifetime (started by the first
/// run(), never by the constructor). Batches queue per tenant: a plain
/// run() is one tenant and runs FIFO, while mflushd gives every campaign
/// a RemoteBackend::Tenant and each idle slot serves the tenant with the
/// fewest jobs served so far. Every slot pulls from those queues, so work
/// steals: a failed or unreachable host's batch is re-queued onto healthy
/// hosts (bounded attempts per batch, a failing multi-job batch split in
/// halves to isolate a poison job, never retried on the host it last
/// failed on while another is live), and a host that fails several batches
/// in a row is retired for the pool's lifetime while at least one other
/// host survives. Results stream into the run's ResultSink as each job lands,
/// through a per-run claim set, so retries never push a job twice; the
/// backend contract — full-SimMetrics bit-identity with SerialBackend —
/// holds because every job still executes through run_job and doubles
/// cross the wire as raw bytes.
namespace mflush {
namespace remote {

/// One worker host in the pool.
///
/// Text grammar (hosts files, MFLUSH_HOSTS): entries separated by
/// newlines, commas or semicolons; `#` comments to end of line. Each entry
/// is `name [key=value ...]` with keys:
///   slots=N   concurrent batches on this host (default 1)
///   fail=N    test/CI fault injection — LocalTransport fails this host's
///             first N batches, exercising the re-queue path (default 0)
///   dir=PATH  ssh scratch directory on the host
///             (default /tmp/mflush-remote)
/// The name `local` (or `localhost`) selects the loopback LocalTransport;
/// anything else is an ssh destination (`host`, `user@host`).
struct HostSpec {
  std::string name;
  unsigned slots = 1;
  unsigned fail_batches = 0;
  std::string remote_dir = "/tmp/mflush-remote";
  std::size_t index = 0;  ///< dense pool index, assigned by RemoteBackend
  /// Host-side WarmStore directory (a path on the host itself), resolved
  /// by RemoteBackend when the sweep references warmed parents — not part
  /// of the hosts grammar. Empty = no warm shipping for this host; every
  /// fork embeds its snapshot bytes inline.
  std::string warm_store_dir;

  [[nodiscard]] bool is_local() const noexcept {
    return name == "local" || name == "localhost";
  }
  /// "name#index" — stable even when the same name appears twice.
  [[nodiscard]] std::string label() const {
    return name + "#" + std::to_string(index);
  }
};

/// Parse one host entry; throws std::runtime_error naming the first
/// problem (empty name, slots=0, malformed value, unknown key — a typo
/// must never silently shrink the pool).
[[nodiscard]] HostSpec parse_host(std::string_view entry);

/// Parse a whole hosts description (see the HostSpec grammar above).
[[nodiscard]] std::vector<HostSpec> parse_hosts(std::string_view text);

/// parse_hosts over a file's contents; throws when unreadable.
[[nodiscard]] std::vector<HostSpec> read_hosts_file(const std::string& path);

/// Hosts from $MFLUSH_HOSTS; empty vector when unset or blank. Throws
/// when the variable is set but names no hosts, or contains a '#'
/// (comments are line-scoped, so in a one-line env var one would
/// silently comment out every later entry — use a hosts file instead).
[[nodiscard]] std::vector<HostSpec> hosts_from_env();

/// Contiguous [begin, end) job-index chunks for a sweep of `jobs` jobs.
/// `batch_jobs` == 0 picks an automatic size aiming at ~4 batches per host
/// slot, so work stealing has slack to rebalance around a slow or failed
/// host (floor 1 job per batch).
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> batch_ranges(
    std::size_t jobs, std::size_t batch_jobs, std::size_t slots);

/// What a Transport throws: the batch is intact and may be re-queued.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Moves one batch through one host. Implementations must be safe to call
/// concurrently from that host's slots; `what` describes the batch for
/// error messages ("batch 2 (jobs 4-7)"). Any failure — spawn, network,
/// nonzero exit, death by signal, a stream cut mid-frame or a damaged
/// frame header — throws TransportError so the scheduler can re-queue the
/// batch.
class Transport {
 public:
  /// Receives one whole result frame (a one-entry MFLUSRES frame, its
  /// checksum not yet checked) the moment the worker emits it, while later
  /// jobs of the batch may still be running. May throw; the batch then
  /// fails.
  using OnResult = std::function<void(std::span<const std::uint8_t>)>;

  virtual ~Transport() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-time per-host setup (ship the worker binary). Called before the
  /// host's first batch; a throw counts as a host failure and is retried
  /// on the host's next batch.
  virtual void prepare(const HostSpec& host) = 0;

  /// Run the job frames `job_bytes` on the host, handing each result
  /// frame to `on_result` as it arrives.
  virtual void run_batch(const HostSpec& host,
                         std::span<const std::uint8_t> job_bytes,
                         const OnResult& on_result,
                         const std::string& what) = 0;
};

/// Loopback transport: the batch runs as a `mflushsim --worker -`
/// subprocess on this machine (used by tests and CI, and the default for
/// `local` hosts). Honours HostSpec::fail_batches by failing the host's
/// first N batches before spawning anything — the CI fault-injection hook.
class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(std::string worker_binary)
      : bin_(std::move(worker_binary)) {}

  [[nodiscard]] std::string name() const override { return "local"; }
  void prepare(const HostSpec& host) override;
  void run_batch(const HostSpec& host, std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override;

 private:
  std::string bin_;
  std::atomic<unsigned> dispatched_{0};
};

/// ssh transport, one BatchMode ssh call per step: prepare() pipes the
/// worker binary into `mkdir -p DIR && cat > BIN.tmp && chmod +x ... && mv`
/// once per host; run_batch() runs `BIN --worker -` remotely with the job
/// frames on ssh's stdin and reads the result frames off ssh's stdout,
/// exactly as LocalTransport reads a local worker's. An unreachable or
/// password-prompting host fails fast and its batches re-queue elsewhere.
///
/// Every ssh invocation runs under a wall-clock deadline on top of
/// ConnectTimeout: ConnectTimeout only covers the TCP handshake, so a link
/// that wedges *mid-transfer* (half-open connection, remote kernel hang)
/// would otherwise stall a host slot forever. At the deadline ssh is
/// killed and the failure re-queues the batch like any other host fault.
/// `timeout_s` == 0 resolves MFLUSH_SSH_TIMEOUT (default 600; malformed
/// values are a hard error, env.h policy).
class SshTransport final : public Transport {
 public:
  explicit SshTransport(std::string worker_binary, unsigned timeout_s = 0);

  [[nodiscard]] std::string name() const override { return "ssh"; }
  void prepare(const HostSpec& host) override;
  void run_batch(const HostSpec& host, std::span<const std::uint8_t> job_bytes,
                 const OnResult& on_result, const std::string& what) override;

 private:
  std::string bin_;
  unsigned timeout_s_;
};

}  // namespace remote

/// The distributed ExperimentBackend (see the file comment for semantics).
class RemoteBackend final : public ExperimentBackend {
 public:
  struct Options {
    /// The pool; empty means one `local` host with
    /// ParallelRunner::default_jobs() slots (loopback fan-out).
    std::vector<remote::HostSpec> hosts;
    /// Worker binary shipped/spawned; empty means default_worker_binary().
    std::string worker_binary;
    /// Where session-scoped warm stores live (local hosts in a sweep with
    /// warmed parents and no coordinator warm_store); empty = system temp
    /// dir. They are removed when the backend is destroyed.
    std::string scratch_dir;
    /// Jobs per batch; 0 = auto (see remote::batch_ranges).
    std::size_t batch_jobs = 0;
    /// Total attempts per batch across all hosts (>= 1) before the sweep
    /// fails with the batch's last error.
    unsigned max_attempts = 3;
    /// Consecutive failures (a success resets the count) before a host is
    /// retired. Only a batch's first failure counts: a failed batch is not
    /// retried on the same host while another is live, so its later
    /// failures point at the batch. The last surviving host is never
    /// retired — its batches just run out their attempts.
    unsigned host_max_failures = 2;
    /// Per-ssh-command wall-clock deadline in seconds for
    /// SshTransport; 0 resolves MFLUSH_SSH_TIMEOUT (default 600). See the
    /// SshTransport comment — this is what turns a wedged link into an
    /// ordinary host failure.
    unsigned ssh_timeout = 0;
    /// Transport per host; null means LocalTransport for `local` hosts
    /// and SshTransport otherwise. Tests inject failing transports here.
    std::function<std::unique_ptr<remote::Transport>(
        const remote::HostSpec&)>
        transport_factory;
    /// Serialized scheduler narration (a named tenant's queued runs, batch
    /// failures, re-queues, host retirements, parent snapshot uploads) — wire
    /// report::event_printer(std::cerr) for the CLI.
    std::function<void(const std::string&)> on_event;
    /// Coordinator-side warm store. Local hosts share it directly (their
    /// workers read the same directory, so no bytes ever ride the job
    /// archive); without it, each local host gets a session-scoped scratch
    /// store and ssh hosts one under their remote_dir — either way a
    /// parent's snapshot is uploaded at most once per host, and later
    /// batches ship the 8-byte hash instead.
    WarmStore* warm_store = nullptr;
  };

  /// One tenant of a shared pool (mflushd runs one per campaign). Its runs
  /// queue next to every other tenant's, and each idle host slot takes the
  /// next batch of the tenant with the fewest jobs served so far (ties go
  /// to the smaller id), so a late 4-job sweep is not starved behind an
  /// early 400-job one. The tenant must not outlive its pool.
  class Tenant final : public ExperimentBackend {
   public:
    Tenant(RemoteBackend& pool, std::string id)
        : pool_(pool), id_(std::move(id)) {}

    [[nodiscard]] std::string name() const override { return "remote"; }
    void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

    [[nodiscard]] const std::string& id() const noexcept { return id_; }
    /// Measured (not warm) jobs whose results this tenant's runs delivered.
    [[nodiscard]] std::uint64_t executed() const noexcept {
      return executed_.load();
    }

   private:
    friend class RemoteBackend;
    RemoteBackend& pool_;
    const std::string id_;
    std::atomic<std::uint64_t> executed_{0};
    std::uint64_t served_ = 0;  ///< jobs dispatched; pool mutex
    bool cancelled_ = false;    ///< pool mutex
  };

  /// Builds nothing yet: hosts, transports and one thread per host slot
  /// come up on the first run() and live until the backend is destroyed.
  RemoteBackend();  ///< default Options
  explicit RemoteBackend(Options options);
  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;
  /// Stops the slot threads and removes session warm stores. No run() may
  /// be in progress.
  ~RemoteBackend() override;

  [[nodiscard]] std::string name() const override { return "remote"; }
  /// One anonymous tenant: its batches run in FIFO order.
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

  /// Fail `tenant`'s queued batches and every later run of it with
  /// "campaign cancelled"; batches already on a host finish first.
  void cancel(Tenant& tenant);

 private:
  struct Pool;
  void run_for(Tenant& tenant, const std::vector<JobSpec>& jobs,
               ResultSink& sink);

  std::unique_ptr<Pool> pool_;
};

}  // namespace mflush
