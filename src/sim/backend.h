#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment_spec.h"

/// Interchangeable execution backends for expanded experiments.
///
/// The contract every backend honours: given the same job vector, the
/// RunResult for each job id is bit-identical (full SimMetrics equality) to
/// executing run_job(job) in a plain serial loop — only wall-clock timing
/// fields may differ. Results stream into a ResultSink as jobs finish (any
/// order); collect() restores job-id order, so a sweep's output never
/// depends on scheduling. Tested by BackendTest.CrossBackendDeterminism.
namespace mflush {

class ParallelRunner;
class WarmStore;

/// Streaming result collection: an optional on_result callback fires as
/// each job completes (completion order, serialized — never concurrently),
/// and collect() returns every result ordered by job id.
class ResultSink {
 public:
  using OnResult = std::function<void(const JobSpec&, const RunResult&)>;

  ResultSink() = default;
  explicit ResultSink(OnResult on_result)
      : on_result_(std::move(on_result)) {}

  /// Record the result of `job` (thread-safe; slot = job.id). Fires the
  /// callback while holding the sink lock, so callbacks must not re-enter
  /// the sink or block on the backend.
  void push(const JobSpec& job, RunResult result);

  [[nodiscard]] std::size_t completed() const;

  /// Copy of the result in slot `id`; throws if that job has not finished.
  [[nodiscard]] RunResult at(std::size_t id) const;

  /// All results ordered by job id; throws if any slot is still empty
  /// (a backend bug — backends only return from run() when every job is
  /// done). Leaves the sink intact, so sampled-mode rounds can keep
  /// appending after an intermediate collect.
  [[nodiscard]] std::vector<RunResult> collect() const;

 private:
  mutable std::mutex m_;
  std::vector<std::optional<RunResult>> slots_;
  OnResult on_result_;
};

/// Executes a batch of jobs. run() returns once every job's result has been
/// pushed into the sink; the first job failure is rethrown after the batch
/// drains.
class ExperimentBackend {
 public:
  virtual ~ExperimentBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void run(const std::vector<JobSpec>& jobs, ResultSink& sink) = 0;

  /// Backend that executes warm jobs (sampled-mode parent warm-ups). By
  /// default the backend itself; decorators that must not intercept warm
  /// work — e.g. the durable campaign wrapper, whose journal/cache only
  /// tracks measured jobs (the warm store is the warm jobs' durability
  /// layer) — forward to the wrapped backend.
  [[nodiscard]] virtual ExperimentBackend& warmup_backend() noexcept {
    return *this;
  }

  /// Convenience: run into a fresh sink and return the ordered results.
  [[nodiscard]] std::vector<RunResult> run_collect(
      const std::vector<JobSpec>& jobs);
};

/// The reference loop: jobs run one after another on the calling thread, in
/// vector order. Every other backend is tested against this one.
class SerialBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::string name() const override { return "serial"; }
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;
};

/// Jobs fan out across a ParallelRunner thread pool within this process.
class InProcessBackend final : public ExperimentBackend {
 public:
  /// Default: the process-wide shared pool (MFLUSH_JOBS threads).
  InProcessBackend();
  explicit InProcessBackend(ParallelRunner& pool) : pool_(&pool) {}

  [[nodiscard]] std::string name() const override { return "inprocess"; }
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

 private:
  ParallelRunner* pool_;
};

namespace proc {

/// Receives each chunk a child writes to its stdout, in order.
using OnOutput = std::function<void(std::span<const std::uint8_t>)>;

/// Run `bin args...` to completion (PATH lookup via posix_spawnp) and
/// return its exit code. Throws on spawn failure or death by signal; a
/// non-empty `what` (e.g. "batch 2 (jobs 4-7)") is woven into those
/// messages so a dead worker names the work it was running, not just the
/// binary. A nonzero `timeout_s` is a wall-clock deadline: a child still
/// running at the deadline is SIGKILLed, reaped, and reported as a throw
/// naming the timeout — so a wedged subprocess (a hung ssh, a stuck
/// worker) surfaces as an ordinary failure instead of blocking forever.
/// The child leads its own process group, and every kill goes to the whole
/// group: a grandchild (ssh's helpers, a shell's `sleep`) cannot outlive
/// the deadline and hold the output open. The child starts with SIGPIPE at
/// its default, so a worker whose coordinator died exits at its next
/// result write.
///
/// A non-empty `input` is fed to the child's stdin, which then reads EOF
/// (empty: stdin is inherited). With `on_output`, the child's stdout is
/// captured and handed over chunk by chunk as it arrives (otherwise it is
/// inherited). Both travel over socketpairs written with MSG_NOSIGNAL, so a
/// child that exits without reading its input shows up as its exit status,
/// never as SIGPIPE killing the caller. One poll() loop drives the input,
/// the output and the deadline; an exception thrown by `on_output` kills
/// the group and reaps the child, then propagates.
int spawn_and_wait(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& what = {}, unsigned timeout_s = 0,
                   std::span<const std::uint8_t> input = {},
                   const OnOutput& on_output = {});

}  // namespace proc

/// Record argv[0] at process startup (mflushsim does this first thing in
/// main). default_worker_binary falls back to it where /proc/self/exe is
/// unavailable (non-Linux) — without it, discovery silently returned empty
/// there and the backend error fired even though the binary was findable.
void record_argv0(const char* argv0);

/// Resolve a worker binary near the executable at `exe`: `exe` itself when
/// it is named mflushsim, else a sibling `mflushsim` in the same directory
/// (the build-tree layout, which is how the test binaries find the worker).
/// Empty string when neither exists.
[[nodiscard]] std::string worker_binary_near(const std::string& exe);

/// Resolve the worker binary, first match wins: $MFLUSH_WORKER_BIN;
/// worker_binary_near(/proc/self/exe); worker_binary_near(recorded
/// argv[0]). Empty string only when every source genuinely fails.
[[nodiscard]] std::string default_worker_binary();

/// Knobs threaded through run_experiment / run_experiment_durable.
struct RunOptions {
  /// Warm store consulted and filled by the sampled-mode warm phase. Null
  /// still works — missing parents warm as parallel backend jobs and are
  /// shared through the in-process registry — but nothing persists across
  /// processes.
  WarmStore* warm_store = nullptr;
  /// Warm-phase narration ("N parent(s): H reused, W warmed"). The CLI
  /// wires report::event_printer(std::cerr, "warm-store: ").
  std::function<void(const std::string&)> on_event;
  /// Tenant tag prefixed onto warm-phase event lines ("[label] N
  /// parent(s): ..."): mflushd sets the campaign id here so concurrent
  /// tenants' warm narration stays attributable. Empty = classic lines.
  std::string label;
};

/// The sampled-mode warm phase: attach parent snapshot bytes to every
/// by-reference fork job in `jobs` (parent_key set, snapshot null). Each
/// distinct parent resolves, in order: the warm store (options.warm_store),
/// the in-process registry (healing the store entry back when one is
/// configured), and finally a warm job executed on
/// backend.warmup_backend() — all misses warm concurrently as one batch.
/// After this returns every by-ref job carries its snapshot. No-op for job
/// vectors without parent references (FullRun, pre-resolved forks).
void resolve_parent_snapshots(std::vector<JobSpec>& jobs,
                              ExperimentBackend& backend,
                              const RunOptions& options = {});

/// Execute a full spec on a backend. FullRun specs are expand()ed and run
/// as one batch. Sampled specs first resolve parent snapshots (see
/// resolve_parent_snapshots — warm-store lookups or parallel warm jobs,
/// never coordinator-thread simulation), then run round by round: after
/// each round the 95% confidence half-width of every point's mean IPC is
/// computed from its fork results, and points whose relative half-width
/// still exceeds sampled.target_half_width get another round of forks
/// (continuing the fork_advance stride off the same parent snapshot) until
/// they converge or sampled.max_rounds is reached — the SMARTS-style
/// stopping rule. Deterministic for any backend: the rule only consumes
/// job results, which are themselves backend-independent.
///
/// Returns all results ordered by job id (sampled mode: round-0 forks for
/// every point first, then continuation rounds in creation order).
std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink,
                                      const RunOptions& options);

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink);

/// run_experiment into a sink with no callback.
[[nodiscard]] std::vector<RunResult> run_experiment(
    const ExperimentSpec& spec, ExperimentBackend& backend);

// ------------------------------------------------------ worker protocol
//
// A worker reads one frame::kJob frame per job on stdin, to EOF, and
// answers on stdout with one frame::kResult frame per job, written as each
// job finishes. Frames are self-delimiting (common/frame.h), so neither
// stream needs an outer length prefix. Decoders reject damage, version
// skew and trailing bytes outright — a corrupt job must fail loudly, never
// half-run.
namespace worker {

/// Bound on one frame's payload in a worker stream. Warm results and
/// parent uploads carry whole snapshots, so it is generous; its job is to
/// turn a damaged length into an error the moment the header arrives,
/// instead of buffering the stream to EOF.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// A worker's stdin: one job frame per job, concatenated.
[[nodiscard]] std::vector<std::uint8_t> encode_jobs(
    const std::vector<JobSpec>& jobs);
[[nodiscard]] std::vector<JobSpec> decode_jobs(
    std::span<const std::uint8_t> bytes, const std::string& what);

/// One result frame holding every (slot id, result) entry. A worker emits
/// one one-entry frame per job; the campaign result cache (sim/campaign.h)
/// stores the same one-entry frames, so a cache entry is readable by the
/// same decoder the worker protocol trusts. `what` is woven into errors.
[[nodiscard]] std::vector<std::uint8_t> encode_results(
    const std::vector<std::pair<std::uint32_t, RunResult>>& results);
[[nodiscard]] std::vector<std::pair<std::uint32_t, RunResult>>
decode_results(std::span<const std::uint8_t> bytes, const std::string& what);

/// Splits a worker's stdout byte stream back into its result frames.
class FrameReader {
 public:
  /// Append `chunk`; hand every frame it completes to `on_frame`, which
  /// must decode_results() it (that checks the checksum). Throws
  /// std::runtime_error on a damaged header — a bad magic or version, or a
  /// length over kMaxFrameBytes — as soon as the header is in.
  void feed(std::span<const std::uint8_t> chunk,
            const std::function<void(std::span<const std::uint8_t>)>&
                on_frame);
  /// Bytes of an unfinished frame: nonzero at end of stream means the
  /// stream was cut mid-frame.
  [[nodiscard]] std::size_t pending() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// The `mflushsim --worker -` entry point: read the job frames from `in`
/// (stdin) to EOF, run every job, and write each job's one-entry result
/// frame to `out` (stdout) as soon as it finishes (warm and measured jobs
/// alike). Returns a process exit code (0 on success).
///
/// A non-empty `store_dir` opens the host-side WarmStore
/// (`--worker-store`): embedded parent snapshots are installed into it
/// before anything runs (so one upload serves every later batch on this
/// host), by-reference forks resolve their bytes from it, and warm-job
/// payloads are stored after capture. Without a store, by-ref forks fall
/// back to run_job's deterministic in-process re-warm.
int run_worker(std::istream& in, std::ostream& out,
               const std::string& store_dir = {});

}  // namespace worker
}  // namespace mflush
