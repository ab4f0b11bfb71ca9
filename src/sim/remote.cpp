#include "sim/remote.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/env.h"
#include "common/fsio.h"
#include "sim/campaign.h"
#include "sim/parallel.h"
#include "sim/warmstore.h"

namespace mflush {
namespace remote {
namespace {

[[noreturn]] void bad_host(const std::string& entry, const std::string& why) {
  throw std::runtime_error("bad host entry '" + entry + "': " + why);
}

unsigned parse_count(const std::string& entry, std::string_view key,
                     std::string_view value, bool allow_zero) {
  std::uint64_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9')
      bad_host(entry, std::string(key) + " expects an integer, got '" +
                          std::string(value) + "'");
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
    if (out > std::numeric_limits<unsigned>::max())
      bad_host(entry, std::string(key) + " value out of range: '" +
                          std::string(value) + "'");
  }
  if (value.empty())
    bad_host(entry, std::string(key) + " expects an integer");
  if (out == 0 && !allow_zero)
    bad_host(entry, std::string(key) + " must be >= 1");
  return static_cast<unsigned>(out);
}

/// Quote for the remote shell ssh runs the command line through: single
/// quotes, with embedded ones rewritten as '\'' so a hostile or merely
/// odd dir= value can neither break the command nor inject one.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string remote_worker_bin(const HostSpec& host) {
  // Suffixed with the pool index: duplicate entries naming the same ssh
  // host each ship their own copy, so concurrent prepare() uploads can
  // never overwrite a binary another entry is executing.
  return host.remote_dir + "/mflushsim." + std::to_string(host.index);
}

/// ssh flags: never prompt (a password prompt would hang a sweep), fail
/// fast on unreachable hosts so their batches re-queue promptly.
std::vector<std::string> ssh_args(const HostSpec& host, std::string command) {
  return {"-o", "BatchMode=yes", "-o", "ConnectTimeout=10", host.name,
          std::move(command)};
}

/// Run `tool args...` with `input` on its stdin and, when `on_result` is
/// set, its stdout split into result frames. Every failure — spawn,
/// signal, deadline, nonzero exit, a stream cut mid-frame, a throw from
/// `on_result` — becomes a TransportError naming the host.
void run_tool(const std::string& tool, const std::vector<std::string>& args,
              std::span<const std::uint8_t> input,
              const Transport::OnResult& on_result, const HostSpec& host,
              const std::string& what, unsigned timeout_s) {
  worker::FrameReader frames;
  proc::OnOutput on_output;
  if (on_result) {
    on_output = [&](std::span<const std::uint8_t> chunk) {
      frames.feed(chunk, on_result);
    };
  }
  int code = 0;
  try {
    code = proc::spawn_and_wait(tool, args, what, timeout_s, input,
                                on_output);
  } catch (const std::exception& e) {
    throw TransportError(host.label() + ": " + e.what());
  }
  if (code != 0) {
    throw TransportError(host.label() + ": " + tool + " exited with code " +
                         std::to_string(code) + " on " + what +
                         (code == 255 && tool == "ssh"
                              ? " (ssh connection failure)"
                              : ""));
  }
  if (frames.pending() != 0) {
    throw TransportError(host.label() + ": result stream truncated (" +
                         std::to_string(frames.pending()) +
                         " bytes of an unfinished frame) on " + what);
  }
}

}  // namespace

HostSpec parse_host(std::string_view entry) {
  const std::string text(entry);
  std::istringstream in(text);
  HostSpec host;
  if (!(in >> host.name)) bad_host(text, "empty entry");
  std::string field;
  while (in >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      bad_host(text, "expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "slots") {
      host.slots = parse_count(text, key, value, /*allow_zero=*/false);
    } else if (key == "fail") {
      host.fail_batches = parse_count(text, key, value, /*allow_zero=*/true);
    } else if (key == "dir") {
      if (value.empty()) bad_host(text, "dir expects a path");
      host.remote_dir = value;
    } else {
      bad_host(text, "unknown key '" + key + "' (slots, fail, dir)");
    }
  }
  return host;
}

std::vector<HostSpec> parse_hosts(std::string_view text) {
  std::vector<HostSpec> hosts;
  std::string entry;
  const auto flush_entry = [&] {
    const std::size_t hash = entry.find('#');
    if (hash != std::string::npos) entry.resize(hash);
    if (entry.find_first_not_of(" \t\r") != std::string::npos)
      hosts.push_back(parse_host(entry));
    entry.clear();
  };
  for (const char c : text) {
    if (c == '\n' || c == ',' || c == ';') {
      // A '#' comment swallows separators to end of line, not past it.
      if (c != '\n' && entry.find('#') != std::string::npos) {
        entry.push_back(c);
        continue;
      }
      flush_entry();
    } else {
      entry.push_back(c);
    }
  }
  flush_entry();
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i].index = i;
  return hosts;
}

std::vector<HostSpec> read_hosts_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open hosts file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<HostSpec> hosts = parse_hosts(text.str());
  if (hosts.empty()) {
    // An explicitly named pool that parses empty (every entry commented
    // out) must not silently degrade to a loopback run on one machine.
    throw std::runtime_error("hosts file names no hosts: " + path);
  }
  return hosts;
}

std::vector<HostSpec> hosts_from_env() {
  const std::string env = env::str_or("MFLUSH_HOSTS");
  if (env.empty()) return {};
  if (std::string_view(env).find('#') != std::string_view::npos) {
    // Comments are line-scoped and an env var is one line: a mid-string
    // '#' would silently comment out every later comma-separated entry,
    // shrinking the pool. Refuse instead.
    throw std::runtime_error(
        "MFLUSH_HOSTS does not support '#' comments (use a hosts file)");
  }
  std::vector<HostSpec> hosts = parse_hosts(env);
  if (hosts.empty() &&
      std::string_view(env).find_first_not_of(" \t\r\n,;") !=
          std::string_view::npos) {
    throw std::runtime_error(
        "MFLUSH_HOSTS is set but names no hosts: '" + std::string(env) +
        "'");
  }
  return hosts;
}

std::vector<std::pair<std::size_t, std::size_t>> batch_ranges(
    std::size_t jobs, std::size_t batch_jobs, std::size_t slots) {
  if (jobs == 0) return {};
  std::size_t per = batch_jobs;
  if (per == 0)
    per = std::max<std::size_t>(
        1, jobs / std::max<std::size_t>(1, 4 * slots));
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve((jobs + per - 1) / per);
  for (std::size_t begin = 0; begin < jobs; begin += per)
    out.emplace_back(begin, std::min(jobs, begin + per));
  return out;
}

// ------------------------------------------------------------- transports

void LocalTransport::prepare(const HostSpec&) {}

void LocalTransport::run_batch(const HostSpec& host,
                               std::span<const std::uint8_t> job_bytes,
                               const OnResult& on_result,
                               const std::string& what) {
  if (dispatched_.fetch_add(1) < host.fail_batches) {
    throw TransportError(host.label() + ": injected transport failure on " +
                         what);
  }
  std::vector<std::string> args = {"--worker", "-"};
  if (!host.warm_store_dir.empty())
    args.insert(args.end(), {"--worker-store", host.warm_store_dir});
  run_tool(bin_, args, job_bytes, on_result, host, what, 0);
}

SshTransport::SshTransport(std::string worker_binary, unsigned timeout_s)
    : bin_(std::move(worker_binary)),
      timeout_s_(timeout_s != 0
                     ? timeout_s
                     : static_cast<unsigned>(env::u64_or(
                           "MFLUSH_SSH_TIMEOUT", 600, 1,
                           std::numeric_limits<unsigned>::max()))) {}

void SshTransport::prepare(const HostSpec& host) {
  // Write-temp-then-rename: a half-uploaded binary is never executable
  // under the final name.
  const std::string bin = shq(remote_worker_bin(host));
  const std::string tmp = shq(remote_worker_bin(host) + ".tmp");
  const std::vector<std::uint8_t> bytes =
      fsio::read_file_bytes(bin_, "worker binary");
  run_tool("ssh",
           ssh_args(host, "mkdir -p " + shq(host.remote_dir) + " && cat > " +
                              tmp + " && chmod +x " + tmp + " && mv " + tmp +
                              " " + bin),
           bytes, {}, host, "shipping the worker binary", timeout_s_);
}

void SshTransport::run_batch(const HostSpec& host,
                             std::span<const std::uint8_t> job_bytes,
                             const OnResult& on_result,
                             const std::string& what) {
  std::string cmd = shq(remote_worker_bin(host)) + " --worker -";
  if (!host.warm_store_dir.empty())
    cmd += " --worker-store " + shq(host.warm_store_dir);
  run_tool("ssh", ssh_args(host, std::move(cmd)), job_bytes, on_result, host,
           what, timeout_s_);
}

}  // namespace remote

// ---------------------------------------------------------- RemoteBackend

namespace {

using remote::HostSpec;
using remote::Transport;

/// Job ids already streamed into one run's sink. A failed attempt may
/// have streamed some of its results before dying — and its retry (or
/// split halves) will produce them again. Results are deterministic, but
/// ResultSink::push throws on a duplicate slot, so every push goes through
/// deliver(): exactly one copy of each job's result enters the sink no
/// matter how many attempts touched it. Job ids are dense per campaign, so
/// the set belongs to the run, never to the pool.
struct Delivered {
  std::mutex m;
  std::unordered_set<std::uint32_t> ids;

  /// True when this call pushed the result.
  bool deliver(ResultSink& sink, const JobSpec& job, RunResult result) {
    {
      const std::lock_guard lk(m);
      if (!ids.insert(job.id).second) return false;
    }
    try {
      sink.push(job, std::move(result));
    } catch (...) {
      // The slot stayed empty (ResultSink fills it only after its
      // callback succeeds): release the claim so a retry can fill it.
      const std::lock_guard lk(m);
      ids.erase(job.id);
      throw;
    }
    return true;
  }
};

/// One run() call: the caller blocks until none of its batches is queued
/// or in flight. All but `delivered` is guarded by the pool mutex.
struct Run {
  Run(RemoteBackend::Tenant& t, const std::vector<JobSpec>& j, ResultSink& s)
      : tenant(t), jobs(j), sink(s) {}

  RemoteBackend::Tenant& tenant;
  const std::vector<JobSpec>& jobs;
  ResultSink& sink;
  bool has_parents = false;
  Delivered delivered;
  std::size_t pending = 0;            ///< batches queued or in flight
  std::size_t next_batch_number = 0;  ///< for batches minted by splitting
  std::exception_ptr error;           ///< first fatal error; ends the run
  std::size_t uploads = 0;            ///< parent snapshots shipped to hosts
  std::size_t upload_bytes = 0;       ///< their total snapshot byte size
};

struct HostState;

/// A [begin, end) slice of its run's job vector: no JobSpec copies wait
/// in the queue, which matters when thousands of sampled-mode jobs each
/// embed a warmed snapshot.
struct Batch {
  Run* run = nullptr;
  std::size_t number = 0;  ///< stable index for event messages
  std::size_t begin = 0;
  std::size_t end = 0;
  unsigned attempts = 0;
  /// Host of the last failed attempt of this batch or of the batch it was
  /// split from; null while the lineage has never failed.
  const HostState* failed_on = nullptr;

  [[nodiscard]] std::string describe() const {
    const std::vector<JobSpec>& all = run->jobs;
    const std::string& tenant = run->tenant.id();
    std::string out = tenant.empty() ? "" : "campaign " + tenant + " ";
    out += "batch " + std::to_string(number);
    if (end - begin == 1)
      return out + " (job " + std::to_string(all[begin].id) + ")";
    return out + " (jobs " + std::to_string(all[begin].id) + "-" +
           std::to_string(all[end - 1].id) + ")";
  }
};

struct HostState {
  HostSpec spec;
  std::unique_ptr<Transport> transport;
  std::mutex prepare_mutex;
  bool prepared = false;
  unsigned failures = 0;  // guarded by the pool mutex
  bool dead = false;      // guarded by the pool mutex

  /// The host-side warm store, handed to workers of runs with warmed
  /// parents. A session store (local host, no coordinator store) is
  /// removed with the pool.
  std::string warm_dir;
  bool session_store = false;
  /// The host's warm store IS the coordinator's (local host + configured
  /// store): nothing ever uploads, forks always ship by hash.
  bool warm_shared = false;
  /// Parents known durably present in the host-side store — only marked
  /// after a batch that carried (or warmed) them *succeeded*, because the
  /// worker installs embedded parents before running anything. Marking at
  /// staging time would race: a second by-hash batch could reach the host
  /// before the first batch's worker installed the bytes.
  std::mutex warm_mutex;
  std::unordered_set<std::uint64_t> warm_present;

  void ensure_prepared() {
    const std::lock_guard lk(prepare_mutex);
    if (prepared) return;
    transport->prepare(spec);
    prepared = true;
  }
};

/// A parent snapshot shipped inline to one host — recorded by
/// run_batch_once, reported by the slot loop once the batch succeeds.
struct UploadRecord {
  std::uint64_t key = 0;
  std::size_t bytes = 0;
};

/// One attempt of one batch: encode the job frames, move them through the
/// transport, and validate and stream each result as it arrives. Throws on
/// any failure; results streamed before the failure stay delivered.
void run_batch_once(HostState& host, const Batch& batch,
                    WarmStore* coordinator_store,
                    std::vector<UploadRecord>& uploads,
                    std::atomic<std::uint64_t>& executed) {
  host.ensure_prepared();
  Run& run = *batch.run;
  const auto first =
      run.jobs.begin() + static_cast<std::ptrdiff_t>(batch.begin);
  const auto last = run.jobs.begin() + static_cast<std::ptrdiff_t>(batch.end);
  const std::string what = batch.describe();
  HostSpec spec = host.spec;
  if (run.has_parents) spec.warm_store_dir = host.warm_dir;

  // The only copy of the slice, alive just while encoding the job frames
  // (the snapshot payloads inside are shared_ptr-shared, not duplicated).
  // With a host-side warm store this copy is also where fork snapshots are
  // stripped: a parent already present on the host (or embedded once
  // earlier in this same batch) travels as its content hash alone.
  std::vector<JobSpec> slice(first, last);
  if (run.has_parents) {
    const std::lock_guard lk(host.warm_mutex);
    std::unordered_set<std::uint64_t> in_batch;
    for (JobSpec& j : slice) {
      if (j.parent_key == 0 || !j.snapshot) continue;
      if (host.warm_shared) {
        // The host reads the coordinator's own store directory: make sure
        // the entry exists (put-if-absent is ~free when it does), then
        // always ship by hash.
        coordinator_store->put(j.parent_key, j.snapshot);
        j.snapshot = nullptr;
      } else if (host.warm_present.contains(j.parent_key) ||
                 !in_batch.insert(j.parent_key).second) {
        j.snapshot = nullptr;
      } else {
        uploads.push_back({j.parent_key, j.snapshot->size()});
      }
    }
  }

  // Each result is checked on arrival — one entry, for a job of this batch
  // not yet answered in this attempt — and streamed into the sink at once.
  std::unordered_map<std::uint32_t, const JobSpec*> unanswered;
  for (auto it = first; it != last; ++it) unanswered.emplace(it->id, &*it);
  host.transport->run_batch(
      spec, worker::encode_jobs(slice),
      [&](std::span<const std::uint8_t> archive) {
        auto entries = worker::decode_results(archive, "result of " + what);
        const auto it = entries.size() == 1
                            ? unanswered.find(entries.front().first)
                            : unanswered.end();
        if (it == unanswered.end()) {
          throw std::runtime_error(
              "worker result for an unexpected or duplicate job in " + what);
        }
        const JobSpec& job = *it->second;
        unanswered.erase(it);
        const bool pushed = run.delivered.deliver(
            run.sink, job, std::move(entries.front().second));
        if (pushed && !job.warm_only) ++executed;
      },
      what);
  if (!unanswered.empty()) {
    throw std::runtime_error(
        "worker answered " +
        std::to_string(slice.size() - unanswered.size()) + " of " +
        std::to_string(slice.size()) + " jobs in " + what);
  }

  // Success: every parent this batch referenced is now durably in the
  // host-side store — the worker installs embedded copies before running
  // and stores warm-job captures as they land — so later batches on this
  // host ship hashes only.
  if (run.has_parents && !host.warm_shared) {
    const std::lock_guard lk(host.warm_mutex);
    for (const JobSpec& j : slice) {
      if (j.parent_key != 0) host.warm_present.insert(j.parent_key);
    }
  }
}

/// Session warm-store directories are named per pool, so two pools in one
/// process never share (and never delete) each other's store.
std::atomic<unsigned> g_pool_serial{0};

}  // namespace

/// The one scheduler: per-tenant batch queues in front of every host slot.
/// Work stealing is the queues themselves — every live slot pulls the next
/// batch, so a retired host's re-queued work drains onto whichever hosts
/// stay healthy.
struct RemoteBackend::Pool {
  explicit Pool(Options o) : opts(std::move(o)) {}

  Options opts;
  std::mutex m;
  std::condition_variable work_cv;  ///< slots: a batch was queued, or stop
  std::condition_variable done_cv;  ///< runs: a batch finished for good
  bool stopping = false;
  std::vector<std::unique_ptr<HostState>> hosts;  ///< empty until started
  std::size_t live_hosts = 0;
  std::size_t total_slots = 0;
  /// Queued batches per tenant; a tenant's entry is erased once empty.
  std::map<Tenant*, std::deque<Batch>> queues;
  std::vector<std::thread> threads;  ///< joined by ~RemoteBackend

  void event(const std::string& line) const {
    if (opts.on_event) opts.on_event(line);
  }

  /// Build the hosts and start one thread per host slot (first run only).
  void start_locked() {
    if (!hosts.empty()) return;
    std::vector<HostSpec> specs = opts.hosts;
    if (specs.empty()) {
      HostSpec local;
      local.name = "local";
      local.slots = ParallelRunner::default_jobs();
      specs.push_back(local);
    }
    const std::string bin = opts.worker_binary.empty()
                                ? default_worker_binary()
                                : opts.worker_binary;
    if (bin.empty()) {
      throw std::runtime_error(
          "RemoteBackend: cannot locate the mflushsim worker binary (set "
          "MFLUSH_WORKER_BIN or Options::worker_binary)");
    }
    const std::filesystem::path scratch =
        opts.scratch_dir.empty() ? std::filesystem::temp_directory_path()
                                 : std::filesystem::path(opts.scratch_dir);
    const std::string session = "mflush-warm-" + std::to_string(::getpid()) +
                                "-" + std::to_string(g_pool_serial++);
    std::vector<std::unique_ptr<HostState>> built;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto host = std::make_unique<HostState>();
      host->spec = specs[i];
      host->spec.index = i;
      // Warm-snapshot shipping: every host gets a warm store so each
      // parent crosses to each host at most once.
      if (!host->spec.is_local()) {
        host->warm_dir =
            host->spec.remote_dir + "/warmstore." + std::to_string(i);
      } else if (opts.warm_store != nullptr) {
        host->warm_dir = opts.warm_store->dir();
        host->warm_shared = true;
      } else {
        host->warm_dir =
            (scratch / (session + "-h" + std::to_string(i))).string();
        host->session_store = true;
      }
      if (opts.transport_factory) {
        host->transport = opts.transport_factory(host->spec);
      } else if (host->spec.is_local()) {
        host->transport = std::make_unique<remote::LocalTransport>(bin);
      } else {
        host->transport =
            std::make_unique<remote::SshTransport>(bin, opts.ssh_timeout);
      }
      built.push_back(std::move(host));
    }
    hosts = std::move(built);
    live_hosts = hosts.size();
    for (auto& host : hosts) {
      total_slots += host->spec.slots;
      for (unsigned s = 0; s < host->spec.slots; ++s)
        threads.emplace_back([this, h = host.get()] { slot_loop(*h); });
    }
  }

  /// A batch never goes back to the host it last failed on while another
  /// host is live, so a second failure always names a second host: a bad
  /// host shows as failures of different batches, a bad job as one batch
  /// failing everywhere.
  [[nodiscard]] bool may_take(const HostState& host, const Batch& b) const {
    return b.failed_on != &host || live_hosts == 1;
  }

  /// Fair share: the first batch `host` may take from the queued tenant
  /// with the fewest jobs served so far.
  [[nodiscard]] std::optional<Batch> pop_locked(const HostState& host) {
    auto best = queues.end();
    std::deque<Batch>::iterator pick;
    for (auto it = queues.begin(); it != queues.end(); ++it) {
      const Tenant& t = *it->first;
      if (best != queues.end()) {
        const Tenant& b = *best->first;
        if (!(t.served_ < b.served_ ||
              (t.served_ == b.served_ && t.id_ < b.id_)))
          continue;
      }
      const auto q =
          std::find_if(it->second.begin(), it->second.end(),
                       [&](const Batch& b) { return may_take(host, b); });
      if (q == it->second.end()) continue;
      best = it;
      pick = q;
    }
    if (best == queues.end()) return std::nullopt;
    Batch batch = *pick;
    best->second.erase(pick);
    best->first->served_ += batch.end - batch.begin;
    if (best->second.empty()) queues.erase(best);
    return batch;
  }

  void enqueue_locked(const Batch& batch) {
    queues[&batch.run->tenant].push_back(batch);
  }

  /// A batch left the pool for good (done, or given up on).
  void settle_locked(Run& run) {
    if (--run.pending == 0) done_cv.notify_all();
  }

  /// End `run` with `error`: its queued batches are dropped; those in
  /// flight settle when they return.
  void fail_locked(Run& run, std::exception_ptr error) {
    if (!run.error) run.error = std::move(error);
    const auto it = queues.find(&run.tenant);
    if (it == queues.end()) return;
    std::deque<Batch>& q = it->second;
    for (auto b = q.begin(); b != q.end();) {
      if (b->run != &run) {
        ++b;
        continue;
      }
      settle_locked(run);
      b = q.erase(b);
    }
    if (q.empty()) queues.erase(it);
  }

  void slot_loop(HostState& host) {
    for (;;) {
      Batch batch;
      {
        std::unique_lock lk(m);
        for (;;) {
          if (stopping || host.dead) return;
          if (auto b = pop_locked(host)) {
            batch = *b;
            break;
          }
          work_cv.wait(lk);
        }
      }
      Run& run = *batch.run;

      ++batch.attempts;
      std::vector<UploadRecord> uploads;
      std::exception_ptr error;
      std::string error_text;
      try {
        run_batch_once(host, batch, opts.warm_store, uploads,
                       run.tenant.executed_);
      } catch (const std::exception& e) {
        error = std::current_exception();
        error_text = e.what();
      }

      const std::lock_guard lk(m);
      if (!error) {
        for (const UploadRecord& u : uploads) {
          ++run.uploads;
          run.upload_bytes += u.bytes;
          event(host.spec.label() + ": uploaded parent " +
                campaign::key_hex(u.key) + " (" + std::to_string(u.bytes) +
                " bytes)");
        }
        host.failures = 0;
        settle_locked(run);
        continue;
      }

      // Only a lineage's first failure is charged to its host: a later
      // one happens on another host (see may_take), which points at the
      // batch, not the host. Retirement counts consecutive failures.
      if (batch.failed_on == nullptr) ++host.failures;
      batch.failed_on = &host;
      event(host.spec.label() + " failed " + batch.describe() +
            " (attempt " + std::to_string(batch.attempts) + "/" +
            std::to_string(opts.max_attempts) + "): " + error_text);
      if (run.error) {
        settle_locked(run);  // the run already ended; no retry
      } else if (batch.attempts >= opts.max_attempts) {
        fail_locked(run, error);
        settle_locked(run);
      } else if (batch.end - batch.begin > 1) {
        // Poison-job containment: a batch failure says *something* in the
        // batch (or its host) is bad, not that every job is. Re-queueing
        // the batch whole would let one crashing job burn the attempt
        // budget of all its batch-mates; splitting halves the blast radius
        // each retry until the poison job sits alone in a batch and fails
        // on its own attempts. The halves are fresh batches with fresh
        // budgets, so a lineage stays bounded: at most 2N-1 batches of
        // max_attempts each. They keep failed_on, so they avoid this host.
        Batch left = batch, right = batch;
        left.attempts = right.attempts = 0;
        left.number = run.next_batch_number++;
        left.end = batch.begin + (batch.end - batch.begin) / 2;
        right.number = run.next_batch_number++;
        right.begin = left.end;
        right.end = batch.end;
        event(batch.describe() + " split into " + left.describe() + " and " +
              right.describe() + " to isolate a possible poison job");
        ++run.pending;  // one batch became two
        enqueue_locked(left);
        enqueue_locked(right);
      } else {
        enqueue_locked(batch);
      }
      // Retire the host after repeated failures so its share of the work
      // steals onto healthy hosts — but never the last one standing, whose
      // batches should run out their attempts instead. A retired host
      // stays out for the pool's lifetime; retiring may leave one live
      // host, which may_take then lets retry its own failed batches.
      if (!host.dead && host.failures >= opts.host_max_failures &&
          live_hosts > 1) {
        host.dead = true;
        --live_hosts;
        event(host.spec.label() + " retired after " +
              std::to_string(host.failures) +
              " failures; re-queued work steals onto the remaining " +
              std::to_string(live_hosts) + " host(s)");
      }
      work_cv.notify_all();
      if (host.dead) return;
    }
  }
};

RemoteBackend::RemoteBackend() : RemoteBackend(Options()) {}

RemoteBackend::RemoteBackend(Options options)
    : pool_(std::make_unique<Pool>(std::move(options))) {}

RemoteBackend::~RemoteBackend() {
  {
    const std::lock_guard lk(pool_->m);
    pool_->stopping = true;
  }
  pool_->work_cv.notify_all();
  for (std::thread& t : pool_->threads) t.join();
  std::error_code ec;
  for (const auto& host : pool_->hosts)
    if (host->session_store) std::filesystem::remove_all(host->warm_dir, ec);
}

void RemoteBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  Tenant tenant(*this, "");
  run_for(tenant, jobs, sink);
}

void RemoteBackend::Tenant::run(const std::vector<JobSpec>& jobs,
                                ResultSink& sink) {
  pool_.run_for(*this, jobs, sink);
}

void RemoteBackend::cancel(Tenant& tenant) {
  Pool& p = *pool_;
  const std::lock_guard lk(p.m);
  tenant.cancelled_ = true;
  const auto it = p.queues.find(&tenant);
  if (it == p.queues.end()) return;
  const auto cancelled =
      std::make_exception_ptr(std::runtime_error("campaign cancelled"));
  for (const Batch& b : it->second) {
    if (!b.run->error) b.run->error = cancelled;
    p.settle_locked(*b.run);
  }
  p.queues.erase(it);
}

void RemoteBackend::run_for(Tenant& tenant, const std::vector<JobSpec>& jobs,
                            ResultSink& sink) {
  if (jobs.empty()) return;
  Pool& p = *pool_;
  if (p.opts.max_attempts == 0)
    throw std::runtime_error("RemoteBackend: max_attempts must be >= 1");

  Run run(tenant, jobs, sink);
  run.has_parents =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const JobSpec& j) { return j.parent_key != 0; });
  std::unique_lock lk(p.m);
  p.start_locked();
  if (tenant.cancelled_) throw std::runtime_error("campaign cancelled");
  if (run.has_parents) {
    for (const auto& host : p.hosts)
      if (host->session_store)
        std::filesystem::create_directories(host->warm_dir);
  }
  const auto ranges =
      remote::batch_ranges(jobs.size(), p.opts.batch_jobs, p.total_slots);
  for (std::size_t b = 0; b < ranges.size(); ++b) {
    Batch batch;
    batch.run = &run;
    batch.number = b;
    batch.begin = ranges[b].first;
    batch.end = ranges[b].second;
    p.enqueue_locked(batch);
  }
  run.pending = ranges.size();
  run.next_batch_number = ranges.size();
  if (!tenant.id().empty()) {
    p.event("campaign " + tenant.id() + ": " + std::to_string(ranges.size()) +
            " batch(es) queued");
  }
  p.work_cv.notify_all();
  p.done_cv.wait(lk, [&] { return run.pending == 0; });
  lk.unlock();

  if (run.uploads > 0) {
    p.event("warm store: " + std::to_string(run.uploads) +
            " parent upload(s), " + std::to_string(run.upload_bytes) +
            " bytes shipped to the pool");
  }
  if (run.error) std::rethrow_exception(run.error);
}

}  // namespace mflush
