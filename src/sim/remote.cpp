#include "sim/remote.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
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

/// A [begin, end) slice of the run's job vector: no JobSpec copies wait
/// in the queue, which matters when thousands of sampled-mode jobs each
/// embed a warmed snapshot.
struct Batch {
  std::size_t number = 0;  ///< stable index for event messages
  std::size_t begin = 0;
  std::size_t end = 0;
  unsigned attempts = 0;

  [[nodiscard]] std::string describe(
      const std::vector<JobSpec>& all_jobs) const {
    if (end - begin == 1) {
      return "batch " + std::to_string(number) + " (job " +
             std::to_string(all_jobs[begin].id) + ")";
    }
    return "batch " + std::to_string(number) + " (jobs " +
           std::to_string(all_jobs[begin].id) + "-" +
           std::to_string(all_jobs[end - 1].id) + ")";
  }
};

struct HostState {
  HostSpec spec;
  std::unique_ptr<Transport> transport;
  std::mutex prepare_mutex;
  bool prepared = false;
  unsigned failures = 0;  // guarded by the scheduler mutex
  bool dead = false;      // guarded by the scheduler mutex

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

/// Shared scheduler state: a queue of batches plus completion/abort
/// bookkeeping. Work-stealing is the queue itself — every live host slot
/// pulls the next batch, so a retired host's re-queued work drains onto
/// whichever hosts stay healthy.
struct Scheduler {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Batch> queue;
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t next_batch_number = 0;  ///< for batches minted by splitting
  std::size_t live_hosts = 0;
  std::size_t uploads = 0;       ///< parent snapshots shipped to hosts
  std::size_t upload_bytes = 0;  ///< their total snapshot byte size
  bool aborted = false;
  std::exception_ptr first_error;
  std::function<void(const std::string&)> on_event;

  void event(const std::string& line) {
    if (on_event) on_event(line);
  }
  [[nodiscard]] bool finished() const {
    return aborted || done == total;
  }
};

/// A parent snapshot shipped inline to one host — recorded by
/// run_batch_once, reported by the slot loop once the batch succeeds.
struct UploadRecord {
  std::uint64_t key = 0;
  std::size_t bytes = 0;
};

/// Job ids already streamed into the sink this run. A failed attempt may
/// have streamed some of its results before dying — and its retry (or
/// split halves) will produce them again. Results are deterministic, but
/// ResultSink::push throws on a duplicate slot, so every push goes through
/// deliver(): exactly one copy of each job's result enters the sink no
/// matter how many attempts touched it.
struct Delivered {
  std::mutex m;
  std::unordered_set<std::uint32_t> ids;

  void deliver(ResultSink& sink, const JobSpec& job, RunResult result) {
    {
      const std::lock_guard lk(m);
      if (!ids.insert(job.id).second) return;
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
  }
};

/// One attempt of one batch: encode the job archive, move it through the
/// transport, and validate and stream each result as it arrives. Throws on
/// any failure; results streamed before the failure stay delivered.
void run_batch_once(HostState& host, const Batch& batch,
                    const std::vector<JobSpec>& all_jobs,
                    WarmStore* coordinator_store,
                    std::vector<UploadRecord>& uploads, Delivered& delivered,
                    ResultSink& sink) {
  host.ensure_prepared();
  const auto first =
      all_jobs.begin() + static_cast<std::ptrdiff_t>(batch.begin);
  const auto last =
      all_jobs.begin() + static_cast<std::ptrdiff_t>(batch.end);
  const std::string what = batch.describe(all_jobs);

  // The only copy of the slice, alive just while encoding the job archive
  // (the snapshot payloads inside are shared_ptr-shared, not duplicated).
  // With a host-side warm store this copy is also where fork snapshots are
  // stripped: a parent already present on the host (or embedded once
  // earlier in this same batch) travels as its content hash alone.
  std::vector<JobSpec> slice(first, last);
  if (!host.spec.warm_store_dir.empty()) {
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
      host.spec, worker::encode_jobs(slice),
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
        delivered.deliver(sink, job, std::move(entries.front().second));
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
  if (!host.spec.warm_store_dir.empty() && !host.warm_shared) {
    const std::lock_guard lk(host.warm_mutex);
    for (const JobSpec& j : slice) {
      if (j.parent_key != 0) host.warm_present.insert(j.parent_key);
    }
  }
}

void host_slot_loop(Scheduler& sched, HostState& host,
                    const std::vector<JobSpec>& all_jobs,
                    unsigned max_attempts, unsigned host_max_failures,
                    WarmStore* coordinator_store, Delivered& delivered,
                    ResultSink& sink) {
  for (;;) {
    Batch batch;
    {
      std::unique_lock lk(sched.m);
      sched.cv.wait(lk, [&] {
        return sched.finished() || host.dead || !sched.queue.empty();
      });
      if (sched.finished() || host.dead) return;
      batch = std::move(sched.queue.front());
      sched.queue.pop_front();
    }

    ++batch.attempts;
    std::vector<UploadRecord> uploads;
    std::exception_ptr error;
    std::string error_text;
    try {
      run_batch_once(host, batch, all_jobs, coordinator_store, uploads,
                     delivered, sink);
    } catch (const std::exception& e) {
      error = std::current_exception();
      error_text = e.what();
    }

    std::unique_lock lk(sched.m);
    if (!error) {
      for (const UploadRecord& u : uploads) {
        ++sched.uploads;
        sched.upload_bytes += u.bytes;
        sched.event(host.spec.label() + ": uploaded parent " +
                    campaign::key_hex(u.key) + " (" +
                    std::to_string(u.bytes) + " bytes)");
      }
      ++sched.done;
      if (sched.finished()) sched.cv.notify_all();
      continue;
    }

    ++host.failures;
    sched.event(host.spec.label() + " failed " + batch.describe(all_jobs) +
                " (attempt " + std::to_string(batch.attempts) + "/" +
                std::to_string(max_attempts) + "): " + error_text);
    if (batch.attempts >= max_attempts) {
      if (!sched.first_error) sched.first_error = error;
      sched.aborted = true;
      sched.cv.notify_all();
      return;
    }
    if (batch.end - batch.begin > 1) {
      // Poison-job containment: a batch failure says *something* in the
      // batch (or its host) is bad, not that every job is. Re-queueing the
      // batch whole would let one crashing job burn the attempt budget of
      // all its batch-mates; splitting halves the blast radius each retry
      // until the poison job sits alone in a batch and fails on its own
      // attempts. The halves are fresh batches with fresh budgets, so a
      // lineage stays bounded: at most 2N-1 batches of max_attempts each.
      Batch left, right;
      left.number = sched.next_batch_number++;
      left.begin = batch.begin;
      left.end = batch.begin + (batch.end - batch.begin) / 2;
      right.number = sched.next_batch_number++;
      right.begin = left.end;
      right.end = batch.end;
      sched.event(batch.describe(all_jobs) + " split into " +
                  left.describe(all_jobs) + " and " +
                  right.describe(all_jobs) +
                  " to isolate a possible poison job");
      ++sched.total;  // one batch became two
      sched.queue.push_back(left);
      sched.queue.push_back(right);
    } else {
      sched.queue.push_back(std::move(batch));
    }
    // Retire the host after repeated failures so its share of the sweep
    // steals onto healthy hosts — but never the last one standing, whose
    // batches should run out their attempts instead.
    if (!host.dead && host.failures >= host_max_failures &&
        sched.live_hosts > 1) {
      host.dead = true;
      --sched.live_hosts;
      sched.event(host.spec.label() + " retired after " +
                  std::to_string(host.failures) +
                  " failures; re-queued work steals onto the remaining " +
                  std::to_string(sched.live_hosts) + " host(s)");
    }
    sched.cv.notify_all();
    if (host.dead) return;
  }
}

}  // namespace

RemoteBackend::RemoteBackend() : RemoteBackend(Options()) {}

RemoteBackend::RemoteBackend(Options options) : opts_(std::move(options)) {}

void RemoteBackend::run(const std::vector<JobSpec>& jobs, ResultSink& sink) {
  if (jobs.empty()) return;
  if (opts_.max_attempts == 0)
    throw std::runtime_error("RemoteBackend: max_attempts must be >= 1");

  std::vector<HostSpec> hosts = opts_.hosts;
  if (hosts.empty()) {
    HostSpec local;
    local.name = "local";
    local.slots = ParallelRunner::default_jobs();
    hosts.push_back(local);
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i].index = i;

  const std::string bin = opts_.worker_binary.empty()
                              ? default_worker_binary()
                              : opts_.worker_binary;
  if (bin.empty()) {
    throw std::runtime_error(
        "RemoteBackend: cannot locate the mflushsim worker binary (set "
        "MFLUSH_WORKER_BIN or Options::worker_binary)");
  }
  const std::filesystem::path scratch =
      opts_.scratch_dir.empty() ? std::filesystem::temp_directory_path()
                                : std::filesystem::path(opts_.scratch_dir);

  // Warm-snapshot shipping: when the sweep references warmed parents,
  // every host gets a warm store so each parent crosses to each host at
  // most once. Session-scoped local stores (no coordinator store) are
  // swept on exit.
  std::vector<std::filesystem::path> session_stores;
  struct StoreSweep {
    std::vector<std::filesystem::path>& dirs;
    ~StoreSweep() {
      std::error_code ec;
      for (const auto& d : dirs) std::filesystem::remove_all(d, ec);
    }
  } sweep{session_stores};
  const bool has_parents =
      std::any_of(jobs.begin(), jobs.end(),
                  [](const JobSpec& j) { return j.parent_key != 0; });
  if (has_parents) {
    for (HostSpec& h : hosts) {
      if (!h.is_local()) {
        h.warm_store_dir =
            h.remote_dir + "/warmstore." + std::to_string(h.index);
      } else if (opts_.warm_store != nullptr) {
        h.warm_store_dir = opts_.warm_store->dir();
      } else {
        const auto dir =
            scratch / ("mflush-warm-" + std::to_string(::getpid()) + "-h" +
                       std::to_string(h.index));
        std::filesystem::create_directories(dir);
        session_stores.push_back(dir);
        h.warm_store_dir = dir.string();
      }
    }
  }

  std::size_t total_slots = 0;
  for (const HostSpec& h : hosts) total_slots += h.slots;
  const auto ranges =
      remote::batch_ranges(jobs.size(), opts_.batch_jobs, total_slots);

  Scheduler sched;
  Delivered delivered;
  sched.total = ranges.size();
  sched.next_batch_number = ranges.size();
  sched.live_hosts = hosts.size();
  sched.on_event = opts_.on_event;
  for (std::size_t b = 0; b < ranges.size(); ++b) {
    Batch batch;
    batch.number = b;
    batch.begin = ranges[b].first;
    batch.end = ranges[b].second;
    sched.queue.push_back(batch);
  }

  std::vector<std::unique_ptr<HostState>> states;
  states.reserve(hosts.size());
  for (const HostSpec& h : hosts) {
    auto state = std::make_unique<HostState>();
    state->spec = h;
    state->warm_shared = h.is_local() && opts_.warm_store != nullptr;
    if (opts_.transport_factory) {
      state->transport = opts_.transport_factory(h);
    } else if (h.is_local()) {
      state->transport = std::make_unique<remote::LocalTransport>(bin);
    } else {
      state->transport =
          std::make_unique<remote::SshTransport>(bin, opts_.ssh_timeout);
    }
    states.push_back(std::move(state));
  }

  std::vector<std::thread> slots;
  slots.reserve(std::min<std::size_t>(total_slots, ranges.size()));
  for (auto& state : states) {
    HostState* const host = state.get();
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(host->spec.slots, ranges.size()));
    for (unsigned s = 0; s < n; ++s) {
      slots.emplace_back([&, host] {
        host_slot_loop(sched, *host, jobs, opts_.max_attempts,
                       opts_.host_max_failures, opts_.warm_store, delivered,
                       sink);
      });
    }
  }
  for (std::thread& t : slots) t.join();

  if (sched.uploads > 0) {
    sched.event("warm store: " + std::to_string(sched.uploads) +
                " parent upload(s), " + std::to_string(sched.upload_bytes) +
                " bytes shipped to the pool");
  }
  if (sched.first_error) std::rethrow_exception(sched.first_error);
  if (sched.done != sched.total) {
    throw std::runtime_error(
        "RemoteBackend: sweep ended with unfinished batches");
  }
}

}  // namespace mflush
