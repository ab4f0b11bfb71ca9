#include "sim/warmstore.h"

#include <deque>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "common/archive.h"
#include "common/frame.h"
#include "common/fsio.h"
#include "sim/campaign.h"
#include "sim/snapshot.h"

namespace mflush {
namespace {

constexpr std::uint64_t kKeyMagic = 0x4d464c5553574b59ull;  // "MFLUSWKY"

using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

struct Registry {
  std::unordered_map<std::uint64_t, Bytes> entries;
  std::deque<std::uint64_t> order;  ///< publish order, oldest first
  std::size_t bytes = 0;            ///< total size of `entries`' vectors
};

Registry& registry() {
  // Leaked intentionally: snapshot bytes may be recalled from worker code
  // running during static destruction of other translation units.
  static auto* r = new Registry();
  return *r;
}

}  // namespace

namespace warmstore {

std::uint64_t warm_key(const JobSpec& job) {
  JobSpec parent;
  parent.workload = job.workload;
  parent.profiles = job.profiles;
  parent.policy = job.policy;
  parent.seed = job.seed;
  parent.warmup = job.warmup;
  parent.warm_only = true;
  ArchiveWriter ar;
  ar.put(kKeyMagic);
  ar.put(frame::kWarmEntry.version);
  ar.put(frame::kSnapshot.version);
  parent.save_content(ar);
  return fnv1a(ar.bytes());
}

JobSpec warm_job_of(const JobSpec& fork) {
  JobSpec w;
  w.workload = fork.workload;
  w.profiles = fork.profiles;
  w.policy = fork.policy;
  w.seed = fork.seed;
  w.warmup = fork.warmup;
  w.warm_only = true;
  w.parent_key = warm_key(fork);
  return w;
}

void publish(std::uint64_t key, Bytes bytes) {
  if (key == 0 || !bytes) return;
  const std::lock_guard lk(registry_mutex());
  Registry& r = registry();
  const std::size_t size = bytes->size();
  if (!r.entries.emplace(key, std::move(bytes)).second) return;
  r.order.push_back(key);
  r.bytes += size;
  while (r.bytes > kRegistryBytes && r.order.size() > 1) {
    const auto oldest = r.entries.find(r.order.front());
    r.bytes -= oldest->second->size();
    r.entries.erase(oldest);
    r.order.pop_front();
  }
}

Bytes recall(std::uint64_t key) {
  const std::lock_guard lk(registry_mutex());
  const auto it = registry().entries.find(key);
  return it == registry().entries.end() ? nullptr : it->second;
}

}  // namespace warmstore

// ---------------------------------------------------------------- WarmStore

WarmStore::WarmStore(std::string dir, Options options)
    : dir_(std::move(dir)), opts_(std::move(options)) {
  std::filesystem::create_directories(dir_);
}

void WarmStore::event(const std::string& line) const {
  if (!opts_.on_event) return;
  if (opts_.label.empty()) {
    opts_.on_event(line);
  } else {
    opts_.on_event("[" + opts_.label + "] " + line);
  }
}

std::string WarmStore::path_of(std::uint64_t key) const {
  return (std::filesystem::path(dir_) / (campaign::key_hex(key) + ".mfws"))
      .string();
}

std::shared_ptr<const std::vector<std::uint8_t>> WarmStore::lookup(
    std::uint64_t key) {
  const std::lock_guard lk(m_);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.hits;
    return it->second;
  }
  const std::string path = path_of(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    ++stats_.misses;
    return nullptr;
  }
  try {
    const std::vector<std::uint8_t> file =
        fsio::read_file_bytes(path, "warm-store entry");
    ArchiveReader ar = frame::open(file, frame::kWarmEntry);
    if (ar.get<std::uint64_t>() != key)
      throw std::runtime_error("key echo mismatch");
    std::vector<std::uint8_t> snap;
    ar.get_vec(snap);
    frame::finish(ar, frame::kWarmEntry);
    auto bytes =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(snap));
    memo_.emplace(key, bytes);
    ++stats_.hits;
    return bytes;
  } catch (const std::exception& e) {
    // A damaged entry is a miss, not an error: delete it so the parent is
    // transparently re-warmed and the slot rewritten — the PR 6
    // corrupt-cache policy at warm-store granularity.
    std::filesystem::remove(path, ec);
    ++stats_.corrupt_discarded;
    ++stats_.misses;
    event("entry " + campaign::key_hex(key) + " corrupt (" + e.what() +
          ") -- discarded for re-warm");
    return nullptr;
  }
}

void WarmStore::put(std::uint64_t key,
                    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  if (key == 0 || !bytes) return;
  const std::lock_guard lk(m_);
  if (memo_.contains(key)) return;
  const std::string path = path_of(key);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    memo_.emplace(key, std::move(bytes));
    return;
  }
  ArchiveWriter ar;
  const std::size_t start = frame::begin(ar, frame::kWarmEntry);
  ar.put(key);
  ar.put_vec(*bytes);
  frame::seal(ar, start);
  fsio::write_file_atomic(path, ar.bytes(), /*durable=*/true);
  ++stats_.stored;
  stats_.bytes_written += ar.bytes().size();
  memo_.emplace(key, std::move(bytes));
}

bool WarmStore::contains(std::uint64_t key) const {
  const std::lock_guard lk(m_);
  if (memo_.contains(key)) return true;
  std::error_code ec;
  return std::filesystem::exists(path_of(key), ec);
}

WarmStore::Stats WarmStore::stats() const {
  const std::lock_guard lk(m_);
  return stats_;
}

}  // namespace mflush
