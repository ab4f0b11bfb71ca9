#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/archive.h"
#include "common/frame.h"
#include "common/fsio.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/wire.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

const std::vector<frame::Kind>& all_kinds() {
  static const std::vector<frame::Kind> kinds = {
      frame::kSnapshot, frame::kWarmEntry, frame::kSpec,   frame::kJob,
      frame::kResult,   frame::kWire,      frame::kJournal};
  return kinds;
}

// ------------------------------------------------------------- the codec

TEST(Frame, MagicsReadAsTheirAsciiNamesInAHexDump) {
  std::set<std::uint64_t> seen;
  for (const frame::Kind& kind : all_kinds()) {
    ArchiveWriter ar;
    frame::seal(ar, frame::begin(ar, kind));
    const std::vector<std::uint8_t>& bytes = ar.bytes();
    ASSERT_EQ(bytes.size(), frame::kOverheadBytes);
    const std::string head(bytes.begin(), bytes.begin() + 8);
    EXPECT_EQ(head, kind.tag);
    EXPECT_EQ(head.substr(0, 5), "MFLUS") << head;
    EXPECT_TRUE(seen.insert(kind.magic()).second) << "duplicate magic " << head;
  }
}

TEST(Frame, SealBackpatchesInPlaceAndOpenViewsThePayload) {
  ArchiveWriter ar;
  ar.put(std::uint8_t{0xee});  // a frame need not start the buffer
  const std::size_t start = frame::begin(ar, frame::kSpec);
  ar.put(std::uint64_t{42});
  ar.put_string("abc");
  frame::seal(ar, start);
  const std::span<const std::uint8_t> f =
      std::span(ar.bytes()).subspan(start);
  constexpr std::size_t kPayload = 8 + 8 + 3;
  ASSERT_EQ(f.size(), frame::kOverheadBytes + kPayload);

  ArchiveReader r = frame::open(f, frame::kSpec);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_NO_THROW(frame::finish(r, frame::kSpec));
  EXPECT_THROW((void)frame::open(f, frame::kJob), std::runtime_error);

  const frame::Next n = frame::next(f, frame::kSpec, kPayload);
  ASSERT_EQ(n.status, frame::Status::kFrame) << n.error;
  EXPECT_EQ(n.size, f.size());
  EXPECT_EQ(n.payload.data(), f.data() + frame::kHeaderBytes);
  EXPECT_EQ(n.payload.size(), kPayload);
  EXPECT_EQ(frame::next(f, frame::kSpec, kPayload - 1).status,
            frame::Status::kBad);
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    EXPECT_EQ(frame::next(f.first(cut), frame::kSpec, kPayload).status,
              frame::Status::kNeedMore)
        << "prefix " << cut;
  }
  EXPECT_TRUE(frame::has_magic(f, frame::kSpec));
  EXPECT_FALSE(frame::has_magic(f.first(7), frame::kSpec));
}

// ------------------------------------- corruption fuzz over every kind

/// One container kind: a valid sample, and its real decoder reduced to
/// "was this rejected cleanly?". A decoder that throws anything but
/// std::runtime_error lets it escape and fails the test.
struct ContainerCase {
  std::string name;
  std::function<std::vector<std::uint8_t>()> sample;
  std::function<bool(std::span<const std::uint8_t>)> rejects;
  /// Offsets probed between the first and last 64 bytes; 1 = every one.
  std::size_t stride = 1;
};

std::ostream& operator<<(std::ostream& os, const ContainerCase& c) {
  return os << c.name;
}

template <typename Decode>
std::function<bool(std::span<const std::uint8_t>)> throws_runtime_error(
    Decode decode) {
  return [decode](std::span<const std::uint8_t> bytes) {
    try {
      decode(bytes);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
}

JobSpec small_job() {
  JobSpec job;
  job.id = 3;
  job.workload = *workloads::by_name("2W1");
  job.policy = PolicySpec::mflush();
  job.warmup = 10;
  job.measure = 20;
  return job;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "frame-fuzz";
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 10;
  spec.measure = 20;
  return spec;
}

fs::path fuzz_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("frame-fuzz-" + name + "-" +
                        std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir;
}

std::vector<ContainerCase> container_cases() {
  std::vector<ContainerCase> cases;
  cases.push_back(
      {"spec", [] { return small_spec().to_bytes(); },
       throws_runtime_error([](std::span<const std::uint8_t> b) {
         (void)ExperimentSpec::from_bytes(b);
       })});
  cases.push_back(
      {"job", [] { return worker::encode_jobs({small_job()}); },
       throws_runtime_error([](std::span<const std::uint8_t> b) {
         (void)worker::decode_jobs(b, "fuzz");
       })});
  cases.push_back(
      {"result",
       [] {
         RunResult r;
         r.workload = "2W1";
         r.policy = "MFLUSH";
         r.metrics.cycles = 99;
         r.metrics.per_thread_ipc = {0.5, 0.25};
         return worker::encode_results({{7u, r}});
       },
       throws_runtime_error([](std::span<const std::uint8_t> b) {
         (void)worker::decode_results(b, "fuzz");
       })});
  // A real chip snapshot is megabytes and every probe re-hashes all of it,
  // so its payload middle is probed at a prime stride; both ends (the
  // header, the first payload bytes, the checksum) are probed everywhere.
  cases.push_back(
      {"snapshot",
       [] {
         CmpSimulator sim(*workloads::by_name("2W1"), PolicySpec::icount(),
                          1);
         sim.run(200);
         return snapshot::capture(sim);
       },
       throws_runtime_error([](std::span<const std::uint8_t> b) {
         (void)snapshot::make(b);
       }),
       4099});
  // A warm entry never throws: damage is a discarded miss.
  cases.push_back(
      {"warm_entry",
       [] {
         const fs::path dir = fuzz_dir("warm-sample");
         WarmStore store(dir.string());
         store.put(0x1234, std::make_shared<const std::vector<std::uint8_t>>(
                               std::vector<std::uint8_t>(40, 0x5a)));
         auto bytes = fsio::read_file_bytes(store.path_of(0x1234), "entry");
         fs::remove_all(dir);
         return bytes;
       },
       [](std::span<const std::uint8_t> b) {
         const fs::path dir = fuzz_dir("warm");
         WarmStore store(dir.string());
         std::ofstream(store.path_of(0x1234), std::ios::binary)
             .write(reinterpret_cast<const char*>(b.data()),
                    static_cast<std::streamsize>(b.size()));
         const bool miss = store.lookup(0x1234) == nullptr;
         const bool discarded = store.stats().corrupt_discarded == 1;
         fs::remove_all(dir);
         EXPECT_EQ(miss, discarded);
         return miss;
       }});
  // The wire is read off a socket: a cut frame is "closed mid-frame".
  cases.push_back(
      {"wire",
       [] {
         daemon::Message m;
         m.type = daemon::MsgType::kResult;
         m.campaign = "00deadbeef00cafe";
         m.job_id = 5;
         m.blob = {1, 2, 3};
         return daemon::encode_frame(m);
       },
       throws_runtime_error([](std::span<const std::uint8_t> b) {
         int fds[2] = {-1, -1};
         if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
           throw std::logic_error("socketpair failed");
         const bool wrote = ::write(fds[0], b.data(), b.size()) ==
                            static_cast<ssize_t>(b.size());
         ::close(fds[0]);
         std::vector<std::uint8_t> buffer;
         struct Closer {
           int fd;
           ~Closer() { ::close(fd); }
         } closer{fds[1]};
         if (!wrote) throw std::logic_error("socketpair write failed");
         if (!daemon::read_frame(fds[1], buffer).has_value())
           throw std::logic_error("a non-empty stream read as clean EOF");
       })});
  // A journal never throws for a damaged record: replay keeps the longest
  // valid prefix (the torn-tail rule). Only a bad header frame throws.
  cases.push_back(
      {"journal",
       [] {
         const fs::path dir = fuzz_dir("journal-sample");
         std::vector<JobSpec> jobs = small_spec().expand();
         jobs.resize(2);
         {
           CampaignStore store =
               CampaignStore::create(dir.string(), small_spec());
           store.record_dispatched(jobs);
         }
         auto bytes = fsio::read_file_bytes(
             (dir / "journal.wal").string(), "journal");
         fs::remove_all(dir);
         return bytes;
       },
       [](std::span<const std::uint8_t> b) {
         try {
           const campaign::Frontier f = campaign::replay(b);
           return f.torn || f.records < 2;
         } catch (const std::runtime_error&) {
           return true;
         }
       }});
  return cases;
}

class FrameCorruption : public ::testing::TestWithParam<ContainerCase> {};

/// Rewrite a u32/u64 field of the first frame's header, then re-seal its
/// checksum so that only the doctored field is wrong.
template <typename T>
std::vector<std::uint8_t> doctored(std::vector<std::uint8_t> bytes,
                                   std::size_t offset, T value,
                                   bool reseal = true) {
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + 12, sizeof(len));
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  if (reseal) {
    const std::size_t body = frame::kHeaderBytes + len;
    const std::uint64_t sum = fnv1a(std::span(bytes).first(body));
    std::memcpy(bytes.data() + body, &sum, sizeof(sum));
  }
  return bytes;
}

TEST_P(FrameCorruption, EveryDamageIsRejectedCleanly) {
  const ContainerCase& c = GetParam();
  std::vector<std::uint8_t> bytes = c.sample();
  ASSERT_GT(bytes.size(), frame::kOverheadBytes);
  ASSERT_FALSE(c.rejects(bytes)) << "the intact sample must decode";

  const std::size_t n = bytes.size();
  for (std::size_t i = 0; i < n;
       i += (i < 64 || i + 64 >= n) ? 1 : c.stride) {
    SCOPED_TRACE("offset " + std::to_string(i) + " of " + std::to_string(n));
    if (i > 0) EXPECT_TRUE(c.rejects(std::span(bytes).first(i))) << "cut";
    bytes[i] ^= 0xff;
    EXPECT_TRUE(c.rejects(bytes)) << "flipped";
    bytes[i] ^= 0xff;
  }

  std::uint64_t other_magic = 0;
  for (const frame::Kind& kind : all_kinds()) {
    if (!frame::has_magic(bytes, kind)) other_magic = kind.magic();
  }
  EXPECT_TRUE(c.rejects(doctored(bytes, 0, other_magic))) << "wrong magic";
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_TRUE(c.rejects(doctored(bytes, 8, version + 1))) << "wrong version";
  EXPECT_TRUE(c.rejects(doctored(bytes, 12, std::uint32_t{0xffffffff},
                                 /*reseal=*/false)))
      << "length over the bound";
}

INSTANTIATE_TEST_SUITE_P(
    EveryKind, FrameCorruption, ::testing::ValuesIn(container_cases()),
    [](const ::testing::TestParamInfo<ContainerCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mflush
