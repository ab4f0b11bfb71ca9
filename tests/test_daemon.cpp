#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/archive.h"
#include "common/frame.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/daemon.h"
#include "sim/wire.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------- wire codec

daemon::Message full_message() {
  daemon::Message m;
  m.type = daemon::MsgType::kResult;
  m.campaign = "00deadbeef00cafe";
  m.text = "finished";
  m.job_id = 42;
  m.total = 1000;
  m.done = 999;
  m.executed = 500;
  m.cached = 499;
  m.follow = 1;
  m.blob = {0x01, 0x02, 0x03, 0xff, 0x00, 0x7f};
  return m;
}

void expect_equal(const daemon::Message& a, const daemon::Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.campaign, b.campaign);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cached, b.cached);
  EXPECT_EQ(a.follow, b.follow);
  EXPECT_EQ(a.blob, b.blob);
}

TEST(Wire, RoundTripsEveryFieldAndType) {
  for (std::uint8_t t = 1; t <= 11; ++t) {
    daemon::Message m = full_message();
    m.type = static_cast<daemon::MsgType>(t);
    const std::vector<std::uint8_t> frame = daemon::encode_frame(m);
    const daemon::Extract ex = daemon::try_extract(frame);
    ASSERT_EQ(ex.status, daemon::ExtractStatus::kFrame)
        << "type " << int(t) << ": " << ex.error;
    EXPECT_EQ(ex.consumed, frame.size());
    expect_equal(ex.msg, m);
  }
}

TEST(Wire, RoundTripsEmptyMessage) {
  const daemon::Message m;  // all defaults
  const auto frame = daemon::encode_frame(m);
  const daemon::Extract ex = daemon::try_extract(frame);
  ASSERT_EQ(ex.status, daemon::ExtractStatus::kFrame) << ex.error;
  expect_equal(ex.msg, m);
}

TEST(Wire, DecodesBackToBackFramesIncrementally) {
  daemon::Message a = full_message();
  daemon::Message b = full_message();
  b.type = daemon::MsgType::kDone;
  b.job_id = 7;
  std::vector<std::uint8_t> stream = daemon::encode_frame(a);
  const auto fb = daemon::encode_frame(b);
  stream.insert(stream.end(), fb.begin(), fb.end());

  const daemon::Extract first = daemon::try_extract(stream);
  ASSERT_EQ(first.status, daemon::ExtractStatus::kFrame) << first.error;
  expect_equal(first.msg, a);
  const daemon::Extract second = daemon::try_extract(
      std::span(stream).subspan(first.consumed));
  ASSERT_EQ(second.status, daemon::ExtractStatus::kFrame) << second.error;
  expect_equal(second.msg, b);
  EXPECT_EQ(first.consumed + second.consumed, stream.size());
}

TEST(Wire, EveryTruncationIsNeedMoreNeverAFrame) {
  const auto frame = daemon::encode_frame(full_message());
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const daemon::Extract ex =
        daemon::try_extract(std::span(frame).first(n));
    // A prefix must never decode as a complete frame, and an honest
    // truncation must never kill the connection either — the bytes are
    // simply still in flight.
    ASSERT_NE(ex.status, daemon::ExtractStatus::kFrame) << "prefix " << n;
    ASSERT_EQ(ex.status, daemon::ExtractStatus::kNeedMore) << "prefix " << n;
  }
}

TEST(Wire, EverySingleBitFlipIsRejected) {
  const auto frame = daemon::encode_frame(full_message());
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = frame;
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const daemon::Extract ex = daemon::try_extract(damaged);
      // A flip in the length field (bytes 12-15 of the frame header) may
      // legitimately read as "need more bytes" (the announced frame got
      // longer); everything else must be kBad. What can never happen is a
      // successful decode.
      ASSERT_NE(ex.status, daemon::ExtractStatus::kFrame)
          << "byte " << byte << " bit " << bit;
      const bool in_length = byte >= 12 && byte < frame::kHeaderBytes;
      if (!in_length) {
        ASSERT_EQ(ex.status, daemon::ExtractStatus::kBad)
            << "byte " << byte << " bit " << bit;
        ASSERT_FALSE(ex.error.empty());
      }
    }
  }
}

/// A frame of `kind` (a possibly doctored copy of frame::kWire) holding
/// `msg`, then `extra` stray payload bytes.
std::vector<std::uint8_t> wire_frame(const frame::Kind& kind,
                                     const daemon::Message* msg,
                                     std::size_t extra = 0) {
  ArchiveWriter out;
  const std::size_t start = frame::begin(out, kind);
  if (msg != nullptr) msg->save(out);
  for (std::size_t i = 0; i < extra; ++i) out.put(std::uint8_t{0});
  frame::seal(out, start);
  return out.take();
}

TEST(Wire, OversizedAndZeroLengthPrefixesAreFatal) {
  // 256 MiB announced: must fail fast on the header alone, not wait for
  // bytes that will never arrive.
  ArchiveWriter big;
  big.put(frame::kWire.magic());
  big.put(frame::kWire.version);
  big.put(std::uint32_t{256u << 20});
  EXPECT_EQ(daemon::try_extract(big.bytes()).status,
            daemon::ExtractStatus::kBad);

  // A whole, checksummed frame with no message in it.
  EXPECT_EQ(daemon::try_extract(wire_frame(frame::kWire, nullptr)).status,
            daemon::ExtractStatus::kBad);
}

TEST(Wire, WrongProtocolVersionIsRejectedByName) {
  // A valid checksum over a frame from "the future": the version gate,
  // not the checksum, must reject it — and say so.
  frame::Kind future = frame::kWire;
  future.version = frame::kWire.version + 1;
  const daemon::Message m;
  const daemon::Extract ex = daemon::try_extract(wire_frame(future, &m));
  ASSERT_EQ(ex.status, daemon::ExtractStatus::kBad);
  EXPECT_NE(ex.error.find("version"), std::string::npos) << ex.error;
}

TEST(Wire, WrongMagicAndTrailingBytesAreRejected) {
  const daemon::Message m;
  frame::Kind foreign = frame::kWire;
  foreign.tag = "MFLUSRES";
  EXPECT_EQ(daemon::try_extract(wire_frame(foreign, &m)).status,
            daemon::ExtractStatus::kBad);
  // One stray byte after the message.
  EXPECT_EQ(daemon::try_extract(wire_frame(frame::kWire, &m, 1)).status,
            daemon::ExtractStatus::kBad);
}

TEST(Wire, FrameIoOverASocketPair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const daemon::Message sent = full_message();
  daemon::send_frame(fds[0], sent);
  std::vector<std::uint8_t> buffer;
  const auto got = daemon::read_frame(fds[1], buffer);
  ASSERT_TRUE(got.has_value());
  expect_equal(*got, sent);

  // Clean EOF at a frame boundary is nullopt, not an error...
  ::close(fds[0]);
  EXPECT_FALSE(daemon::read_frame(fds[1], buffer).has_value());
  ::close(fds[1]);

  // ...but EOF mid-frame means the peer died talking: that throws.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto frame = daemon::encode_frame(sent);
  ASSERT_EQ(::write(fds[0], frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(fds[0]);
  std::vector<std::uint8_t> partial;
  EXPECT_THROW((void)daemon::read_frame(fds[1], partial),
               std::runtime_error);
  ::close(fds[1]);
}

// ------------------------------------------------------------------ daemon

ExperimentSpec spec_of(const std::vector<std::string>& workload_names,
                       const std::vector<PolicySpec>& policies) {
  ExperimentSpec spec;
  spec.name = "daemon-test";
  for (const std::string& w : workload_names)
    spec.workloads.push_back(*workloads::by_name(w));
  spec.policies = policies;
  spec.warmup = 200;
  spec.measure = 400;
  return spec;
}

void expect_identical_results(const std::vector<RunResult>& a,
                              const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // Full SimMetrics equality — the daemon inherits the backend
    // bit-identity contract end to end, through the wire.
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

std::vector<RunResult> serial_run(const ExperimentSpec& spec) {
  SerialBackend backend;
  ResultSink sink;
  return run_experiment(spec, backend, sink);
}

/// One in-process daemon over a unix socket in a per-test temp dir, its
/// jobs running in `mflushsim --worker -` subprocesses on a two-slot
/// loopback host.
class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // mkdtemp: unique across test processes, and short, so d.sock stays
    // within sun_path's 108 bytes whatever the test's name.
    std::string dir = ::testing::TempDir() + "mflushd-XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr) << dir;
    dir_ = dir;
    address_ = "unix:" + (dir_ / "d.sock").string();
    if (default_worker_binary().empty()) {
      GTEST_SKIP() << "mflushsim binary not found next to the test binary";
    }
  }
  void TearDown() override {
    if (server_.joinable()) shutdown_daemon();
    fs::remove_all(dir_);
  }

  void start_daemon() {
    std::promise<void> ready;
    auto ready_fired = ready.get_future();
    daemon::ServeOptions o;
    o.address = address_;
    o.data_dir = (dir_ / "data").string();
    o.hosts = {remote::parse_host("local slots=2")};
    o.on_ready = [&ready] { ready.set_value(); };
    server_ = std::thread([o = std::move(o)]() mutable {
      (void)daemon::serve(std::move(o));
    });
    ready_fired.get();
  }

  void shutdown_daemon() {
    daemon::Message req;
    req.type = daemon::MsgType::kShutdown;
    const daemon::Message reply = daemon::request(address_, req);
    EXPECT_EQ(reply.type, daemon::MsgType::kOk);
    server_.join();
  }

  fs::path dir_;
  std::string address_;
  std::thread server_;
};

TEST_F(DaemonTest, TwoConcurrentOverlappingSubmissionsMatchSerial) {
  // flush-s1 appears in both specs: the shared cache dedups it across
  // tenants (asserted below once both settle).
  const ExperimentSpec spec_a =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::flush_spec(1)});
  const ExperimentSpec spec_b =
      spec_of({"2W1"}, {PolicySpec::flush_spec(1), PolicySpec::mflush()});
  start_daemon();

  daemon::SubmitOutcome out_a;
  daemon::SubmitOutcome out_b;
  std::thread ta([&] { out_a = daemon::submit(address_, spec_a, true); });
  std::thread tb([&] { out_b = daemon::submit(address_, spec_b, true); });
  ta.join();
  tb.join();

  EXPECT_EQ(out_a.state, "finished");
  EXPECT_EQ(out_b.state, "finished");
  EXPECT_EQ(out_a.campaign, daemon::campaign_id(spec_a));
  EXPECT_EQ(out_b.campaign, daemon::campaign_id(spec_b));
  expect_identical_results(out_a.results, serial_run(spec_a));
  expect_identical_results(out_b.results, serial_run(spec_b));

  // A third spec made only of jobs the first two already ran must be
  // served entirely from the shared result cache — zero execution.
  const ExperimentSpec overlap =
      spec_of({"2W1"}, {PolicySpec::icount(), PolicySpec::mflush()});
  const daemon::SubmitOutcome out_c = daemon::submit(address_, overlap, true);
  EXPECT_EQ(out_c.state, "finished");
  EXPECT_EQ(out_c.executed, 0u);
  EXPECT_EQ(out_c.cached, out_c.total);
  expect_identical_results(out_c.results, serial_run(overlap));
}

TEST_F(DaemonTest, ResubmitAttachesInsteadOfRerunning) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  start_daemon();
  const daemon::SubmitOutcome first = daemon::submit(address_, spec, true);
  EXPECT_EQ(first.state, "finished");
  EXPECT_EQ(first.executed, first.total);

  // Same spec again: same campaign id, replayed from the in-memory log —
  // results identical, counters are the campaign's own history (it DID
  // execute its jobs, once), and no new simulation happens (asserted by
  // the reply arriving with the same lifetime counters, not higher ones).
  const daemon::SubmitOutcome again = daemon::submit(address_, spec, true);
  EXPECT_EQ(again.campaign, first.campaign);
  EXPECT_EQ(again.state, "finished");
  EXPECT_EQ(again.executed, first.executed);
  expect_identical_results(again.results, first.results);

  // Submit without follow detaches immediately.
  const daemon::SubmitOutcome detached =
      daemon::submit(address_, spec, false);
  EXPECT_EQ(detached.campaign, first.campaign);
  EXPECT_EQ(detached.state, "accepted");
  EXPECT_TRUE(detached.results.empty());
}

TEST_F(DaemonTest, RestartResumesFromJournalsWithZeroLostWork) {
  const ExperimentSpec spec =
      spec_of({"2W1", "2W3"}, {PolicySpec::icount(), PolicySpec::mflush()});
  start_daemon();
  const daemon::SubmitOutcome before = daemon::submit(address_, spec, true);
  EXPECT_EQ(before.state, "finished");
  EXPECT_EQ(before.executed, before.total);
  shutdown_daemon();

  // Same data dir, new daemon: the campaign resumes from its journal and
  // every completed job streams from the cache — nothing re-executes.
  start_daemon();
  const daemon::SubmitOutcome after = daemon::submit(address_, spec, true);
  EXPECT_EQ(after.campaign, before.campaign);
  EXPECT_EQ(after.state, "finished");
  EXPECT_EQ(after.executed, 0u);
  EXPECT_EQ(after.cached, after.total);
  expect_identical_results(after.results, before.results);
}

TEST_F(DaemonTest, StatusListAndErrorsOneShots) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  start_daemon();
  const daemon::SubmitOutcome out = daemon::submit(address_, spec, true);
  ASSERT_EQ(out.state, "finished");

  daemon::Message status;
  status.type = daemon::MsgType::kStatus;
  status.campaign = out.campaign;
  const daemon::Message reply = daemon::request(address_, status);
  ASSERT_EQ(reply.type, daemon::MsgType::kStatusReply);
  EXPECT_EQ(reply.campaign, out.campaign);
  EXPECT_EQ(reply.text, "finished");
  EXPECT_EQ(reply.done, out.total);
  EXPECT_EQ(reply.total, out.total);

  daemon::Message unknown;
  unknown.type = daemon::MsgType::kStatus;
  unknown.campaign = "doesnotexist";
  EXPECT_EQ(daemon::request(address_, unknown).type,
            daemon::MsgType::kError);

  // Cancelling a settled campaign is an error, not a no-op: the caller
  // asked to stop work that no longer exists.
  daemon::Message cancel;
  cancel.type = daemon::MsgType::kCancel;
  cancel.campaign = out.campaign;
  EXPECT_EQ(daemon::request(address_, cancel).type, daemon::MsgType::kError);

  daemon::Message list;
  list.type = daemon::MsgType::kList;
  const daemon::Message listed = daemon::request(address_, list);
  ASSERT_EQ(listed.type, daemon::MsgType::kOk);
  EXPECT_NE(listed.text.find(out.campaign), std::string::npos);
  EXPECT_NE(listed.text.find("finished"), std::string::npos);
}

TEST_F(DaemonTest, RejectsAnInvalidSpecWithoutDying) {
  start_daemon();
  ExperimentSpec empty;  // no workloads/policies: validate() throws
  EXPECT_THROW((void)daemon::submit(address_, empty, true),
               std::runtime_error);
  // The daemon survives the bad submission and still serves.
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  EXPECT_EQ(daemon::submit(address_, spec, true).state, "finished");
}

TEST(DaemonId, CampaignIdIsTheSpecContentHash) {
  const ExperimentSpec spec = spec_of({"2W1"}, {PolicySpec::icount()});
  EXPECT_EQ(daemon::campaign_id(spec),
            campaign::key_hex(fnv1a(spec.to_bytes())));
  ExperimentSpec renamed = spec;
  renamed.name = "other-name";
  // The name is part of the spec bytes, so it is part of the identity.
  EXPECT_NE(daemon::campaign_id(spec), daemon::campaign_id(renamed));
}

}  // namespace
}  // namespace mflush
