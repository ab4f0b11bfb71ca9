#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/archive.h"

/// The one container layout of every stored file and byte stream:
///
///   u64 magic | u32 version | u32 payload_len | payload | u64 checksum
///
/// little-endian; the checksum is FNV-1a over every byte before it. The
/// payload is a flat archive (common/archive.h) laid out by the kind's
/// writer and reader. Each kind is one row of the table below: the domain
/// owning its layout, its magic (ASCII, so it reads in a hex dump) and its
/// version. No migrations: any change to a kind's payload, its key
/// derivation or this header bumps the version, and readers reject every
/// other version. tools/lint/check_format_version.py reads its domains
/// from this table. Only this codec checks a magic, a version, a length
/// or a checksum:
///   - begin/seal write a frame in place (seal backpatches the length and
///     appends the checksum, so the payload is never copied);
///   - open checks one whole frame and returns a view of its payload;
///   - next, the incremental stream reader, answers need-more, frame or
///     bad for the bytes received so far, given a bound on the payload
///     length; a bad header is bad as soon as its 16 bytes are in.
namespace mflush::frame {

struct Kind {
  const char* domain;  ///< format-version domain owning the payload layout
  const char* tag;     ///< the magic as eight ASCII characters
  std::uint32_t version;

  /// `tag`'s bytes, first character lowest.
  [[nodiscard]] constexpr std::uint64_t magic() const noexcept {
    std::uint64_t m = 0;
    for (int i = 7; i >= 0; --i)
      m = m << 8 | static_cast<std::uint8_t>(tag[i]);
    return m;
  }
};

/// Full simulator state (sim/snapshot.h). v2 per-core clocks, v3
/// canonical bytes, v4 DRAM state, v5 slot-window issue queues, v6 frame.
inline constexpr Kind kSnapshot{"snapshot", "MFLUSSNP", 6};
/// Warm-store entry: key echo + snapshot (sim/warmstore.h). v2 frame; the
/// snapshot version left the entry, the key already folds it in.
inline constexpr Kind kWarmEntry{"warmstore", "MFLUSWRM", 2};
/// Binary ExperimentSpec (sim/experiment_spec.h). v3 frame.
inline constexpr Kind kSpec{"spec", "MFLUSPEC", 3};
/// One JobSpec on a worker's stdin (sim/backend.h). v2 warm jobs and
/// by-reference forks, v4 stdin/stdout streams, v5 frames.
inline constexpr Kind kJob{"worker", "MFLUSJOB", 5};
/// Results: worker stdout, campaign cache entries, RESULT blobs.
inline constexpr Kind kResult{"worker", "MFLUSRES", 5};
/// One mflushd wire Message (sim/wire.h). v2 frame.
inline constexpr Kind kWire{"daemon", "MFLUSNET", 2};
/// Campaign journal: an empty header frame, then one frame per record;
/// also versions job_key (sim/campaign.h). v2 fork keys by parent hash,
/// v4 frames.
inline constexpr Kind kJournal{"campaign", "MFLUSWAL", 4};

inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kOverheadBytes = kHeaderBytes + 8;

/// Start a frame at the end of `ar`; returns its offset for seal.
std::size_t begin(ArchiveWriter& ar, const Kind& kind);
/// Backpatch the length of the frame begun at `start`, append its checksum.
void seal(ArchiveWriter& ar, std::size_t start);

enum class Status : std::uint8_t { kNeedMore, kFrame, kBad };

struct Next {
  Status status = Status::kNeedMore;
  std::size_t size = 0;                   ///< kFrame: bytes of the frame
  std::span<const std::uint8_t> payload;  ///< kFrame: view into the buffer
  std::string error;                      ///< kBad: what is wrong
};

/// The frame at the start of `buffer`, a stream of `kind` frames whose
/// payloads are at most `max_payload` bytes. Never throws. A reader that
/// hands each frame to open() anyway passes `check_sum = false` so the
/// payload is hashed once.
[[nodiscard]] Next next(std::span<const std::uint8_t> buffer, const Kind& kind,
                        std::size_t max_payload, bool check_sum = true);

/// `bytes` must be exactly one valid frame; throws std::runtime_error.
[[nodiscard]] ArchiveReader open(std::span<const std::uint8_t> bytes,
                                 const Kind& kind);

/// Throws unless `ar` consumed its whole payload (a missed version bump).
void finish(const ArchiveReader& ar, const Kind& kind);

/// Format sniff: `bytes` starts with `kind`'s magic.
[[nodiscard]] bool has_magic(std::span<const std::uint8_t> bytes,
                             const Kind& kind) noexcept;

}  // namespace mflush::frame
