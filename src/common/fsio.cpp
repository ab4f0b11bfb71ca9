#include "common/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace mflush::fsio {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path + " (" + std::strerror(errno) +
                           ")");
}

/// Process-unique temp sibling for `path`: same directory (rename must not
/// cross filesystems), pid + counter so concurrent writers never collide.
std::string temp_sibling(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes, bool durable) {
  const std::string tmp = temp_sibling(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open for write", tmp);

  // Each failure path unlinks the temp, which clobbers errno: save it
  // first, or the message reports unlink's error instead of the real one.
  const auto fail_unlinked = [&](const char* what, const std::string& name) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail(what, name);
  };
  const auto cleanup_failed = [&](const char* what) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_unlinked(what, tmp);
  };

  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      cleanup_failed("write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  // The fsync-before-rename is what guarantees the rename publishes a
  // *complete* file: without it a crash can leave the new name pointing at
  // zero-length data even though the rename itself survived.
  if (durable && ::fsync(fd) != 0) cleanup_failed("fsync failed");
  if (::close(fd) != 0) fail_unlinked("close failed", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail_unlinked("rename failed", path);
  if (durable) {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    fsync_dir(dir.empty() ? "." : dir);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("directory fsync failed", dir);
  }
  ::close(fd);
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path,
                                          const char* what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw std::runtime_error(std::string("cannot open ") + what + ": " +
                             path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in)
    throw std::runtime_error(std::string(what) + " read failed: " + path);
  return bytes;
}

}  // namespace mflush::fsio
