#include "util/file_io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace crp::util {

namespace {

void setError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// Distinct temp names per process and per call, so two writers racing
// on the same destination never stream into each other's temp file
// (last rename wins, each file is internally consistent).
std::string tempPathFor(const std::string& path) {
  static std::atomic<unsigned> sequence{0};
  const unsigned seq = sequence.fetch_add(1, std::memory_order_relaxed);
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(seq);
}

}  // namespace

std::string readFile(const std::string& path) {
  const auto fail = [&path](int err) {
    return std::runtime_error("cannot read " + path + ": " +
                              std::strerror(err));
  };
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) throw fail(errno);
  struct stat st {};
  if (::fstat(::fileno(file.get()), &st) != 0) st.st_size = 0;
  // One byte of slack: a regular file then ends on a short read into
  // the same buffer; a pipe (size 0) grows it as it goes.
  std::string text(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == text.size()) text.resize(2 * size);
    const std::size_t room = text.size() - size;
    const std::size_t n = std::fread(text.data() + size, 1, room, file.get());
    size += n;
    if (n < room) break;  // end of file, or a failed read
  }
  if (std::ferror(file.get())) throw fail(errno);
  text.resize(size);
  return text;
}

bool writeFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& produce,
                     std::string* error) {
  // The rename below would replace whatever sits at `path`: refuse
  // anything but a regular file (a device such as /dev/null, a FIFO or
  // a directory) rather than clobber it.
  std::error_code statEc;
  const auto status = std::filesystem::status(path, statEc);
  if (std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status)) {
    setError(error, path + " exists and is not a regular file");
    return false;
  }
  const std::string tmp = tempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      setError(error, "cannot open " + tmp + " for writing: " +
                          std::strerror(errno));
      return false;
    }
    bool produced = false;
    try {
      produced = produce(out);
    } catch (const std::exception& e) {
      out.close();
      std::remove(tmp.c_str());
      setError(error, std::string("writer threw: ") + e.what());
      return false;
    }
    out.flush();
    // `produced` is the producer's own verdict; the stream state is
    // the OS's (covers ENOSPC surfacing at flush/close time).
    if (!produced || !out.good()) {
      out.close();
      std::remove(tmp.c_str());
      setError(error, "write to " + tmp + " failed (disk full or I/O error)");
      return false;
    }
    out.close();
    if (out.fail()) {
      std::remove(tmp.c_str());
      setError(error, "closing " + tmp + " failed (disk full or I/O error)");
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    setError(error,
             "rename " + tmp + " -> " + path + " failed: " + ec.message());
    return false;
  }
  return true;
}

bool writeFileAtomic(const std::string& path, std::string_view content,
                     std::string* error) {
  return writeFileAtomic(
      path,
      [content](std::ostream& os) -> bool {
        os.write(content.data(),
                 static_cast<std::streamsize>(content.size()));
        return os.good();
      },
      error);
}

void writeFileAtomicOrThrow(const std::string& path,
                            const std::function<void(std::ostream&)>& write) {
  std::string error;
  const bool ok = writeFileAtomic(
      path,
      [&write](std::ostream& os) {
        write(os);
        return os.good();
      },
      &error);
  if (!ok) throw std::runtime_error("cannot write " + path + ": " + error);
}

bool appendLineAtomic(const std::string& path, std::string_view line,
                      std::string* error) {
  // O_RDWR, not O_WRONLY: the torn-tail probe below pread()s the last
  // byte, which a write-only descriptor would refuse (EBADF).
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    setError(error, "cannot open " + path + " for append: " +
                        std::strerror(errno));
    return false;
  }
  // Exclusive advisory lock for the probe + write, released by close():
  // without it the probe below can catch a concurrent appender's line
  // half-written and "repair" it with a stray newline.
  if (::flock(fd, LOCK_EX) != 0) {
    setError(error, "cannot lock " + path + ": " + std::strerror(errno));
    ::close(fd);
    return false;
  }
  // Repair a torn tail from a crashed earlier append: if the last byte
  // is not a newline, lead with one so the previous partial record
  // stays isolated on its own (unparseable, skipped) line.
  std::string payload;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      payload.push_back('\n');
    }
  }
  payload.append(line);
  payload.push_back('\n');

  // One write() call: O_APPEND makes the position+write atomic against
  // concurrent appenders, and a crash mid-call can only leave a prefix
  // of this single record behind.
  bool ok = true;
  ssize_t n;
  do {
    n = ::write(fd, payload.data(), payload.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0 || static_cast<std::size_t>(n) != payload.size()) {
    setError(error, "append to " + path + " failed: " +
                        (n < 0 ? std::strerror(errno) : "short write"));
    ok = false;
  }
  if (::close(fd) != 0 && ok) {
    setError(error, "closing " + path + " failed: " + std::strerror(errno));
    ok = false;
  }
  return ok;
}

}  // namespace crp::util
