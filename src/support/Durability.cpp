//===- support/Durability.cpp - fsync helpers and durable appends ---------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Durability.h"

#include "support/Posix.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ctp;

namespace {

std::string errnoDiag(const std::string &What, const std::string &Path) {
  return What + " '" + Path + "' failed: " + std::strerror(errno);
}

} // namespace

std::string durable::syncDirOf(const std::string &Path) {
  std::string::size_type Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                    : Slash == 0                ? std::string("/")
                                                : Path.substr(0, Slash);
  int Fd = posix::openRetry(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return errnoDiag("open directory", Dir);
  int Rc = posix::fsyncRetry(Fd);
  int SavedErrno = errno;
  posix::closeQuiet(Fd);
  // Directories on some filesystems reject fsync with EINVAL; there is
  // no stronger guarantee to be had there, so it is not an error.
  if (Rc != 0 && SavedErrno != EINVAL) {
    errno = SavedErrno;
    return errnoDiag("fsync directory", Dir);
  }
  return "";
}

std::string durable::appendLine(const std::string &Path,
                                const std::string &Line) {
  struct stat St;
  bool Existed = ::stat(Path.c_str(), &St) == 0;
  int Fd = posix::openRetry(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND);
  if (Fd < 0)
    return errnoDiag("open", Path);
  std::string Buf = Line;
  Buf += '\n';
  if (!posix::writeFull(Fd, Buf.data(), Buf.size())) {
    std::string Err = errnoDiag("append to", Path);
    posix::closeQuiet(Fd);
    return Err;
  }
  if (posix::fsyncRetry(Fd) != 0) {
    std::string Err = errnoDiag("fsync", Path);
    posix::closeQuiet(Fd);
    return Err;
  }
  if (posix::closeQuiet(Fd) != 0)
    return errnoDiag("close", Path);
  if (!Existed)
    return syncDirOf(Path);
  return "";
}

std::string durable::writeFileSynced(const std::string &Path,
                                     const void *Data, std::size_t Size) {
  int Fd = posix::openRetry(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC);
  if (Fd < 0)
    return errnoDiag("open", Path);
  if (!posix::writeFull(Fd, Data, Size)) {
    std::string Err = errnoDiag("write to", Path);
    posix::closeQuiet(Fd);
    return Err;
  }
  if (posix::fsyncRetry(Fd) != 0) {
    std::string Err = errnoDiag("fsync", Path);
    posix::closeQuiet(Fd);
    return Err;
  }
  if (posix::closeQuiet(Fd) != 0)
    return errnoDiag("close", Path);
  return "";
}
