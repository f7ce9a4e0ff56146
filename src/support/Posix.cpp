//===- support/Posix.cpp - EINTR-safe POSIX wrappers ----------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Posix.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ctp;

int posix::openRetry(const char *Path, int Flags, unsigned Mode) {
  while (true) {
    int Fd = ::open(Path, Flags, static_cast<mode_t>(Mode));
    if (Fd >= 0 || errno != EINTR)
      return Fd;
  }
}

ssize_t posix::readRetry(int Fd, void *Buf, std::size_t N) {
  while (true) {
    ssize_t R = ::read(Fd, Buf, N);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

std::size_t posix::readFull(int Fd, void *Buf, std::size_t N, int *Err) {
  if (Err)
    *Err = 0;
  char *P = static_cast<char *>(Buf);
  std::size_t Got = 0;
  while (Got < N) {
    ssize_t R = readRetry(Fd, P + Got, N - Got);
    if (R < 0) {
      if (Err)
        *Err = errno;
      break;
    }
    if (R == 0)
      break; // EOF.
    Got += static_cast<std::size_t>(R);
  }
  return Got;
}

bool posix::writeFull(int Fd, const void *Buf, std::size_t N) {
  const char *P = static_cast<const char *>(Buf);
  while (N != 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= static_cast<std::size_t>(W);
  }
  return true;
}

int posix::fsyncRetry(int Fd) {
  while (true) {
    int R = ::fsync(Fd);
    if (R == 0 || errno != EINTR)
      return R;
  }
}

pid_t posix::waitpidRetry(pid_t Pid, int *Status, int Flags) {
  while (true) {
    pid_t R = ::waitpid(Pid, Status, Flags);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

int posix::closeQuiet(int Fd) {
  if (::close(Fd) == 0 || errno == EINTR)
    return 0;
  return -1;
}

std::string posix::mkdirs(const std::string &Path) {
  // Built, not assigned "/": GCC 12 reports a false -Wrestrict on the
  // assignment when inlined under the sanitizers.
  std::string Partial(!Path.empty() && Path[0] == '/' ? 1 : 0, '/');
  std::size_t Start = 0;
  while (Start < Path.size()) {
    std::size_t End = Path.find('/', Start);
    if (End == std::string::npos)
      End = Path.size();
    if (End != Start) {
      if (!Partial.empty() && Partial.back() != '/')
        Partial += '/';
      Partial += Path.substr(Start, End - Start);
      if (::mkdir(Partial.c_str(), 0755) != 0 && errno != EEXIST)
        return "cannot create directory '" + Partial +
               "': " + std::strerror(errno);
    }
    Start = End + 1;
  }
  return "";
}
