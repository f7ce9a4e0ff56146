//===- support/Subprocess.cpp - fork/exec children with rlimits -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "support/Posix.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace ctp;
using namespace ctp::proc;

namespace {

/// Child-side file redirection; _exit(127) on failure like exec failure
/// (the parent cannot distinguish, and should not need to).
void redirectOrDie(const char *Path, int Flags, int TargetFd) {
  int Fd = ::open(Path, Flags, 0644);
  if (Fd < 0 || ::dup2(Fd, TargetFd) < 0)
    ::_exit(127);
  ::close(Fd);
}

void setLimitOrDie(int Resource, std::uint64_t Value) {
  if (Value == 0)
    return;
  struct rlimit L;
  L.rlim_cur = static_cast<rlim_t>(Value);
  L.rlim_max = static_cast<rlim_t>(Value);
  if (::setrlimit(Resource, &L) != 0)
    ::_exit(127);
}

} // namespace

Child::~Child() {
  if (spawned() && !Reaped) {
    ::kill(Pid, SIGKILL);
    wait();
  }
  closeErrFd();
}

void Child::closeErrFd() {
  if (ErrFd >= 0) {
    posix::closeQuiet(ErrFd);
    ErrFd = -1;
  }
}

std::string Child::spawn(const SpawnSpec &Spec) {
  if (Spec.Argv.empty())
    return "spawn: empty argv";
  if (spawned())
    return "spawn: Child already holds a process";

  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return std::string("pipe failed: ") + std::strerror(errno);

  // Build argv/env before forking: heap allocation between fork and exec
  // is unsafe in a multithreaded parent.
  std::vector<char *> Argv;
  Argv.reserve(Spec.Argv.size() + 1);
  for (const std::string &A : Spec.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  std::vector<char *> Envp;
  for (char **E = environ; *E; ++E)
    Envp.push_back(*E);
  for (const std::string &E : Spec.ExtraEnv)
    Envp.push_back(const_cast<char *>(E.c_str()));
  Envp.push_back(nullptr);

  pid_t P = ::fork();
  if (P < 0) {
    posix::closeQuiet(Pipe[0]);
    posix::closeQuiet(Pipe[1]);
    return std::string("fork failed: ") + std::strerror(errno);
  }
  if (P == 0) {
    // Child. Own process group so a supervisor kill cannot stray.
    ::setpgid(0, 0);
    ::close(Pipe[0]);
    redirectOrDie(Spec.StdoutPath.empty() ? "/dev/null"
                                          : Spec.StdoutPath.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC, STDOUT_FILENO);
    if (::dup2(Pipe[1], STDERR_FILENO) < 0)
      ::_exit(127);
    ::close(Pipe[1]);
    setLimitOrDie(RLIMIT_AS, Spec.MemLimitBytes);
    if (Spec.CpuLimitSeconds != 0) {
      // Soft limit at the cap, hard limit above it: with cur == max the
      // kernel skips SIGXCPU and goes straight to SIGKILL, which the
      // supervisor could not tell apart from any other kill.
      struct rlimit Cpu;
      Cpu.rlim_cur = static_cast<rlim_t>(Spec.CpuLimitSeconds);
      Cpu.rlim_max = static_cast<rlim_t>(Spec.CpuLimitSeconds + 5);
      if (::setrlimit(RLIMIT_CPU, &Cpu) != 0)
        ::_exit(127);
    }
    // No core dumps: crash triage reads the wait status and stderr, and
    // a matrix of crashing children must not litter the work tree.
    struct rlimit NoCore = {0, 0};
    ::setrlimit(RLIMIT_CORE, &NoCore);
    ::execve(Argv[0], Argv.data(), Envp.data());
    ::_exit(127);
  }

  // Parent.
  posix::closeQuiet(Pipe[1]);
  ErrFd = Pipe[0];
  int Flags = ::fcntl(ErrFd, F_GETFL, 0);
  ::fcntl(ErrFd, F_SETFL, Flags | O_NONBLOCK);
  Pid = P;
  Reaped = false;
  Status = ExitStatus();
  Tail.clear();
  TailCap = Spec.StderrTailBytes == 0 ? 2048 : Spec.StderrTailBytes;
  StderrPath = Spec.StderrPath;
  return "";
}

void Child::pumpStderr() {
  if (ErrFd < 0)
    return;
  char Buf[4096];
  while (true) {
    ssize_t N = posix::readRetry(ErrFd, Buf, sizeof(Buf));
    if (N > 0) {
      if (!StderrPath.empty()) {
        int Fd = posix::openRetry(StderrPath.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND);
        if (Fd >= 0) {
          posix::writeFull(Fd, Buf, static_cast<std::size_t>(N));
          posix::closeQuiet(Fd);
        }
      }
      Tail.append(Buf, static_cast<std::size_t>(N));
      if (Tail.size() > TailCap)
        Tail.erase(0, Tail.size() - TailCap);
      continue;
    }
    if (N == 0) { // EOF: the child closed its end.
      closeErrFd();
      return;
    }
    return; // EAGAIN: nothing buffered right now (EINTR already retried).
  }
}

bool Child::running() {
  if (!spawned() || Reaped)
    return false;
  pumpStderr();
  int St = 0;
  pid_t R = posix::waitpidRetry(Pid, &St, WNOHANG);
  if (R == 0)
    return true;
  // Reaped (or unexpectedly gone: treat ECHILD as an exec-failure-like
  // exit so the supervisor sees *something* deterministic).
  Reaped = true;
  if (R == Pid && WIFEXITED(St)) {
    Status.Exited = true;
    Status.Code = WEXITSTATUS(St);
  } else if (R == Pid && WIFSIGNALED(St)) {
    Status.Signalled = true;
    Status.Signal = WTERMSIG(St);
  } else {
    Status.Exited = true;
    Status.Code = 127;
  }
  pumpStderr(); // Drain what the child wrote before dying.
  closeErrFd();
  return false;
}

void Child::wait() {
  while (running())
    ::usleep(2000);
}

void Child::kill(int Sig) {
  if (spawned() && !Reaped)
    ::kill(Pid, Sig);
}
