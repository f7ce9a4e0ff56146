//===- support/Subprocess.h - fork/exec children with rlimits ---*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-isolation primitive under the batch supervisor: spawn one
/// child with hard kernel resource caps (setrlimit) and captured stderr,
/// poll it without blocking, and decode how it ended. Everything the
/// supervisor's triage needs — exit code vs. fatal signal, the last bytes
/// of stderr — is collected here; *interpreting* it (watchdog? rlimit?
/// chaos?) is support/Supervisor.h's business.
///
/// The caps are enforced by the kernel, not cooperatively: RLIMIT_AS
/// bounds address space (an allocation beyond it fails, which a C++
/// child surfaces as std::bad_alloc → std::terminate → SIGABRT) and
/// RLIMIT_CPU bounds CPU seconds (SIGXCPU at the soft limit). That makes
/// the supervisor robust against children whose own budget machinery is
/// broken — the layer below the cooperative governor of support/Budget.h.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SUPPORT_SUBPROCESS_H
#define CTP_SUPPORT_SUBPROCESS_H

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ctp {
namespace proc {

/// What to run and under which caps.
struct SpawnSpec {
  /// Argv[0] is the executable path (execv semantics, no PATH search).
  std::vector<std::string> Argv;
  /// Extra "KEY=VALUE" entries appended to the inherited environment.
  std::vector<std::string> ExtraEnv;
  /// File receiving the child's stdout; empty discards it (/dev/null).
  std::string StdoutPath;
  /// File receiving a full copy of the child's stderr; empty keeps only
  /// the in-memory tail. stderr is always piped to the parent.
  std::string StderrPath;
  /// RLIMIT_AS in bytes; 0 = unlimited.
  std::uint64_t MemLimitBytes = 0;
  /// RLIMIT_CPU in seconds; 0 = unlimited.
  std::uint64_t CpuLimitSeconds = 0;
  /// Bytes of stderr kept in memory for triage records.
  std::size_t StderrTailBytes = 2048;
};

/// How a reaped child ended. Exactly one of Exited/Signalled is set.
struct ExitStatus {
  bool Exited = false;
  int Code = 0; ///< Exit code when Exited (127 = exec failure).
  bool Signalled = false;
  int Signal = 0; ///< Fatal signal number when Signalled.
};

/// One spawned child. Neither copyable nor movable; the destructor
/// SIGKILLs and reaps a child that is still running so a supervisor bug
/// cannot leak orphans.
class Child {
public:
  Child() = default;
  ~Child();
  Child(Child &&) = delete;
  Child &operator=(Child &&) = delete;

  /// Forks and execs \p Spec. \returns an empty string on success, else
  /// a diagnostic (a child-side exec failure is NOT reported here — it
  /// surfaces as exit code 127 when the child is reaped).
  std::string spawn(const SpawnSpec &Spec);

  /// Non-blocking liveness check: drains pending stderr, reaps the child
  /// if it has ended. \returns true while the child is still running.
  bool running();

  /// Blocks until the child ends (draining stderr throughout).
  void wait();

  /// Sends \p Sig to the child; no-op once it has been reaped.
  void kill(int Sig);

  /// Valid once running() has returned false.
  const ExitStatus &status() const { return Status; }

  /// The last SpawnSpec::StderrTailBytes bytes of the child's stderr.
  const std::string &stderrTail() const { return Tail; }

  pid_t pid() const { return Pid; }
  bool spawned() const { return Pid > 0; }

private:
  void pumpStderr();
  void closeErrFd();

  pid_t Pid = -1;
  int ErrFd = -1;
  bool Reaped = false;
  ExitStatus Status;
  std::string Tail;
  std::size_t TailCap = 2048;
  std::string StderrPath;
};

} // namespace proc
} // namespace ctp

#endif // CTP_SUPPORT_SUBPROCESS_H
