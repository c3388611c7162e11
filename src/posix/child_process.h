// ChildProcess: RAII wrapper over fork/exec with pipe-connected stdio.
//
// The POSIX backend runs real worker processes and supervises them the way
// Mercury's REC supervised JVMs: SIGKILL to kill, exec to restart,
// line-oriented pings over pipes for liveness. This class owns exactly one
// child: the pipes, the pid, and the obligation to reap it.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "util/result.h"

namespace mercury::posix {

class ChildProcess {
 public:
  /// Fork/exec `argv` (argv[0] is the binary path) with stdin/stdout piped
  /// to the parent. The child's stderr passes through.
  static util::Result<ChildProcess> spawn(const std::vector<std::string>& argv);

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Kills (SIGKILL) and reaps if still running.
  ~ChildProcess();

  pid_t pid() const { return pid_; }

  /// True while the child has not been reaped. Reaps on discovery of exit.
  bool running();

  /// SIGKILL + blocking reap. Idempotent.
  void kill_hard();

  /// Write `line` (newline appended) to the child's stdin. Returns false on
  /// a dead/full pipe — fail-silent, like Mercury's bus writes.
  bool write_line(const std::string& line);

  /// Readable end of the child's stdout, for poll().
  int stdout_fd() const { return stdout_fd_; }

  /// Drain available stdout and return complete lines (non-blocking).
  std::vector<std::string> read_lines();

  /// True once read_lines() has seen EOF on stdout: the child exited (or
  /// closed its stdout), and no further line will ever arrive. A wedged but
  /// living child never hangs up.
  bool hung_up() const { return hung_up_; }

 private:
  ChildProcess(pid_t pid, int stdin_fd, int stdout_fd);
  void close_fds();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  bool hung_up_ = false;
  std::string buffer_;
};

}  // namespace mercury::posix
