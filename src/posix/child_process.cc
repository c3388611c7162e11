#include "posix/child_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace mercury::posix {

using util::Error;
using util::Result;

Result<ChildProcess> ChildProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) return Error("spawn: empty argv");

  int to_child[2];   // parent writes -> child stdin
  int from_child[2]; // child stdout -> parent reads
  if (pipe(to_child) != 0) return Error(std::string("pipe: ") + strerror(errno));
  if (pipe(from_child) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    return Error(std::string("pipe: ") + strerror(errno));
  }

  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      close(fd);
    }
    return Error(std::string("fork: ") + strerror(errno));
  }

  if (pid == 0) {
    // Child: wire the pipes to stdio and exec.
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      close(fd);
    }
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const auto& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
    c_argv.push_back(nullptr);
    execv(c_argv[0], c_argv.data());
    _exit(127);  // exec failed
  }

  // Parent.
  close(to_child[0]);
  close(from_child[1]);
  // Non-blocking reads; writes stay blocking (lines are tiny) but we ignore
  // SIGPIPE by checking write() results.
  fcntl(from_child[0], F_SETFL, O_NONBLOCK);
  signal(SIGPIPE, SIG_IGN);
  return ChildProcess(pid, to_child[1], from_child[0]);
}

ChildProcess::ChildProcess(pid_t pid, int stdin_fd, int stdout_fd)
    : pid_(pid), stdin_fd_(stdin_fd), stdout_fd_(stdout_fd) {}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdin_fd_(std::exchange(other.stdin_fd_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      reaped_(std::exchange(other.reaped_, true)),
      hung_up_(std::exchange(other.hung_up_, false)),
      buffer_(std::move(other.buffer_)) {}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    kill_hard();
    close_fds();
    pid_ = std::exchange(other.pid_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    reaped_ = std::exchange(other.reaped_, true);
    hung_up_ = std::exchange(other.hung_up_, false);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

ChildProcess::~ChildProcess() {
  kill_hard();
  close_fds();
}

void ChildProcess::close_fds() {
  if (stdin_fd_ >= 0) close(stdin_fd_);
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdin_fd_ = stdout_fd_ = -1;
}

bool ChildProcess::running() {
  if (pid_ < 0 || reaped_) return false;
  int status = 0;
  const pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    reaped_ = true;
    return false;
  }
  return r == 0;
}

void ChildProcess::kill_hard() {
  if (pid_ < 0 || reaped_) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  reaped_ = true;
}

bool ChildProcess::write_line(const std::string& line) {
  if (stdin_fd_ < 0) return false;
  std::string framed = line;
  framed += '\n';
  const ssize_t written = write(stdin_fd_, framed.data(), framed.size());
  return written == static_cast<ssize_t>(framed.size());
}

std::vector<std::string> ChildProcess::read_lines() {
  std::vector<std::string> lines;
  if (stdout_fd_ < 0) return lines;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n == 0) hung_up_ = true;  // EOF: every writer of the pipe is gone
    if (n <= 0) break;  // EOF, EAGAIN (nothing yet) or error ends the drain
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t newline = buffer_.find('\n', start);
    if (newline == std::string::npos) break;
    lines.push_back(buffer_.substr(start, newline - start));
    start = newline + 1;
  }
  buffer_.erase(0, start);
  return lines;
}

}  // namespace mercury::posix
