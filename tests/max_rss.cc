// max_rss: run a program and report its peak resident set size.
//
//   max_rss [-o <report-file>] <program> [args...]
//
// Forks, execs the program with its arguments, waits for it with wait4 and
// writes "max_rss_kb <n>" (the child's ru_maxrss) to stderr, or to the
// report file with -o, which keeps the child's own stderr clean. Exits with
// the child's exit status, or 128 + signal if a signal killed it. Measuring from
// a small compiled parent matters: a child forked from a large interpreter
// keeps the parent's RSS high-water mark across exec, so a reading taken
// that way can never fall below the interpreter's own footprint.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  const char* report_path = nullptr;
  if (argc >= 3 && std::strcmp(argv[1], "-o") == 0) {
    report_path = argv[2];
    argc -= 2;
    argv += 2;
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: max_rss [-o <report-file>] <program> [args...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "max_rss: fork: %s\n", std::strerror(errno));
    return 2;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    std::fprintf(stderr, "max_rss: exec %s: %s\n", argv[1], std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::fprintf(stderr, "max_rss: wait4: %s\n", std::strerror(errno));
      return 2;
    }
  }
  FILE* report = report_path != nullptr ? std::fopen(report_path, "w") : stderr;
  if (report == nullptr) {
    std::fprintf(stderr, "max_rss: open %s: %s\n", report_path, std::strerror(errno));
    return 2;
  }
  std::fprintf(report, "max_rss_kb %ld\n", usage.ru_maxrss);
  if (report != stderr) std::fclose(report);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
