// On-disk checkpoint files for the POSIX backend (ISSUE 3).
//
// The simulator's checkpoint store holds snapshots in memory; on real
// processes the state must survive the process, so it lives in a small
// state file the worker writes after becoming READY and reloads at the next
// spawn to skip its simulated slow start (a warm restart). The supervisor
// validates the same file *before* spawning and deletes it when invalid, so
// a worker never warm-starts from garbage.
//
// Format v2 (single line, single space separators; payload is one token):
//
//   MERCURY-CKPT <version> <name> <len> <payload> <fnv1a-checksum-hex>
//
// <len> is the payload's byte length, validated BEFORE the checksum: a
// truncated file (power loss mid-write, full disk) is rejected by the cheap
// length check without ever trusting the checksum arithmetic on a payload
// that is not the payload that was written. The checksum covers
// "<version> <name> <len> <payload>". Anything else — missing magic, wrong
// version, name mismatch, length mismatch, malformed or wrong checksum,
// extra tokens — is invalid. v1 files (no <len>) are invalid under v2 and
// get deleted: one cold start per format migration, never a wrong warm one.
//
// Header-only and libc++-only on purpose: mercury_worker links no project
// libraries, and supervisor and worker must agree on the format byte for
// byte.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace mercury::posix::ckpt {

inline constexpr int kFileVersion = 2;
inline constexpr std::string_view kMagic = "MERCURY-CKPT";

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct CheckpointFile {
  int version = kFileVersion;
  std::string name;
  std::string payload;
};

enum class FileState { kMissing, kInvalid, kValid };

inline std::string checksum_body(int version, const std::string& name,
                                 const std::string& payload) {
  return std::to_string(version) + " " + name + " " +
         std::to_string(payload.size()) + " " + payload;
}

/// Read and validate `path` for worker `expect_name`. kValid fills `out`.
inline FileState read_checkpoint_file(const std::string& path,
                                      const std::string& expect_name,
                                      CheckpointFile* out) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return FileState::kMissing;
  char buffer[1024];
  const bool got_line = std::fgets(buffer, sizeof(buffer), file) != nullptr;
  std::fclose(file);
  if (!got_line) return FileState::kInvalid;

  std::string line(buffer);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }

  // Tokenize on single spaces; exactly 6 tokens.
  constexpr int kTokens = 6;
  std::string tokens[kTokens];
  std::size_t start = 0;
  for (int i = 0; i < kTokens; ++i) {
    const std::size_t space = line.find(' ', start);
    if (i < kTokens - 1) {
      if (space == std::string::npos) return FileState::kInvalid;
      tokens[i] = line.substr(start, space - start);
      start = space + 1;
    } else {
      if (space != std::string::npos) return FileState::kInvalid;  // extras
      tokens[i] = line.substr(start);
    }
  }
  if (tokens[0] != kMagic) return FileState::kInvalid;

  // Checked numeric parses — this file is exactly the kind of input that
  // shows up half-written or bit-flipped.
  char* end = nullptr;
  const long version = std::strtol(tokens[1].c_str(), &end, 10);
  if (end == tokens[1].c_str() || *end != '\0') return FileState::kInvalid;
  if (version != kFileVersion) return FileState::kInvalid;
  if (tokens[2] != expect_name || tokens[2].empty()) return FileState::kInvalid;

  // Length before checksum: a payload whose recorded length disagrees with
  // the bytes actually present is a truncated (or padded) file — reject it
  // without doing checksum arithmetic over the wrong bytes.
  const unsigned long long length = std::strtoull(tokens[3].c_str(), &end, 10);
  if (tokens[3].empty() || end == tokens[3].c_str() || *end != '\0') {
    return FileState::kInvalid;
  }
  if (tokens[4].empty() || length != tokens[4].size()) {
    return FileState::kInvalid;
  }

  const std::uint64_t checksum = std::strtoull(tokens[5].c_str(), &end, 16);
  if (tokens[5].empty() || end == tokens[5].c_str() || *end != '\0') {
    return FileState::kInvalid;
  }
  if (checksum != fnv1a(checksum_body(static_cast<int>(version), tokens[2],
                                      tokens[4]))) {
    return FileState::kInvalid;
  }
  if (out != nullptr) {
    out->version = static_cast<int>(version);
    out->name = tokens[2];
    out->payload = tokens[4];
  }
  return FileState::kValid;
}

/// Write `name`'s checkpoint to `path`; returns success. The line goes to a
/// per-process temp file that is rename()d over `path`, so a concurrent
/// reader (the supervisor's spawn gate) or a SIGKILL mid-write only ever
/// sees the old file or the complete new one, never a truncated one.
inline bool write_checkpoint_file(const std::string& path,
                                  const std::string& name,
                                  const std::string& payload) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(temp.c_str(), "w");
  if (file == nullptr) return false;
  const std::uint64_t checksum =
      fnv1a(checksum_body(kFileVersion, name, payload));
  const int rc = std::fprintf(
      file, "%s %d %s %zu %s %llx\n", std::string(kMagic).c_str(),
      kFileVersion, name.c_str(), payload.size(), payload.c_str(),
      static_cast<unsigned long long>(checksum));
  if (std::fclose(file) != 0 || rc <= 0 ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

}  // namespace mercury::posix::ckpt
