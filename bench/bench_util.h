// Shared plumbing for the paper-reproduction bench harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace rowpress::bench {

/// Number of attack repetitions (the paper averages 3 runs).  Override with
/// RP_SEEDS=n; RP_QUICK=1 forces 1.
inline int num_seeds() {
  if (const char* quick = std::getenv("RP_QUICK"); quick && quick[0] == '1')
    return 1;
  if (const char* s = std::getenv("RP_SEEDS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 3;
}

/// Directory for cached trained models / profiles (override: RP_CACHE_DIR).
inline std::string cache_dir() {
  if (const char* s = std::getenv("RP_CACHE_DIR")) return s;
  return "artifacts";
}

/// Campaign worker count (override: RP_WORKERS).  0 lets the runtime use
/// one worker per hardware thread.
inline int num_workers() {
  if (const char* s = std::getenv("RP_WORKERS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 0;
}

/// Campaign journal directory for the paper-reproduction benches.
inline std::string journal_dir() { return cache_dir() + "/campaigns"; }

/// Standard output of a shell command, trailing newlines stripped; empty if
/// it cannot run.
inline std::string command_output(const char* cmd) {
  std::string out;
  if (std::FILE* p = popen(cmd, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

/// Commit stamp of a BENCH_*.json file: RP_COMMIT when set, else the
/// current checkout's `git rev-parse --short=12 HEAD`, with "-dirty" when
/// src/ or bench/ differ from it; "unknown" outside a git checkout.
inline std::string commit_stamp() {
  if (const char* s = std::getenv("RP_COMMIT")) return s;
  std::string head =
      command_output("git rev-parse --short=12 HEAD 2>/dev/null");
  if (head.empty()) return "unknown";
  if (!command_output("git status --porcelain -- ':/src' ':/bench' "
                      "2>/dev/null")
           .empty())
    head += "-dirty";
  return head;
}

}  // namespace rowpress::bench
