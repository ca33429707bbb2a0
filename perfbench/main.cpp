// End-to-end benchmark of rowpress-dnn: Table-I attack campaigns (float and
// int8), branch-and-bound chain search, and guarded int8 serving.  See
// README.md in this directory for the workloads, the metrics and the layer
// each per-layer metric belongs to.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --commit <id> [--out-dir <dir>]
//
// Normally started through run.py, which builds this binary first and
// checks the result line against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

constexpr bool sanitized_build() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload campaign-float|campaign-int8|"
               "search-bnb|serve-guarded --seed N --seconds S --trace 0|1 "
               "--commit ID [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace expects 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--commit") {
        opt.commit = value();
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.commit.empty() || opt.commit == "unknown")
    usage("--commit must name the source revision");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a debug build\n");
  return 2;
#endif
  if (sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a sanitized build\n");
    return 2;
  }

  try {
    std::filesystem::create_directories(opt.out_dir + "/journals");
    perfbench::fill_caches(opt);
    perfbench::Report report;
    if (opt.workload == "campaign-float" || opt.workload == "campaign-int8")
      perfbench::run_campaign_workload(opt, report);
    else if (opt.workload == "search-bnb")
      perfbench::run_search_workload(opt, report);
    else if (opt.workload == "serve-guarded")
      perfbench::run_serve_workload(opt, report);
    else
      usage("unknown workload " + opt.workload);
    report.print(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
