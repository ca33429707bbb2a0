// Shared plumbing of the end-to-end benchmark: options, the metric report
// printed as the run's last line, warm-cache set-up, and small statistics.
//
// The workloads themselves live in campaign.cpp (campaign-float,
// campaign-int8, search-bnb), serve.cpp (serve-guarded) and probe.cpp (the
// per-layer probe of the traced run).  Everything here drives the library
// through its public entry points only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "exp/experiment.h"
#include "models/zoo.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace rp = rowpress;

/// One Table-I model per family: ResNet (CNN), DeiT (attention), VMamba
/// (selective scan) and M11 (1-D speech CNN).
inline const std::vector<std::string>& families() {
  static const std::vector<std::string> f = {"ResNet-20", "DeiT-T",
                                             "VMamba-T", "M11"};
  return f;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit;
  std::string out_dir = ".bench_build/out";
  std::string cache_dir() const { return out_dir + "/cache"; }
};

/// Everything a run reports.  `e2e` holds the user-facing metrics under
/// their documented names (printed as a table), `contract` the generic
/// end-to-end metrics of BENCHMARK.json, `layer` the per-layer metrics of a
/// traced run.
class Report {
 public:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;
  };

  void e2e(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  void contract(const std::string& name, double value,
                const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// Records a passed correctness gate; a failed one aborts the run
  /// (fail_gate below).
  void gate_ok(const std::string& check, const std::string& detail);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints the e2e table, then the final JSON line.
  void print(const Options& opt) const;

 private:
  std::vector<std::pair<std::string, Entry>> e2e_;
  std::map<std::string, Entry> contract_;
  std::map<std::string, Entry> layer_;
  std::vector<std::string> gates_;
};

/// Prints "GATE FAILED <check>: <detail>" to stderr and exits 1 without a
/// result line.
[[noreturn]] void fail_gate(const std::string& check,
                            const std::string& detail);

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q);

using Clock = std::chrono::steady_clock;
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double s_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

// --- set-up ---------------------------------------------------------------

/// Trains (or finds) every family model and profiles the chip into the
/// benchmark's cache, in parallel.  Runs before anything is timed.
void fill_caches(const Options& opt);

/// Shared read-only inputs built by one warm set-up.
struct Warm {
  std::map<rp::models::DatasetKind, rp::data::SplitDataset> datasets;
  std::map<std::string, rp::exp::PreparedModel> models;
  rp::exp::ProfilePair profiles;
};

/// Milliseconds per set-up stage of one repetition.
struct SetupTimes {
  double dataset_ms = 0.0;
  double model_load_ms = 0.0;
  double profile_ms = 0.0;
  double quantize_ms = 0.0;  ///< quantization plus DRAM placement
  double plan_ms = 0.0;      ///< offline attack plan (serve-guarded only)
  double total_s() const {
    return (dataset_ms + model_load_ms + profile_ms + quantize_ms + plan_ms) /
           1000.0;
  }
};

/// One warm set-up of `models`: datasets, cached model load, profile load,
/// quantization and placement of every model under both profiles.
Warm warm_setup(const Options& opt, const std::vector<std::string>& models,
                bool int8, SetupTimes* times);

/// Median set-up time over repetitions plus the per-stage medians, recorded
/// as setup_s and setup.* on `report`.
void report_setup(const std::vector<SetupTimes>& reps, Report& report);

/// Warm set-up repetitions per run (the median is reported).
constexpr int kSetupReps = 3;

/// Writes the Chrome trace of a traced run to <out_dir>/trace-<workload>.json.
void write_trace(const Options& opt, const rp::telemetry::TraceCollector& tc);

// --- workloads ------------------------------------------------------------

void run_campaign_workload(const Options& opt, Report& report);
void run_search_workload(const Options& opt, Report& report);
void run_serve_workload(const Options& opt, Report& report);

/// Per-layer probe of one family (see probe.cpp): per-kind forward /
/// backward time of the top-level children, kernel and int8-edge time, and
/// the cost of one call of each BFA stage.
struct ProbeResult {
  std::map<std::string, double> fwd_ms;  ///< by Module::name(), per forward
  std::map<std::string, double> bwd_ms;  ///< by Module::name(), per backward
  double grad_ms = 0.0;     ///< forward + loss + backward on the attack batch
  double replay_ms = 0.0;   ///< mean forward_from(c) over attackable children
  double eval_ms = 0.0;     ///< mean IncrementalEvaluator::from_child(c)
  double edge_ms = 0.0;     ///< int8 forward minus qgemm, minus float minus gemm
  double gemm_calls = 0.0, gemm_ms = 0.0;    ///< per forward
  double qgemm_calls = 0.0, qgemm_ms = 0.0;  ///< per forward
};

struct ProbeConfig {
  int batch = 32;         ///< forward/backward batch (the attack batch)
  int eval_samples = 256; ///< eval subset of the suffix evaluator
  bool int8 = false;
  bool backward = true;   ///< serving runs forward only
};

ProbeResult probe_family(const rp::models::ModelSpec& spec,
                         const rp::nn::ModelState& trained,
                         const rp::data::SplitDataset& data,
                         const ProbeConfig& cfg,
                         rp::telemetry::TraceCollector* trace);

/// Records nn.fwd_ms.<family>.<kind> / nn.bwd_ms.<family>.<kind>.
void report_probe_layers(const std::string& family, const ProbeResult& p,
                         Report& report);

}  // namespace perfbench
