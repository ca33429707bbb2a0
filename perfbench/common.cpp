#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "attack/mapping.h"
#include "attack/runner.h"
#include "bench.h"
#include "common/check.h"
#include "dram/device.h"
#include "nn/kernels/kernels.h"

namespace perfbench {

namespace {

// JSON numbers must be finite; a non-finite measurement (an empty latency
// sample, say) is reported as a huge value rather than breaking the line.
double finite(double v) { return std::isfinite(v) ? v : 1e18; }

void print_entries(std::FILE* f,
                   const std::map<std::string, Report::Entry>& entries) {
  bool first = true;
  for (const auto& [name, e] : entries) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(), finite(e.value),
                 e.unit.c_str());
    first = false;
  }
}

const char* build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  e2e_.emplace_back(name, Entry{value, unit, samples});
}

void Report::contract(const std::string& name, double value,
                      const std::string& unit) {
  contract_[name] = Entry{value, unit, 0};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Entry{value, unit, 0};
}

void Report::gate_ok(const std::string& check, const std::string& detail) {
  std::printf("gate ok  %-26s %s\n", check.c_str(), detail.c_str());
  gates_.push_back(check);
}

void Report::print(const Options& opt) const {
  std::printf("\n%-28s %16s  %-6s %8s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, e] : e2e_)
    std::printf("%-28s %16.6f  %-6s %8lld\n", name.c_str(), finite(e.value),
                e.unit.c_str(), static_cast<long long>(e.samples));
  if (opt.trace) {
    std::printf("\n%-40s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, e] : layer_)
      std::printf("%-40s %16.6f  %s\n", name.c_str(), finite(e.value),
                  e.unit.c_str());
  }

  namespace k = rp::nn::kernels;
  std::printf("\n{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  print_entries(stdout, opt.trace ? layer_ : contract_);
  std::printf("}, \"e2e\": {");
  bool first = true;
  for (const auto& [name, e] : e2e_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %lld}",
                first ? "" : ", ", name.c_str(), finite(e.value),
                e.unit.c_str(), static_cast<long long>(e.samples));
    first = false;
  }
  std::printf("}, \"gates\": [");
  for (std::size_t i = 0; i < gates_.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", gates_[i].c_str());
  std::printf("], \"provenance\": {\"commit\": \"%s\", \"backend\": \"%s\", "
              "\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}}\n",
              opt.commit.c_str(), k::backend_name(k::active_backend()),
              k::cpu_features_string().c_str(),
              std::thread::hardware_concurrency(), build_type(),
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);
}

void fail_gate(const std::string& check, const std::string& detail) {
  std::fflush(stdout);
  std::fprintf(stderr, "GATE FAILED %s: %s\n", check.c_str(), detail.c_str());
  std::exit(1);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (!std::isfinite(v[hi])) return frac > 0.0 ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void fill_caches(const Options& opt) {
  const auto zoo = rp::models::model_zoo();
  std::filesystem::create_directories(opt.cache_dir());
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::exception_ptr error;
  auto guarded = [&](auto&& fn) {
    return [&, fn] {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!error) error = std::current_exception();
      }
    };
  };
  for (const auto& name : families()) {
    threads.emplace_back(guarded([&, name] {
      const auto& spec = rp::models::find_model(zoo, name);
      const auto data = rp::models::make_dataset(spec.dataset);
      rp::exp::prepare_trained_model(spec, data, opt.cache_dir(), 1);
    }));
  }
  threads.emplace_back(guarded([&] {
    rp::dram::Device device(rp::exp::default_chip_config());
    rp::exp::build_or_load_profiles(device, opt.cache_dir());
  }));
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

Warm warm_setup(const Options& opt, const std::vector<std::string>& models,
                bool int8, SetupTimes* times) {
  const auto zoo = rp::models::model_zoo();
  Warm w;
  auto t0 = Clock::now();
  for (const auto& name : models) {
    const auto kind = rp::models::find_model(zoo, name).dataset;
    if (!w.datasets.count(kind))
      w.datasets.emplace(kind, rp::models::make_dataset(kind));
  }
  times->dataset_ms = ms_since(t0);

  t0 = Clock::now();
  for (const auto& name : models) {
    const auto& spec = rp::models::find_model(zoo, name);
    auto prepared = rp::exp::prepare_trained_model(
        spec, w.datasets.at(spec.dataset), opt.cache_dir(), 1);
    RP_REQUIRE(prepared.from_cache,
               "model cache miss for " + name + " after fill_caches");
    w.models.emplace(name, std::move(prepared));
  }
  times->model_load_ms = ms_since(t0);

  t0 = Clock::now();
  rp::dram::Device device(rp::exp::default_chip_config());
  w.profiles = rp::exp::build_or_load_profiles(device, opt.cache_dir());
  times->profile_ms = ms_since(t0);

  // Quantization and DRAM placement, as each attack trial performs them.
  t0 = Clock::now();
  for (const auto& name : models) {
    const auto& spec = rp::models::find_model(zoo, name);
    rp::Rng rng(rp::Rng::derive_stream(opt.seed, std::hash<std::string>{}(name)));
    rp::Rng init_rng = rng.fork();
    auto replica = rp::attack::make_quantized_replica(
        spec, w.models.at(name).state, init_rng);
    if (int8) replica.qmodel->set_int8_execution(true);
    rp::attack::WeightDramMapping mapping(
        device.geometry(), replica.qmodel->total_weight_bytes(), rng);
    const auto rh = mapping.feasible_bits(*replica.qmodel, w.profiles.rowhammer);
    const auto rp_bits =
        mapping.feasible_bits(*replica.qmodel, w.profiles.rowpress);
    RP_REQUIRE(!rh.empty() || !rp_bits.empty(),
               "no feasible bits for " + name);
  }
  times->quantize_ms = ms_since(t0);
  return w;
}

void report_setup(const std::vector<SetupTimes>& reps, Report& report) {
  std::vector<double> total, ds, ml, pr, qz, pl;
  for (const auto& r : reps) {
    total.push_back(r.total_s());
    ds.push_back(r.dataset_ms);
    ml.push_back(r.model_load_ms);
    pr.push_back(r.profile_ms);
    qz.push_back(r.quantize_ms);
    pl.push_back(r.plan_ms);
  }
  const auto n = static_cast<std::int64_t>(reps.size());
  report.e2e("setup_s", median(total), "s", n);
  report.contract("setup_s", median(total), "s");
  report.layer("setup.dataset_ms", median(ds), "ms");
  report.layer("setup.model_load_ms", median(ml), "ms");
  report.layer("setup.profile_ms", median(pr), "ms");
  report.layer("setup.quantize_ms", median(qz), "ms");
  report.layer("setup.plan_ms", median(pl), "ms");
}

void write_trace(const Options& opt, const rp::telemetry::TraceCollector& tc) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  rp::telemetry::write_chrome_trace(path, tc.events());
  std::printf("chrome trace: %s\n", path.c_str());
}

}  // namespace perfbench
