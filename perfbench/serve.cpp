// serve-guarded: a zoo ResNet-20 served on the int8 path by
// serve::InferenceServer (2 serving threads) while an offline RowPress plan
// lands flips through serve::SharedModel on a fixed cadence and
// defense::online::IntegrityGuard scrubs and rolls back.
//
// Load comes from the benchmark's own single-thread open-loop generator:
// it offers a fixed ladder of rates, times every request from when it was
// due, and counts shed requests against those offered.  The server exposes
// only cumulative counters, so completions are matched to requests in
// submission order (the k-th completion answers the k-th accepted
// request); with two serving threads a pair of concurrently finishing
// batches may swap, which moves single samples but not the percentiles.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "attack/eval.h"
#include "bench.h"
#include "defense/online/guard.h"
#include "nn/kernels/kernels.h"
#include "search/runner.h"
#include "serve/server.h"
#include "serve/shared_model.h"
#include "telemetry/registry.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
namespace models = rp::models;
namespace nn = rp::nn;
namespace data = rp::data;
namespace serve = rp::serve;
namespace defense = rp::defense;

constexpr const char* kModel = "ResNet-20";
constexpr double kSloMs = 25.0;           ///< p99 latency limit
constexpr double kNominalRps = 4000.0;    ///< rate p50/p99 are reported at
constexpr double kMaxLateMs = 5.0;        ///< generator p99 lag => invalid
constexpr int kPlanFlips = 8;             ///< offline RowPress plan length
constexpr auto kFlipInterval = 20ms;      ///< flip landing cadence
constexpr std::uint64_t kPlanSeed = 0x91a7;
/// Offered rates bracketing the knee (~8k req/s); the last step
/// saturates the server and gives its capacity.
const std::vector<double> kLadder = {2000, 4000, 6000, 7000, 8000,
                                     9000, 10000, 14000};

serve::ServerConfig server_config() {
  serve::ServerConfig c;
  c.threads = 2;
  c.max_batch = 16;
  c.batch_wait_us = 500;
  c.queue_capacity = 1024;
  c.slo_ms = kSloMs;
  c.int8 = true;
  return c;
}

defense::online::GuardConfig guard_config() {
  defense::online::GuardConfig g;
  g.interval = 10ms;
  g.canary_every = 4;
  g.sentinel.page_bytes = 512;
  g.sentinel.pages_per_round = 4;
  g.canary.batch_size = 32;
  g.canary.int8 = true;
  return g;
}

struct Step {
  double rate = 0.0;
  std::int64_t offered = 0, accepted = 0, shed = 0;
  std::int64_t backlog_at_end = 0;  ///< accepted but unanswered at last offer
  double served_per_s = 0.0;        ///< completions per second while offering
  std::vector<double> latency_ms;   ///< due -> completion, accepted requests
  std::vector<double> server_ms;    ///< submit -> completion
  std::vector<double> late_ms;      ///< due -> submit, every request

  /// q-quantile over all offered requests; shed ones miss every limit.
  double latency_q(double q) const {
    std::vector<double> all = latency_ms;
    all.resize(static_cast<std::size_t>(offered), 1e18);
    return quantile(std::move(all), q);
  }
  bool valid() const { return quantile(late_ms, 0.99) <= kMaxLateMs; }
  bool meets_slo() const {
    return valid() && shed == 0 && latency_q(0.99) <= kSloMs &&
           backlog_at_end <= 64;
  }
};

/// Offers `rate` requests/s for `seconds`, then waits for every accepted
/// request to complete.  The server must be idle on entry.
Step run_step(serve::InferenceServer& server, double rate, double seconds,
              std::uint64_t sample_offset) {
  Step s;
  s.rate = rate;
  const std::int64_t base = server.stats().served;
  const auto n = static_cast<std::int64_t>(rate * seconds);
  const int n_samples = server.dataset_size();
  std::vector<Clock::time_point> due_acc, submit_acc, done;
  due_acc.reserve(static_cast<std::size_t>(n));
  submit_acc.reserve(static_cast<std::size_t>(n));
  done.reserve(static_cast<std::size_t>(n));
  s.late_ms.reserve(static_cast<std::size_t>(n));

  auto poll = [&] {
    const std::int64_t served = server.stats().served - base;
    if (served > static_cast<std::int64_t>(done.size())) {
      const auto now = Clock::now();
      done.resize(static_cast<std::size_t>(served), now);
    }
  };
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const auto t0 = Clock::now() + 1ms;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(period * i);
    // Wait for the due time watching completions; yielding leaves the core
    // to the serving threads when they need it, and the fine polling keeps
    // completion times exact to a few microseconds.
    Clock::time_point now;
    while ((now = Clock::now()) < due) {
      poll();
      std::this_thread::yield();
    }
    s.late_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due).count());
    const int sample = static_cast<int>(
        (sample_offset + static_cast<std::uint64_t>(i) * 7919u) %
        static_cast<std::uint64_t>(n_samples));
    if (server.try_submit(sample)) {
      due_acc.push_back(due);
      submit_acc.push_back(now);
    } else {
      ++s.shed;
    }
    poll();
  }
  const auto offer_end = Clock::now();
  s.offered = n;
  s.accepted = static_cast<std::int64_t>(due_acc.size());
  s.backlog_at_end = s.accepted - static_cast<std::int64_t>(done.size());
  s.served_per_s = static_cast<double>(done.size()) /
                   std::chrono::duration<double>(offer_end - t0).count();
  while (static_cast<std::int64_t>(done.size()) < s.accepted) {
    poll();
    std::this_thread::yield();
  }
  for (std::size_t k = 0; k < done.size(); ++k) {
    s.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done[k] - due_acc[k])
            .count());
    s.server_ms.push_back(
        std::chrono::duration<double, std::milli>(done[k] - submit_acc[k])
            .count());
  }
  return s;
}

struct Inputs {
  const models::ModelSpec* spec = nullptr;
  const nn::ModelState* state = nullptr;
  const data::SplitDataset* data = nullptr;
  std::vector<nn::WeightBitRef> plan;
};

struct Session {
  std::vector<Step> steps;
  double served_accuracy = 0.0;
  std::int64_t served = 0;
  std::vector<double> publish_ms;
  std::int64_t detect_rounds = -1;
  defense::online::GuardStats guard;
  std::int64_t batches = 0;
};

/// One guarded serving session over the whole ladder.  `metrics` (may be
/// null) binds the server's and the guard's telemetry.
Session run_session(const Options& opt, const Inputs& in, double seconds,
                    rp::telemetry::MetricsRegistry* metrics,
                    rp::telemetry::TraceCollector* trace, Report* gates) {
  serve::SharedModel shared(*in.spec, *in.state);
  serve::InferenceServer server(shared, in.data->test, server_config(),
                                metrics);
  server.start();

  if (gates) {
    // Served accuracy on pristine weights must equal the offline
    // reference bit for bit: batching never changes a row's result.
    const auto idx =
        rp::attack::strided_eval_indices(256, in.data->test.size());
    const serve::ServeStats before = server.stats();
    for (const int i : idx) server.submit(i);
    server.drain();
    const serve::ServeStats after = server.stats();
    const double served_acc =
        static_cast<double>(after.correct - before.correct) /
        static_cast<double>(after.served - before.served);
    serve::ModelReplica replica(*in.spec);
    replica.set_int8(true);
    const auto pinned = shared.pin();
    const double offline = rp::attack::subset_accuracy(
        replica.at(*pinned), in.data->test, idx);
    if (served_acc != offline)
      fail_gate("serve_pristine_accuracy",
                "served " + std::to_string(served_acc) + " != offline " +
                    std::to_string(offline));
    gates->gate_ok("serve_pristine_accuracy",
                   "served == subset_accuracy == " +
                       std::to_string(offline));
  }

  defense::online::IntegrityGuard guard(
      shared, defense::online::make_policy("rollback"), in.data->train,
      guard_config(), nullptr, &server, nullptr, metrics);
  guard.start();

  Session out;
  std::atomic<bool> stop{false};
  std::int64_t first_flip_round = -1;
  std::thread injector([&] {
    for (std::size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
      std::this_thread::sleep_for(kFlipInterval);
      if (stop.load(std::memory_order_acquire)) break;
      if (first_flip_round < 0) first_flip_round = guard.stats().rounds;
      rp::telemetry::Span span(trace, "serve.publish", "serve");
      const auto t0 = Clock::now();
      shared.apply_bit_flip(in.plan[k % in.plan.size()]);
      out.publish_ms.push_back(ms_since(t0));
    }
  });

  const serve::ServeStats before = server.stats();
  // Step lengths: the nominal step gets three shares, the saturation step
  // two, the others one.
  const double share = seconds / static_cast<double>(kLadder.size() + 3);
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const double rate = kLadder[i];
    rp::telemetry::Span span(trace, "serve.step." + std::to_string(int(rate)),
                             "serve");
    out.steps.push_back(run_step(server, rate,
                                 rate == kNominalRps       ? 3 * share
                                 : i + 1 == kLadder.size() ? 2 * share
                                                           : share,
                                 opt.seed * 1009 + i));
  }
  const serve::ServeStats after = server.stats();
  stop.store(true, std::memory_order_release);
  injector.join();
  guard.stop();
  server.stop();

  out.served = after.served - before.served;
  out.served_accuracy = static_cast<double>(after.correct - before.correct) /
                        static_cast<double>(out.served);
  out.guard = guard.stats();
  out.batches = after.batches - before.batches;
  if (out.guard.first_detection_round >= 0 && first_flip_round >= 0)
    out.detect_rounds = out.guard.first_detection_round - first_flip_round;
  return out;
}

const Step& nominal_step(const Session& s) {
  for (const auto& st : s.steps)
    if (st.rate == kNominalRps) return st;
  return s.steps.front();
}

void print_ladder(const Session& s) {
  std::printf("%8s %8s %6s %9s %9s %9s %8s %s\n", "rate", "offered", "shed",
              "p50_ms", "p99_ms", "served/s", "late99", "verdict");
  for (const auto& st : s.steps)
    std::printf("%8.0f %8lld %6lld %9.3f %9.3f %9.0f %8.3f %s\n", st.rate,
                static_cast<long long>(st.offered),
                static_cast<long long>(st.shed), st.latency_q(0.5),
                st.latency_q(0.99), st.served_per_s,
                quantile(st.late_ms, 0.99),
                !st.valid() ? "INVALID (generator lag)"
                            : st.meets_slo() ? "meets SLO" : "misses SLO");
}

}  // namespace

void run_serve_workload(const Options& opt, Report& report) {
  const auto zoo = rp::models::model_zoo();
  const auto& spec = rp::models::find_model(zoo, kModel);

  std::vector<SetupTimes> reps(kSetupReps);
  Warm warm;
  Inputs in;
  for (auto& r : reps) {
    warm = warm_setup(opt, {kModel}, true, &r);
    // The served model's own quantization counts with the others.
    auto t0 = Clock::now();
    { serve::SharedModel probe(spec, warm.models.at(kModel).state); }
    r.quantize_ms += ms_since(t0);

    // Offline plan: greedy RowPress attack on an identical replica.  The
    // plan is the same for every seed: different plans flip different
    // layers, which changes the cost of every publish and rollback, and
    // the seed should vary the request stream, not the served work.
    t0 = Clock::now();
    rp::search::SearchRunSetup setup;
    setup.base.bfa.max_flips = kPlanFlips;
    setup.base.seed = kPlanSeed;
    const auto plan = rp::search::run_profile_attack(
        spec, warm.models.at(kModel).state, warm.datasets.at(spec.dataset),
        warm.profiles.rowpress, rp::exp::default_chip_config().geometry,
        setup);
    r.plan_ms = ms_since(t0);
    in.plan.clear();
    for (const auto& f : plan.flips) in.plan.push_back(f.ref);
  }
  report_setup(reps, report);
  if (in.plan.empty()) fail_gate("serve_plan", "offline plan has no flips");
  in.spec = &spec;
  in.state = &warm.models.at(kModel).state;
  in.data = &warm.datasets.at(spec.dataset);

  const double budget = opt.seconds;
  rp::telemetry::MetricsRegistry reg;
  rp::telemetry::TraceCollector tc;
  const Session s = run_session(opt, in, opt.trace ? budget / 2 : budget,
                                nullptr, nullptr, &report);
  print_ladder(s);

  const Step& nom = nominal_step(s);
  if (!nom.valid())
    fail_gate("generator_lag",
              "p99 lag " + std::to_string(quantile(nom.late_ms, 0.99)) +
                  " ms at the nominal rate");
  report.gate_ok("generator_lag", "nominal step p99 lag " +
                                      std::to_string(quantile(nom.late_ms, 0.99)) +
                                      " ms");
  double max_rps = 0.0;
  for (const auto& st : s.steps)
    if (st.meets_slo()) max_rps = std::max(max_rps, st.rate);
  const double capacity = s.steps.back().served_per_s;
  std::int64_t in_slo = 0;
  for (const double l : nom.latency_ms) in_slo += l <= kSloMs ? 1 : 0;
  const auto n_nom = nom.offered;

  report.attempted = nom.offered;
  report.failed = nom.shed;
  report.e2e("p50_ms", nom.latency_q(0.5), "ms", n_nom);
  report.e2e("p99_ms", nom.latency_q(0.99), "ms", n_nom);
  report.e2e("max_rps_at_slo", max_rps, "1/s",
             static_cast<std::int64_t>(s.steps.size()));
  report.e2e("served_accuracy", s.served_accuracy, "ratio", s.served);
  report.e2e("fail_frac",
             static_cast<double>(nom.shed) / static_cast<double>(n_nom),
             "ratio", n_nom);
  report.contract("throughput_per_s", capacity, "1/s");
  report.contract("latency_ms", nom.latency_q(0.5), "ms");
  report.contract("tail_ms", nom.latency_q(0.9), "ms");
  report.contract("ok_frac",
                  static_cast<double>(in_slo) / static_cast<double>(n_nom),
                  "ratio");
  if (!opt.trace) return;

  // Traced session: the same ladder with telemetry bound and spans kept.
  const Session t = run_session(opt, in, budget / 2, &reg, &tc, nullptr);
  const auto snap = reg.snapshot();
  const Step& tnom = nominal_step(t);
  report.layer("trace.overhead_frac",
               tnom.latency_q(0.5) / nom.latency_q(0.5) - 1.0, "ratio");
  const auto* fwd = snap.histogram("serve.forward_ms");
  const double fwd_mean = fwd ? fwd->mean() : 0.0;
  std::vector<double> wait;
  for (const double v : tnom.server_ms) wait.push_back(std::max(0.0, v - fwd_mean));
  report.layer("serve.queue_wait_ms.p99", quantile(wait, 0.99), "ms");
  if (const auto* h = snap.histogram("serve.batch_size"))
    report.layer("serve.batch_size.mean", h->mean(), "count");
  report.layer("serve.forward_ms.p99", fwd ? fwd->quantile(0.99) : 0.0, "ms");
  report.layer("serve.publish_ms", t.publish_ms.empty() ? 0.0 : median(t.publish_ms),
               "ms");
  std::vector<double> late;
  for (const auto& st : t.steps)
    late.insert(late.end(), st.late_ms.begin(), st.late_ms.end());
  report.layer("serve.gen_late_ms.p99", quantile(late, 0.99), "ms");
  // The guard's *_ms histograms are fed by telemetry::ScopedTimer, which
  // records nanoseconds.
  if (const auto* h = snap.histogram("defense.online.scrub_ms"))
    report.layer("guard.scrub_ms", h->mean() / 1e6, "ms");
  if (const auto* h = snap.histogram("defense.online.canary_ms"))
    report.layer("guard.canary_ms", h->mean() / 1e6, "ms");
  report.layer("guard.rounds", static_cast<double>(t.guard.rounds), "count");
  report.layer("guard.rollbacks", static_cast<double>(t.guard.rollbacks),
               "count");
  report.layer("guard.detect_rounds", static_cast<double>(t.detect_rounds),
               "count");

  // Forward-only probe on a serving batch; kernel totals are the probe's
  // per-forward cost times the batches the traced session served.
  ProbeConfig pc;
  pc.batch = server_config().max_batch;
  pc.int8 = true;
  pc.backward = false;
  const ProbeResult p = probe_family(spec, *in.state, *in.data, pc, &tc);
  report_probe_layers(kModel, p, report);
  const double batches = static_cast<double>(t.batches);
  report.layer("kernels.gemm_calls", p.gemm_calls * batches, "count");
  report.layer("kernels.gemm_ms", p.gemm_ms * batches, "ms");
  report.layer("kernels.qgemm_calls", p.qgemm_calls * batches, "count");
  report.layer("kernels.qgemm_ms", p.qgemm_ms * batches, "ms");
  report.layer("quant.edge_ms", p.edge_ms, "ms");
  write_trace(opt, tc);
}

}  // namespace perfbench
