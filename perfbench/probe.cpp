// Per-layer probe of the traced run.  Times each top-level child of a
// family's Sequential from the outside (forward and backward on the attack
// batch), the int8 edges around qgemm, and one call of each public entry
// point the BFA stages are made of: the gradient pass, Sequential::
// forward_from (inter-layer replay) and IncrementalEvaluator::from_child
// (accuracy evaluation).  Kernel time comes from the kernels.gemm_ns /
// kernels.qgemm_ns histograms bound to this thread.
#include <algorithm>
#include <set>

#include "attack/eval.h"
#include "attack/runner.h"
#include "bench.h"
#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "nn/loss.h"
#include "telemetry/registry.h"

namespace perfbench {

namespace {

constexpr int kReps = 5;  ///< timed repetitions per call (median kept)

struct KernelTotals {
  double gemm_calls = 0.0, gemm_ms = 0.0, qgemm_calls = 0.0, qgemm_ms = 0.0;
};

KernelTotals kernel_totals(const rp::telemetry::MetricsRegistry& reg) {
  const auto snap = reg.snapshot();
  KernelTotals k;
  if (const auto* h = snap.histogram("kernels.gemm_ns")) {
    k.gemm_calls = static_cast<double>(h->count);
    k.gemm_ms = h->sum / 1e6;
  }
  if (const auto* h = snap.histogram("kernels.qgemm_ns")) {
    k.qgemm_calls = static_cast<double>(h->count);
    k.qgemm_ms = h->sum / 1e6;
  }
  return k;
}

/// Per-child forward timings of one execution mode (median over reps).
struct ChildTimes {
  std::vector<double> fwd_ms, bwd_ms, gemm_ms, qgemm_ms;
  std::vector<double> gemm_calls, qgemm_calls;
};

ChildTimes time_children(rp::nn::Sequential& seq, const rp::nn::Tensor& in,
                         const std::vector<int>& labels, bool backward,
                         rp::telemetry::MetricsRegistry& reg,
                         rp::telemetry::TraceCollector* trace) {
  const std::size_t n = seq.size();
  std::vector<std::vector<double>> fwd(n), bwd(n), gms(n), qms(n);
  ChildTimes out;
  out.gemm_calls.assign(n, 0.0);
  out.qgemm_calls.assign(n, 0.0);
  rp::nn::CrossEntropyLoss ce;
  for (int r = 0; r < kReps; ++r) {
    rp::nn::Tensor x = in;
    for (std::size_t i = 0; i < n; ++i) {
      const KernelTotals before = kernel_totals(reg);
      rp::telemetry::Span span(trace, "nn.fwd." + seq.child(i).name(), "nn");
      const auto t0 = Clock::now();
      x = seq.child(i).forward(x);
      fwd[i].push_back(ms_since(t0));
      span.finish();
      const KernelTotals after = kernel_totals(reg);
      gms[i].push_back(after.gemm_ms - before.gemm_ms);
      qms[i].push_back(after.qgemm_ms - before.qgemm_ms);
      out.gemm_calls[i] = after.gemm_calls - before.gemm_calls;
      out.qgemm_calls[i] = after.qgemm_calls - before.qgemm_calls;
    }
    if (!backward) continue;
    ce.forward(x, labels);
    rp::nn::Tensor g = ce.backward();
    for (std::size_t i = n; i-- > 0;) {
      rp::telemetry::Span span(trace, "nn.bwd." + seq.child(i).name(), "nn");
      const auto t0 = Clock::now();
      g = seq.child(i).backward(g);
      bwd[i].push_back(ms_since(t0));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.fwd_ms.push_back(median(fwd[i]));
    out.bwd_ms.push_back(backward ? median(bwd[i]) : 0.0);
    out.gemm_ms.push_back(median(gms[i]));
    out.qgemm_ms.push_back(median(qms[i]));
  }
  return out;
}

}  // namespace

ProbeResult probe_family(const rp::models::ModelSpec& spec,
                         const rp::nn::ModelState& trained,
                         const rp::data::SplitDataset& data,
                         const ProbeConfig& cfg,
                         rp::telemetry::TraceCollector* trace) {
  rp::telemetry::Span probe_span(trace, "probe/" + spec.name, "probe");
  rp::Rng init_rng(0x9e0be);
  auto replica = rp::attack::make_quantized_replica(spec, trained, init_rng);
  auto* seq = dynamic_cast<rp::nn::Sequential*>(replica.model.get());
  RP_REQUIRE(seq != nullptr, spec.name + " is not a flat Sequential");
  replica.model->set_training(false);

  const auto idx = rp::attack::strided_eval_indices(cfg.batch, data.test.size());
  const rp::nn::Tensor inputs = rp::data::gather_inputs(data.test, idx);
  const std::vector<int> labels = rp::data::gather_labels(data.test, idx);

  rp::telemetry::MetricsRegistry reg;
  rp::nn::kernels::ScopedBindMetrics bind(&reg);
  ProbeResult out;

  replica.qmodel->set_int8_execution(cfg.int8);
  const ChildTimes t =
      time_children(*seq, inputs, labels, cfg.backward, reg, trace);
  for (std::size_t i = 0; i < seq->size(); ++i) {
    const std::string kind = seq->child(i).name();
    out.fwd_ms[kind] += t.fwd_ms[i];
    out.bwd_ms[kind] += t.bwd_ms[i];
    out.gemm_calls += t.gemm_calls[i];
    out.gemm_ms += t.gemm_ms[i];
    out.qgemm_calls += t.qgemm_calls[i];
    out.qgemm_ms += t.qgemm_ms[i];
  }

  if (cfg.int8) {
    // The int8 edges (activation quantization, requantization) are what an
    // int8 child spends outside qgemm beyond the float child's non-GEMM
    // time: (int8 fwd - qgemm) - (float fwd - gemm), over children that
    // run qgemm.
    replica.qmodel->set_int8_execution(false);
    const ChildTimes f =
        time_children(*seq, inputs, labels, false, reg, nullptr);
    replica.qmodel->set_int8_execution(true);
    for (std::size_t i = 0; i < seq->size(); ++i) {
      if (t.qgemm_calls[i] <= 0.0) continue;
      const double int8_rest = t.fwd_ms[i] - t.qgemm_ms[i] - t.gemm_ms[i];
      const double float_rest = f.fwd_ms[i] - f.gemm_ms[i];
      out.edge_ms += std::max(0.0, int8_rest - float_rest);
    }
  }
  if (!cfg.backward) return out;

  // BFA stage unit costs.
  rp::nn::CrossEntropyLoss ce;
  std::vector<double> grad;
  seq->set_capture_activations(true);
  for (int r = 0; r < kReps; ++r) {
    rp::telemetry::Span span(trace, "probe.grad", "stage");
    const auto t0 = Clock::now();
    replica.model->zero_grad();
    ce.forward(replica.model->forward(inputs), labels);
    replica.model->backward(ce.backward());
    grad.push_back(ms_since(t0));
  }
  out.grad_ms = median(grad);

  const auto child_of =
      rp::attack::map_qparams_to_children(*replica.model, *replica.qmodel);
  const std::set<int> starts(child_of.begin(), child_of.end());
  std::vector<double> replay;
  for (const int c : starts) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      rp::telemetry::Span span(trace, "probe.replay", "stage");
      const auto t0 = Clock::now();
      ce.forward(seq->forward_from(static_cast<std::size_t>(c)), labels);
      reps.push_back(ms_since(t0));
    }
    replay.push_back(median(reps));
  }
  seq->set_capture_activations(false);
  double replay_sum = 0.0;
  for (const double v : replay) replay_sum += v;
  out.replay_ms = replay.empty() ? 0.0 : replay_sum / replay.size();

  rp::attack::IncrementalEvaluator ev(
      *seq, data.test,
      rp::attack::strided_eval_indices(cfg.eval_samples, data.test.size()));
  ev.full();
  double eval_sum = 0.0;
  for (const int c : starts) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      rp::telemetry::Span span(trace, "probe.eval", "stage");
      const auto t0 = Clock::now();
      ev.from_child(static_cast<std::size_t>(c));
      reps.push_back(ms_since(t0));
    }
    eval_sum += median(reps);
  }
  out.eval_ms = starts.empty() ? 0.0 : eval_sum / starts.size();
  return out;
}

void report_probe_layers(const std::string& family, const ProbeResult& p,
                         Report& report) {
  for (const auto& [kind, ms] : p.fwd_ms)
    report.layer("nn.fwd_ms." + family + "." + kind, ms, "ms");
  for (const auto& [kind, ms] : p.bwd_ms)
    report.layer("nn.bwd_ms." + family + "." + kind, ms, "ms");
}

}  // namespace perfbench
