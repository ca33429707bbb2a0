// Campaign workloads: campaign-float, campaign-int8 and search-bnb.  Each
// repeats one seeded Table-I grid through runtime::run_campaign until the
// run's time is up; every repetition ("pass") executes the same trials, so
// their outcome digests must agree and their timings give medians.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "attack/runner.h"
#include "bench.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "runtime/campaign.h"
#include "search/runner.h"
#include "telemetry/registry.h"

namespace perfbench {

namespace {

using rp::runtime::AttackProfile;
using rp::runtime::TrialResult;

struct Grid {
  std::vector<std::string> models;
  std::vector<AttackProfile> profiles;
  int seeds_per_cell = 1;
  int workers = 4;
  rp::attack::BfaConfig bfa;
  rp::search::SearchConfig search;
};

// Table-I grid with a flip budget the objective is never reached within,
// so every trial does the same number of BFA iterations whatever the seed.
Grid campaign_grid(bool int8) {
  Grid g;
  g.models = families();
  g.profiles = {AttackProfile::kRowHammer, AttackProfile::kRowPress};
  g.seeds_per_cell = 4;
  g.workers = 3;
  g.bfa.max_flips = 5;
  g.bfa.int8_eval = int8;
  return g;
}

// B&B seeded with the greedy incumbent on M11, whose unconstrained greedy
// chain reaches the objective in a handful of flips, so the bound prunes
// and goal nodes fire.  One trial at a time, expanded on 3 search threads.
Grid search_grid() {
  Grid g;
  g.models = {"M11"};
  g.profiles = {AttackProfile::kUnconstrained};
  g.seeds_per_cell = 10;
  g.workers = 1;
  g.bfa.max_flips = 40;
  g.search.kind = rp::search::SearchKind::kBranchAndBound;
  g.search.max_nodes = 12;
  g.search.branch = 6;
  g.search.threads = 3;
  g.search.time_budget_ms = 0;
  return g;
}

rp::runtime::CampaignSpec make_spec(const Options& opt, const Grid& g,
                                    const std::string& name, const Warm& warm) {
  rp::runtime::CampaignSpec spec;
  spec.name = name;
  spec.models = g.models;
  spec.profiles = g.profiles;
  spec.seeds_per_cell = g.seeds_per_cell;
  spec.campaign_seed = rp::Rng::derive_stream(opt.seed, 0x7ab1e1);
  spec.model_seed = 1;
  spec.bfa = g.bfa;
  spec.search = g.search;
  spec.device = rp::exp::default_chip_config();
  spec.cache_dir = opt.cache_dir();
  spec.journal_dir = opt.out_dir + "/journals";
  spec.workers = g.workers;
  spec.progress_interval_s = 0.0;
  spec.max_retries = 0;
  spec.dataset_factory = [&warm](rp::models::DatasetKind k) {
    return warm.datasets.at(k);
  };
  return spec;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<TrialResult> trials;
};

Pass run_pass(const rp::runtime::CampaignSpec& spec) {
  // A fresh journal each pass: a resumed campaign would skip the trials.
  std::filesystem::remove(rp::runtime::journal_path(spec));
  const auto t0 = Clock::now();
  auto result = rp::runtime::run_campaign(spec);
  Pass p;
  p.wall_s = s_since(t0);
  p.trials = std::move(result.results);
  return p;
}

// Digest of everything deterministic a trial produced: its flip count,
// accuracy before/after and after every flip (which pins the chain), and
// its work counters.
std::uint32_t outcome_digest(const TrialResult& r) {
  const std::string head =
      r.trial.id() + "|" + rp::runtime::trial_status_name(r.status) + "|" +
      std::to_string(r.flips) + "|" + (r.objective_reached ? "1" : "0");
  std::uint32_t crc = rp::crc32(head);
  crc = rp::crc32(&r.accuracy_before, sizeof r.accuracy_before, crc);
  crc = rp::crc32(&r.accuracy_after, sizeof r.accuracy_after, crc);
  for (const double a : r.accuracy_curve) crc = rp::crc32(&a, sizeof a, crc);
  for (const auto& [name, v] : r.metrics) {
    crc = rp::crc32(name, crc);
    crc = rp::crc32(&v, sizeof v, crc);
  }
  return crc;
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::int64_t counter_of(const TrialResult& t, const std::string& name) {
  for (const auto& [n, v] : t.metrics)
    if (n == name) return v;
  return 0;
}

/// Search steps of a trial: greedy BFA iterations plus B&B node
/// expansions.  A step is the unit of search work (one gradient pass and
/// its candidate evaluations, or one node's candidate evaluations), so
/// time per step does not depend on how many steps a seed happens to need.
double trial_steps(const TrialResult& t) {
  return static_cast<double>(counter_of(t, "attack.iterations") +
                             counter_of(t, "search.nodes_expanded"));
}

double step_ms(const TrialResult& t) {
  return t.wall_seconds * 1000.0 / std::max(1.0, trial_steps(t));
}

/// Timing summary of one pass.
struct PassStats {
  double trials_per_s = 0.0;
  double steps_per_s = 0.0;
  double busy_frac = 0.0;
  std::map<std::string, double> family_s;
};

PassStats pass_stats(const Pass& p, int workers) {
  PassStats s;
  double sum = 0.0, steps = 0.0;
  for (const auto& t : p.trials) {
    sum += t.wall_seconds;
    steps += trial_steps(t);
    s.family_s[t.trial.model] += t.wall_seconds;
  }
  const double n = static_cast<double>(p.trials.size());
  s.trials_per_s = n / p.wall_s;
  s.steps_per_s = steps / p.wall_s;
  const double lanes = std::min<double>(workers, n);
  s.busy_frac = sum / (lanes * p.wall_s);
  return s;
}

/// Runs passes until `budget_s` has elapsed (at least one).
void run_passes(const rp::runtime::CampaignSpec& spec, double budget_s,
                std::vector<Pass>& out) {
  const auto t0 = Clock::now();
  do {
    out.push_back(run_pass(spec));
    const Pass& p = out.back();
    std::printf("pass %zu%s: %zu trials in %.3f s\n", out.size() - 1,
                spec.trace ? " (traced)" : "", p.trials.size(), p.wall_s);
  } while (s_since(t0) < budget_s);
}

/// Gates shared by every campaign workload: each trial ok, and every
/// other pass reproduces the first pass's outcome digests.  When only one
/// pass fit in the run, its first two trials are run again (a filtered
/// campaign keeps trial indices and seeds, so they are the same trials).
void check_passes(const rp::runtime::CampaignSpec& spec,
                  const std::vector<Pass>& passes, Report& report) {
  std::vector<Pass> repeats(passes.begin() + 1, passes.end());
  if (repeats.empty()) {
    auto subset = spec;
    subset.trial_filter = [](const rp::runtime::Trial& t) {
      return t.index < 2;
    };
    repeats.push_back(run_pass(subset));
  }
  const Pass& first = passes.front();
  std::int64_t compared = 0;
  const std::vector<Pass>& repeated = repeats;
  for (const std::vector<Pass>* group : {&passes, &repeated})
    for (const auto& p : *group)
      for (const auto& t : p.trials) {
        if (t.status == rp::runtime::TrialStatus::kNotRun) continue;
        ++report.attempted;
        if (!t.succeeded()) {
          ++report.failed;
          fail_gate("trial_status",
                    t.trial.id() + " ended " +
                        rp::runtime::trial_status_name(t.status) + ": " +
                        t.error_message);
        }
      }
  for (const auto& t : first.trials)
    std::printf("digest %-28s %s\n", t.trial.id().c_str(),
                hex(outcome_digest(t)).c_str());
  for (std::size_t i = 0; i < repeats.size(); ++i)
    for (std::size_t j = 0; j < first.trials.size(); ++j) {
      const TrialResult& t = repeats[i].trials[j];
      if (t.status == rp::runtime::TrialStatus::kNotRun) continue;
      ++compared;
      if (outcome_digest(t) != outcome_digest(first.trials[j]))
        fail_gate("digest_repeat", t.trial.id() + " repeat " +
                                       std::to_string(i + 1) +
                                       " differs from pass 0");
    }
  report.gate_ok("trial_status", std::to_string(report.attempted) +
                                     " trials ok");
  report.gate_ok("digest_repeat", std::to_string(compared) +
                                      " repeated trials match pass 0");
}

/// End-to-end metrics of a campaign workload, from untraced passes.
void report_e2e(const Grid& g, const std::vector<Pass>& passes,
                Report& report) {
  std::vector<double> tps, sps;
  std::map<std::string, std::vector<double>> fam, fam_ms;
  for (const auto& p : passes) {
    const PassStats s = pass_stats(p, g.workers);
    tps.push_back(s.trials_per_s);
    sps.push_back(s.steps_per_s);
    for (const auto& t : p.trials) fam_ms[t.trial.model].push_back(step_ms(t));
    for (const auto& [m, v] : s.family_s) fam[m].push_back(v);
  }
  double flips = 0.0;
  for (const auto& t : passes.front().trials) flips += t.flips;
  const auto n_trials =
      static_cast<std::int64_t>(passes.size() * passes.front().trials.size());
  const auto n_passes = static_cast<std::int64_t>(passes.size());
  const double flips_mean =
      flips / static_cast<double>(passes.front().trials.size());

  report.e2e("trials_per_s", median(tps), "1/s", n_passes);
  for (const auto& m : g.models)
    report.e2e("trial_s." + m, median(fam[m]), "s", n_passes);
  report.e2e("flips_mean", flips_mean, "count",
             static_cast<std::int64_t>(passes.front().trials.size()));
  report.e2e("fail_frac", 0.0, "ratio", n_trials);

  report.contract("throughput_per_s", median(sps), "1/s");
  // Per-family medians keep the first trials of a pass, which wait on
  // run_campaign's shared model and profile load, from setting the figure
  // (fewer than half of any family's trials start before the load ends).
  double latency = 0.0, slowest = 0.0;
  for (const auto& [m, v] : fam_ms) {
    latency += median(v);
    slowest = std::max(slowest, median(v));
  }
  report.contract("latency_ms", latency / static_cast<double>(fam_ms.size()),
                  "ms");
  report.contract("tail_ms", slowest, "ms");
  report.contract("ok_frac", 1.0, "ratio");
}

/// Per-family sums of a trial counter over `passes`, per pass.
std::map<std::string, double> family_counter(const std::vector<Pass>& passes,
                                             const std::string& counter) {
  std::map<std::string, double> out;
  for (const auto& p : passes)
    for (const auto& t : p.trials)
      for (const auto& [name, v] : t.metrics)
        if (name == counter)
          out[t.trial.model] +=
              static_cast<double>(v) / static_cast<double>(passes.size());
  return out;
}

double span_ms(const std::vector<rp::telemetry::TraceEvent>& events,
               const std::string& name) {
  double ns = 0.0;
  for (const auto& e : events)
    if (e.name == name) ns += static_cast<double>(e.dur_ns);
  return ns / 1e6;
}

/// The traced half of a run: counters and spans of the traced passes,
/// kernel time of one directly-run trial per family, and the per-layer
/// probe, folded into the per-layer metrics.
void report_layers(const Grid& g, const Warm& warm,
                   const rp::runtime::CampaignSpec& traced_spec,
                   const std::vector<Pass>& untraced,
                   const std::vector<Pass>& traced,
                   rp::telemetry::MetricsRegistry& reg,
                   rp::telemetry::TraceCollector& tc, Report& report) {
  const auto snap = reg.snapshot();
  const double np = static_cast<double>(traced.size());
  auto per_pass = [&](const std::string& c) {
    return static_cast<double>(snap.counter_or(c)) / np;
  };
  report.layer("bfa.iterations", per_pass("attack.iterations"), "count");
  report.layer("bfa.forward_passes", per_pass("attack.forward_passes"),
               "count");
  report.layer("bfa.suffix_passes", per_pass("attack.suffix_forward_passes"),
               "count");
  report.layer("bfa.bits_evaluated", per_pass("attack.bits_evaluated"),
               "count");
  report.layer("bfa.layer_trials", per_pass("attack.layer_trials"), "count");
  const double expanded = per_pass("search.nodes_expanded");
  const double pruned = per_pass("search.nodes_pruned");
  report.layer("search.nodes_expanded", expanded, "count");
  report.layer("search.nodes_pruned", pruned, "count");
  report.layer("search.cache_hits", per_pass("search.cache_hits"), "count");
  report.layer("search.goal_nodes", per_pass("search.goal_nodes"), "count");
  report.layer("search.prune_frac",
               expanded + pruned > 0 ? pruned / (expanded + pruned) : 0.0,
               "ratio");

  const auto events = tc.events();
  const double iteration_ms = span_ms(events, "bfa.iteration") / np;
  report.layer("bfa.iteration_ms", iteration_ms, "ms");
  report.layer("search.expand_ms", span_ms(events, "search.expand") / np,
               "ms");

  std::vector<double> busy, traced_wall, untraced_wall;
  for (const auto& p : traced) {
    busy.push_back(pass_stats(p, g.workers).busy_frac);
    traced_wall.push_back(p.wall_s);
  }
  for (const auto& p : untraced) untraced_wall.push_back(p.wall_s);
  report.layer("runtime.worker_busy_frac", median(busy), "ratio");
  report.layer("trace.overhead_frac",
               median(traced_wall) / median(untraced_wall) - 1.0, "ratio");

  // Kernel time: one trial per family run directly on this thread, where
  // the attack runner binds kernels::ScopedBindMetrics to our registry.
  const auto zoo = rp::models::model_zoo();
  const auto trials = rp::runtime::expand_trials(traced_spec);
  rp::telemetry::MetricsRegistry kreg;
  const rp::dram::Geometry geom = rp::exp::default_chip_config().geometry;
  for (const auto& t : trials) {
    if (t.seed_index != 0 || t.profile != g.profiles.front()) continue;
    const auto& spec = rp::models::find_model(zoo, t.model);
    rp::search::SearchRunSetup setup;
    setup.base.bfa = g.bfa;
    setup.base.seed = t.seed;
    setup.base.metrics = &kreg;
    setup.base.trace = &tc;
    setup.config = g.search;
    const auto& data = warm.datasets.at(spec.dataset);
    const auto& state = warm.models.at(t.model).state;
    rp::telemetry::Span span(&tc, "direct/" + t.id(), "trial");
    switch (t.profile) {
      case AttackProfile::kRowHammer:
        rp::search::run_profile_attack(spec, state, data,
                                       warm.profiles.rowhammer, geom, setup);
        break;
      case AttackProfile::kRowPress:
        rp::search::run_profile_attack(spec, state, data,
                                       warm.profiles.rowpress, geom, setup);
        break;
      case AttackProfile::kUnconstrained:
        rp::search::run_unconstrained_attack(spec, state, data, setup);
        break;
    }
  }
  const auto ksnap = kreg.snapshot();
  for (const char* k : {"gemm", "qgemm"}) {
    const auto* h = ksnap.histogram(std::string("kernels.") + k + "_ns");
    report.layer(std::string("kernels.") + k + "_calls",
                 h ? static_cast<double>(h->count) : 0.0, "count");
    report.layer(std::string("kernels.") + k + "_ms", h ? h->sum / 1e6 : 0.0,
                 "ms");
  }

  // Per-layer probe: per-kind child time and the unit cost of each BFA
  // stage, multiplied by the traced passes' per-family stage counts.
  const auto iters = family_counter(traced, "attack.iterations");
  const auto layer_trials = family_counter(traced, "attack.layer_trials");
  const auto flips = family_counter(traced, "attack.flips");
  double grad = 0.0, replay = 0.0, eval = 0.0, edge = 0.0;
  for (const auto& m : g.models) {
    const auto& spec = rp::models::find_model(zoo, m);
    ProbeConfig pc;
    pc.batch = g.bfa.attack_batch_size;
    pc.eval_samples = g.bfa.eval_samples;
    pc.int8 = g.bfa.int8_eval;
    const ProbeResult p = probe_family(
        spec, warm.models.at(m).state, warm.datasets.at(spec.dataset), pc,
        &tc);
    report_probe_layers(m, p, report);
    auto at = [](const std::map<std::string, double>& c, const std::string& k) {
      const auto it = c.find(k);
      return it == c.end() ? 0.0 : it->second;
    };
    grad += at(iters, m) * p.grad_ms;
    replay += at(layer_trials, m) * p.replay_ms;
    eval += at(flips, m) * p.eval_ms;
    edge += p.edge_ms;
  }
  report.layer("bfa.grad_ms", grad, "ms");
  report.layer("bfa.replay_ms", replay, "ms");
  report.layer("bfa.eval_ms", eval, "ms");
  report.layer("bfa.rank_ms",
               std::max(0.0, iteration_ms - grad - replay - eval), "ms");
  report.layer("quant.edge_ms", edge, "ms");
}

/// Runs any of the three campaign workloads.  `after` runs once the
/// passes are done (search-bnb's greedy comparison).
template <typename After>
void run_grid(const Options& opt, const Grid& g, Report& report,
              After&& after) {
  std::vector<SetupTimes> reps(kSetupReps);
  Warm warm;
  for (auto& r : reps) warm = warm_setup(opt, g.models, g.bfa.int8_eval, &r);
  report_setup(reps, report);

  const auto spec = make_spec(opt, g, opt.workload, warm);
  std::vector<Pass> untraced, traced;
  if (!opt.trace) {
    run_passes(spec, opt.seconds, untraced);
    check_passes(spec, untraced, report);
    report_e2e(g, untraced, report);
    after(spec, untraced);
    return;
  }

  // Traced run: half the time untraced (the reference for the overhead),
  // half with the registry and the trace collector bound.
  rp::telemetry::MetricsRegistry reg;
  rp::telemetry::TraceCollector tc;
  auto traced_spec = spec;
  traced_spec.metrics = &reg;
  traced_spec.trace = &tc;
  run_passes(spec, opt.seconds / 2, untraced);
  run_passes(traced_spec, opt.seconds / 2, traced);
  std::vector<Pass> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  check_passes(spec, all, report);
  report_e2e(g, untraced, report);
  after(spec, untraced);
  report_layers(g, warm, traced_spec, untraced, traced, reg, tc, report);
  write_trace(opt, tc);
}

}  // namespace

void run_campaign_workload(const Options& opt, Report& report) {
  const Grid g = campaign_grid(opt.workload == "campaign-int8");
  run_grid(opt, g, report, [](auto&&...) {});
}

void run_search_workload(const Options& opt, Report& report) {
  const Grid g = search_grid();
  run_grid(opt, g, report,
           [&](const rp::runtime::CampaignSpec& spec,
               const std::vector<Pass>& passes) {
             // Greedy reference on the same trials: B&B is seeded with the
             // greedy chain, so it may never return a longer one.
             auto greedy_spec = spec;
             greedy_spec.name = spec.name + "-greedy";
             greedy_spec.search.kind = rp::search::SearchKind::kGreedy;
             const Pass greedy = run_pass(greedy_spec);
             double greedy_s = 0.0, bnb_s = 0.0;
             const Pass& bnb = passes.front();
             for (std::size_t i = 0; i < bnb.trials.size(); ++i) {
               const auto& b = bnb.trials[i];
               const auto& gr = greedy.trials[i];
               if (!gr.succeeded())
                 fail_gate("trial_status", "greedy reference " +
                                               gr.trial.id() + ": " +
                                               gr.error_message);
               if (b.flips > gr.flips)
                 fail_gate("bnb_not_worse",
                           b.trial.id() + " bnb " + std::to_string(b.flips) +
                               " flips > greedy " + std::to_string(gr.flips));
               std::printf("bnb %-28s greedy %3d flips  bnb %3d flips\n",
                           b.trial.id().c_str(), gr.flips, b.flips);
               greedy_s += gr.wall_seconds;
               bnb_s += b.wall_seconds;
             }
             report.gate_ok("bnb_not_worse",
                            std::to_string(bnb.trials.size()) +
                                " trials, bnb flips <= greedy flips");
             if (opt.trace)
               report.layer("search.incumbent_frac", greedy_s / bnb_s,
                            "ratio");
           });
}

}  // namespace perfbench
