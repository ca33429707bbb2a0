#include "search/bnb.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/kernels/kernels.h"
#include "runtime/thread_pool.h"
#include "search/expand.h"
#include "search/frontier.h"

namespace rowpress::search {
namespace {

void bump(telemetry::Counter* c, std::int64_t n = 1) {
  if (c && n != 0) c->add(n);
}

}  // namespace

const char* search_kind_name(SearchKind k) {
  return k == SearchKind::kGreedy ? "greedy" : "bnb";
}

std::optional<SearchKind> search_kind_from_name(const std::string& name) {
  if (name == "greedy") return SearchKind::kGreedy;
  if (name == "bnb") return SearchKind::kBranchAndBound;
  return std::nullopt;
}

void BranchAndBoundSearch::bind_telemetry(telemetry::MetricsRegistry* metrics,
                                          telemetry::TraceCollector* trace) {
  metrics_ = metrics;
  if (metrics) {
    tel_.nodes_expanded = &metrics->counter("search.nodes_expanded");
    tel_.nodes_pruned = &metrics->counter("search.nodes_pruned");
    tel_.cache_hits = &metrics->counter("search.cache_hits");
    tel_.goal_nodes = &metrics->counter("search.goal_nodes");
    tel_.rounds = &metrics->counter("search.rounds");
    tel_.forward_passes = &metrics->counter("attack.forward_passes");
    tel_.suffix_forward_passes =
        &metrics->counter("attack.suffix_forward_passes");
    tel_.bits_evaluated = &metrics->counter("attack.bits_evaluated");
  } else {
    tel_ = Telemetry{};
  }
  trace_ = trace;
}

attack::AttackResult BranchAndBoundSearch::run(
    const ReplicaFactory& make_replica,
    const std::vector<attack::FeasibleBit>* feasible,
    const data::Dataset& attack_data, const data::Dataset& eval_data,
    const Objective& objective, std::uint64_t seed,
    const attack::AttackResult* incumbent) {
  stats_ = SearchStats{};
  const int threads = std::max(1, config_.threads);
  const int branch = std::max(1, config_.branch);

  // One private, identical replica per pool worker; expansions never share
  // model state, which is what makes parallel rounds trivially safe.
  const ExpandTelemetry etel{tel_.forward_passes, tel_.suffix_forward_passes,
                             tel_.bits_evaluated};
  std::vector<NodeExpander> expanders;
  expanders.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    expanders.emplace_back(make_replica(), bfa_, feasible, eval_data, etel);
  runtime::ThreadPool pool(threads);

  const double random_guess = eval_data.random_guess_accuracy();
  const double acc0 = expanders[0].root_accuracy();

  attack::AttackResult result;
  result.accuracy_before = acc0;
  result.accuracy_after = acc0;
  result.candidate_pool_size =
      feasible ? static_cast<std::int64_t>(feasible->size())
               : expanders[0].qmodel().total_weight_bytes() * 8;

  auto eval_state = [&](const SearchNode& n) {
    EvalState s;
    s.loss = n.loss;
    s.accuracy = n.accuracy;
    s.depth = n.depth;
    s.accuracy_before = acc0;
    s.random_guess = random_guess;
    return s;
  };

  auto root = std::make_shared<SearchNode>();
  root->accuracy = acc0;
  root->key_hash = hash_key(root->key);
  root->score = objective.score(eval_state(*root));
  root->bound = 1.0;
  if (objective.is_goal(eval_state(*root))) {
    result.objective_reached = true;
    return result;
  }

  // Incumbent: the chain length to strictly beat.  Without one (or with a
  // failed greedy probe) any goal chain within the flip budget wins.
  int incumbent_len = bfa_.max_flips + 1;
  const bool incumbent_reached = incumbent && incumbent->objective_reached;
  if (incumbent_reached)
    incumbent_len = std::min(incumbent_len, incumbent->num_flips());

  // Internal budgets are a normal stop (return the incumbent), unlike the
  // external token which aborts the trial by throwing.
  runtime::CancelToken budget;
  if (config_.time_budget_ms > 0)
    budget.set_deadline_after(std::chrono::milliseconds(config_.time_budget_ms));

  Frontier frontier(std::max<std::size_t>(1, config_.frontier_cap));
  TranspositionCache transposition;
  transposition.insert(root->key);
  frontier.insert(root);

  NodePtr best_goal;
  // Largest observed single-flip accuracy damage anywhere in the search —
  // the denominator of the flips-to-go estimate.  Grows monotonically in
  // deterministic merge order, so bounds are reproducible.
  double max_drop = 0.0;
  const double relax = std::max(1.0, config_.bound_relax);

  std::vector<NodePtr> batch;
  std::vector<std::vector<ChildEval>> child_results;
  while (!frontier.empty()) {
    if (cancel_) cancel_->check("search.round");
    if (budget.deadline_expired()) {
      stats_.budget_exhausted = true;
      break;
    }
    std::int64_t allowed =
        static_cast<std::int64_t>(std::max(1, config_.expand_batch));
    if (config_.max_nodes > 0)
      allowed = std::min(allowed, config_.max_nodes - stats_.nodes_expanded);
    if (allowed <= 0) {
      stats_.budget_exhausted = true;
      break;
    }

    batch.clear();
    while (static_cast<std::int64_t>(batch.size()) < allowed &&
           !frontier.empty()) {
      NodePtr n = frontier.pop_best();
      if (n->bound >= static_cast<double>(incumbent_len)) {
        // Bound-first ordering: everything still queued is at least as bad.
        const std::int64_t cut =
            1 + static_cast<std::int64_t>(frontier.size());
        stats_.nodes_pruned += cut;
        bump(tel_.nodes_pruned, cut);
        frontier.clear();
        break;
      }
      batch.push_back(std::move(n));
    }
    if (batch.empty()) break;

    stats_.rounds += 1;
    bump(tel_.rounds);
    child_results.assign(batch.size(), {});
    std::vector<std::future<void>> futs;
    futs.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      futs.push_back(pool.submit([&, i] {
        const int w = runtime::ThreadPool::worker_index();
        RP_ASSERT(w >= 0, "search expansion outside the pool");
        // Per-task binding: pool workers are not the trial thread, so the
        // kernel telemetry thread-local must be (re)bound here and must not
        // outlive the task (the registry is per-trial).
        nn::kernels::ScopedBindMetrics bind_kernels(metrics_);
        telemetry::Span span(trace_, "search.expand", "search");
        const SearchNode& n = *batch[i];
        child_results[i] = expanders[static_cast<std::size_t>(w)].expand(
            n, branch, Rng::derive_stream(seed, n.key_hash), attack_data);
        span.note("depth", static_cast<double>(n.depth));
        span.note("accuracy", n.accuracy);
        span.note("children",
                  static_cast<double>(child_results[i].size()));
      }));
    }
    // Join every expansion before touching results; rethrow after the round
    // is quiescent so an in-flight task can never outlive `child_results`.
    std::exception_ptr pending;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {
        if (!pending) pending = std::current_exception();
      }
    }
    if (pending) std::rethrow_exception(pending);

    // Deterministic merge: parents in pop order, children in rank order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const NodePtr& parent = batch[i];
      stats_.nodes_expanded += 1;
      bump(tel_.nodes_expanded);
      for (const ChildEval& c : child_results[i]) {
        auto key = extend_key(parent->key, pack_ref(c.ref));
        if (!transposition.insert(key)) {
          stats_.cache_hits += 1;
          bump(tel_.cache_hits);
          continue;
        }
        auto node = std::make_shared<SearchNode>();
        node->parent = parent;
        node->flip = c.ref;
        node->depth = parent->depth + 1;
        node->loss = c.loss;
        node->accuracy = c.accuracy;
        node->key = std::move(key);
        node->key_hash = hash_key(node->key);
        const EvalState st = eval_state(*node);
        node->score = objective.score(st);
        max_drop = std::max(max_drop, parent->accuracy - c.accuracy);
        if (objective.is_goal(st)) {
          stats_.goal_nodes += 1;
          bump(tel_.goal_nodes);
          if (node->depth < incumbent_len) {
            incumbent_len = node->depth;
            best_goal = node;
          }
          continue;  // terminal: goal chains are never extended
        }
        const double step = max_drop * relax;
        const double togo =
            step > 0.0 ? std::max(1.0, std::ceil(objective.remaining(st) /
                                                 step))
                       : 1.0;
        node->bound = static_cast<double>(node->depth) + togo;
        if (node->bound >= static_cast<double>(incumbent_len)) {
          stats_.nodes_pruned += 1;
          bump(tel_.nodes_pruned);
          continue;
        }
        const std::size_t evicted = frontier.insert(std::move(node));
        stats_.nodes_pruned += static_cast<std::int64_t>(evicted);
        bump(tel_.nodes_pruned, static_cast<std::int64_t>(evicted));
      }
    }
  }

  if (best_goal) {
    stats_.improved =
        !incumbent_reached || best_goal->depth < incumbent->num_flips();
    result.objective_reached = true;
    result.accuracy_after = best_goal->accuracy;
    nn::QuantizedModel& qmodel = expanders[0].qmodel();  // pristine replica
    for (const SearchNode* n : SearchNode::path(best_goal.get())) {
      attack::FlipRecord rec;
      rec.ref = n->flip;
      rec.weight_delta = qmodel.apply_bit_flip(n->flip);
      rec.loss_after = n->loss;
      rec.accuracy_after = n->accuracy;
      result.flips.push_back(rec);
    }
    return result;
  }
  if (incumbent) return *incumbent;  // nothing shorter found
  return result;
}

}  // namespace rowpress::search
