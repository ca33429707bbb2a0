#include "defense/online/guard.h"

#include "common/check.h"
#include "telemetry/scoped_timer.h"

namespace rowpress::defense::online {

IntegrityGuard::IntegrityGuard(serve::SharedModel& model,
                               std::unique_ptr<DefensePolicy> policy,
                               const data::Dataset& canary_data,
                               GuardConfig cfg,
                               serve::VictimPlacement* placement,
                               serve::InferenceServer* server,
                               serve::ServeMonitor* monitor,
                               telemetry::MetricsRegistry* metrics)
    : model_(model),
      policy_(std::move(policy)),
      cfg_(cfg),
      sentinel_(model, cfg.sentinel),
      canary_(model, canary_data, cfg.canary),
      placement_(placement),
      server_(server),
      monitor_(monitor) {
  RP_REQUIRE(policy_ != nullptr, "guard needs a defense policy");
  RP_REQUIRE(cfg_.canary_every >= 1, "canary_every must be >= 1");
  RP_REQUIRE(cfg_.throttle_admit_one_in >= 1,
             "throttle_admit_one_in must be >= 1");
  RP_REQUIRE(cfg_.unthrottle_after_clean >= 1,
             "unthrottle_after_clean must be >= 1");
  if (metrics != nullptr) {
    m_rounds_ = &metrics->counter("defense.online.rounds");
    m_scrub_pages_ = &metrics->counter("defense.online.scrub_pages");
    m_scrub_mismatches_ = &metrics->counter("defense.online.scrub_mismatches");
    m_detections_ = &metrics->counter("defense.online.detections");
    m_canary_runs_ = &metrics->counter("defense.online.canary_runs");
    m_canary_drops_ = &metrics->counter("defense.online.canary_drops");
    m_rollbacks_ = &metrics->counter("defense.online.rollbacks");
    m_bits_restored_ = &metrics->counter("defense.online.bits_restored");
    m_remaps_ = &metrics->counter("defense.online.remaps");
    m_throttles_ = &metrics->counter("defense.online.throttles");
    m_canary_accuracy_ = &metrics->gauge("defense.online.canary_accuracy");
    // ScopedTimer records nanoseconds, so both `_ms` series (named for the
    // unit their readers report after dividing by 1e6) bucket the serving
    // latency ladder in ns.
    static const std::vector<double> kNsBounds = [] {
      std::vector<double> b = serve::latency_ms_bounds();
      for (double& v : b) v *= 1e6;
      return b;
    }();
    m_scrub_ms_ = &metrics->histogram("defense.online.scrub_ms", kNsBounds);
    m_canary_ms_ = &metrics->histogram("defense.online.canary_ms", kNsBounds);
  }
  // Seed the canary baseline on the pristine weights, so its first
  // in-round sample can already detect.
  const auto seed = canary_.run();
  if (m_canary_accuracy_ != nullptr) m_canary_accuracy_->set(seed.accuracy);
}

IntegrityGuard::~IntegrityGuard() { stop(); }

void IntegrityGuard::emit(const serve::GuardEvent& e) {
  if (monitor_ != nullptr) monitor_->record_guard(e);
}

void IntegrityGuard::do_rollback(const WeightSentinel::PageReport& page,
                                 std::int64_t round) {
  const serve::RepairOutcome out = sentinel_.rollback(page);
  if (out.bits_restored == 0) return;  // raced a concurrent repair: clean
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.rollbacks;
    stats_.bits_restored += out.bits_restored;
  }
  if (m_rollbacks_ != nullptr) m_rollbacks_->add(1);
  if (m_bits_restored_ != nullptr) m_bits_restored_->add(out.bits_restored);
  serve::GuardEvent e;
  e.event = "rollback";
  e.round = round;
  e.version = out.version;
  e.page = page.page;
  e.bits = out.bits_restored;
  e.policy = policy_->name();
  emit(e);
}

void IntegrityGuard::do_remap(std::int64_t round) {
  if (placement_ == nullptr) return;
  placement_->remap();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.remaps;
  }
  if (m_remaps_ != nullptr) m_remaps_->add(1);
  serve::GuardEvent e;
  e.event = "remap";
  e.round = round;
  e.version = model_.version();
  e.policy = policy_->name();
  emit(e);
}

void IntegrityGuard::do_throttle(std::int64_t round) {
  if (server_ == nullptr || throttled_) return;
  prev_admit_one_in_ = server_->admit_one_in();
  server_->set_admit_one_in(cfg_.throttle_admit_one_in);
  throttled_ = true;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.throttles;
  }
  if (m_throttles_ != nullptr) m_throttles_->add(1);
  serve::GuardEvent e;
  e.event = "throttle_on";
  e.round = round;
  e.version = model_.version();
  e.policy = policy_->name();
  emit(e);
}

void IntegrityGuard::execute(const Detection& d, bool* remapped_this_round) {
  const ActionPlan plan = policy_->decide(d);
  if (d.source == Detection::Source::kScrub && plan.rollback_page) {
    WeightSentinel::PageReport page;
    page.page = d.page;
    page.byte_begin = d.byte_begin;
    page.byte_end = d.byte_end;
    do_rollback(page, d.round);
  }
  if (plan.full_scrub) {
    for (const auto& page : sentinel_.full_sweep()) {
      do_rollback(page, d.round);
    }
  }
  if (plan.remap && !*remapped_this_round) {
    // One remap per round no matter how many pages fired — each remap
    // invalidates the whole chain, repeating it buys nothing.
    do_remap(d.round);
    *remapped_this_round = true;
  }
  if (plan.throttle) do_throttle(d.round);
}

void IntegrityGuard::run_round() {
  std::int64_t round;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    round = stats_.rounds++;
  }
  if (m_rounds_ != nullptr) m_rounds_->add(1);

  bool detected_this_round = false;
  bool remapped_this_round = false;

  // --- structural sensor: scrub the next page slice -----------------
  std::vector<WeightSentinel::PageReport> dirty;
  {
    telemetry::ScopedTimer t(m_scrub_ms_);
    dirty = sentinel_.scrub_round();
  }
  if (m_scrub_pages_ != nullptr)
    m_scrub_pages_->add(cfg_.sentinel.pages_per_round);
  for (const auto& page : dirty) {
    detected_this_round = true;
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.scrub_detections;
      if (stats_.first_detection_round < 0)
        stats_.first_detection_round = round;
    }
    if (m_scrub_mismatches_ != nullptr) m_scrub_mismatches_->add(1);
    if (m_detections_ != nullptr) m_detections_->add(1);
    serve::GuardEvent e;
    e.event = "scrub_mismatch";
    e.round = round;
    e.version = model_.version();
    e.page = page.page;
    e.policy = policy_->name();
    emit(e);

    Detection d;
    d.source = Detection::Source::kScrub;
    d.round = round;
    d.page = page.page;
    d.byte_begin = page.byte_begin;
    d.byte_end = page.byte_end;
    execute(d, &remapped_this_round);
  }

  // --- behavioral sensor: canary every canary_every rounds ----------
  if ((round + 1) % cfg_.canary_every == 0) {
    AccuracyCanary::Sample s;
    {
      telemetry::ScopedTimer t(m_canary_ms_);
      s = canary_.run();
    }
    if (m_canary_runs_ != nullptr) m_canary_runs_->add(1);
    if (m_canary_accuracy_ != nullptr) m_canary_accuracy_->set(s.accuracy);
    if (s.detected) {
      detected_this_round = true;
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.canary_detections;
        if (stats_.first_detection_round < 0)
          stats_.first_detection_round = round;
      }
      if (m_canary_drops_ != nullptr) m_canary_drops_->add(1);
      if (m_detections_ != nullptr) m_detections_->add(1);
      serve::GuardEvent e;
      e.event = "canary_drop";
      e.round = round;
      e.version = s.version;
      e.canary_accuracy = s.accuracy;
      e.canary_baseline = s.baseline;
      e.policy = policy_->name();
      emit(e);

      Detection d;
      d.source = Detection::Source::kCanary;
      d.round = round;
      d.canary_accuracy = s.accuracy;
      d.canary_baseline = s.baseline;
      execute(d, &remapped_this_round);
    }
  }

  // --- recovery / throttle-release bookkeeping ----------------------
  if (detected_this_round) {
    in_incident_ = true;
    clean_rounds_ = 0;
    return;
  }
  ++clean_rounds_;
  if (in_incident_ && sentinel_.at_cycle_start()) {
    // A full scrub cycle wrapped with every page verified clean since the
    // last detection: cursor is back at page 0 and clean_rounds_ covers
    // at least one whole pass.
    const std::int64_t cycle_rounds =
        (sentinel_.pages() + cfg_.sentinel.pages_per_round - 1) /
        cfg_.sentinel.pages_per_round;
    if (clean_rounds_ >= cycle_rounds) {
      in_incident_ = false;
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.recoveries;
      }
      serve::GuardEvent e;
      e.event = "recovered";
      e.round = round;
      e.version = model_.version();
      e.policy = policy_->name();
      emit(e);
    }
  }
  if (throttled_ && !in_incident_ &&
      clean_rounds_ >= cfg_.unthrottle_after_clean) {
    server_->set_admit_one_in(prev_admit_one_in_);
    throttled_ = false;
    serve::GuardEvent e;
    e.event = "throttle_off";
    e.round = round;
    e.version = model_.version();
    e.policy = policy_->name();
    emit(e);
  }
}

std::int64_t IntegrityGuard::recover_now() {
  std::int64_t restored = 0;
  // Bounded: each pass repairs everything it finds; more than a handful of
  // passes means the injector is still firing and the caller misused the
  // barrier.
  for (int pass = 0; pass < 16; ++pass) {
    const auto dirty = sentinel_.full_sweep();
    if (dirty.empty()) break;
    for (const auto& page : dirty) {
      const serve::RepairOutcome out = sentinel_.rollback(page);
      restored += out.bits_restored;
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        if (out.bits_restored > 0) ++stats_.rollbacks;
        stats_.bits_restored += out.bits_restored;
      }
      if (out.bits_restored > 0 && m_rollbacks_ != nullptr)
        m_rollbacks_->add(1);
      if (m_bits_restored_ != nullptr) m_bits_restored_->add(out.bits_restored);
    }
  }
  return restored;
}

void IntegrityGuard::start() {
  RP_REQUIRE(!running_, "guard already started");
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(run_mu_);
    while (!stop_requested_) {
      lk.unlock();
      run_round();
      lk.lock();
      run_cv_.wait_for(lk, cfg_.interval, [this] { return stop_requested_; });
    }
  });
}

void IntegrityGuard::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  thread_.join();
  running_ = false;
}

GuardStats IntegrityGuard::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

}  // namespace rowpress::defense::online
