#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "cloud/calibration.hpp"
#include "nn/model_zoo.hpp"
#include "obs/obs.hpp"

namespace cmdare::fleet {

namespace {

/// Quote inflation for placements expected to be priced out at the
/// diurnal supply dip: the rollback-and-restore waste such an eviction
/// costs, expressed as a fraction of the useful spend. Keeps the
/// cost-optimal policy from chasing price troughs it cannot hold.
constexpr double kPriceoutRiskPremium = 0.5;

/// Fraction of wall time spent stepping (vs. checkpointing): with C
/// steps between checkpoints at aggregate rate workers/step_seconds, a
/// checkpoint window lasts C*s/W seconds of compute plus the checkpoint
/// write. 1.0 when checkpointing is off.
double checkpoint_factor(const FleetConfig& config, double step_seconds,
                         int workers) {
  if (config.checkpoint_interval_steps <= 0) return 1.0;
  const double window =
      static_cast<double>(config.checkpoint_interval_steps) * step_seconds /
      static_cast<double>(workers);
  return window / (window + config.checkpoint_seconds);
}

/// Market-initiated evictions go through provider reclamation (a real
/// revocation, with ledger + on_revoked); everything else is the tenant
/// tearing its own instances down.
bool endogenous_reason(const char* reason) {
  const std::string_view r(reason);
  return r == "reclaim" || r == "priceout";
}

/// Victim order for capacity reclamation: lowest priority first, then
/// lowest bid, then highest id — fully deterministic.
bool better_victim(const TenantJob& a, const TenantJob& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.bid != b.bid) return a.bid < b.bid;
  return a.id > b.id;
}

bool placed(const TenantJob& job) {
  return job.state == TenantState::kStarting ||
         job.state == TenantState::kRunning;
}

}  // namespace

FleetSim::FleetSim(simcore::Simulator& sim, cloud::CloudProvider& provider,
                   const FleetConfig& config, const nn::CnnModel& base_model,
                   util::Rng rng)
    : sim_(&sim),
      provider_(&provider),
      config_(config),
      market_(config),
      scheduler_(config.scheduler),
      rng_(std::move(rng)) {
  const std::vector<std::string> errors = validate(config_);
  if (!errors.empty()) {
    throw std::invalid_argument("FleetSim: " + errors.front());
  }
  // Fixed pool enumeration: region-major over the measured combinations.
  for (cloud::Region region : cloud::kAllRegions) {
    for (cloud::GpuType gpu : cloud::kAllGpuTypes) {
      if (!cloud::gpu_offered_in_region(region, gpu)) continue;
      pools_.push_back(FleetPool{region, gpu, {}});
    }
  }
  provider_->set_hazard_revocations(config_.hazard_revocations);
  for (const FleetPool& p : pools_) {
    provider_->set_pool_capacity(p.region, p.gpu, config_.capacity_per_pool);
  }
  const std::vector<nn::CnnModel>& zoo = nn::all_models();
  tenants_.reserve(static_cast<std::size_t>(config_.tenants));
  // One independent stream per tenant, derived in a single batch; each
  // element is bit-identical to rng_.fork(i), so tenant draws are pinned
  // regardless of how many tenants precede them.
  std::vector<util::Rng> draws =
      rng_.fork_batch(0, static_cast<std::size_t>(config_.tenants));
  for (int i = 0; i < config_.tenants; ++i) {
    util::Rng& draw = draws[static_cast<std::size_t>(i)];
    TenantJob job;
    job.id = i;
    job.work_steps = effective_steps(
        config_, static_cast<long>(
                     draw.uniform_int(config_.min_steps, config_.max_steps)));
    job.workers = config_.workers_per_tenant;
    job.priority = static_cast<int>(draw.uniform_index(3));
    job.bid = 1.0 + config_.bid_spread * draw.uniform();
    job.deadline_s = config_.deadline_hours * 3600.0;
    const nn::CnnModel& model =
        config_.model_mix ? zoo[draw.uniform_index(nn::kCanonicalModelCount)]
                          : base_model;
    job.model_name = model.name();
    for (cloud::GpuType gpu : cloud::kAllGpuTypes) {
      job.step_seconds[static_cast<int>(gpu)] =
          cloud::mean_step_compute_ms(gpu, model) / 1000.0;
    }
    tenants_.push_back(std::move(job));
  }
}

void FleetSim::start() {
  if (started_) throw std::logic_error("FleetSim::start called twice");
  started_ = true;
  tick();  // initial market evaluation + placement at the current time
  sim_->schedule_every(
      config_.market_period_s,
      [this] {
        if (all_done()) return false;
        tick();
        return true;
      },
      "fleet.tick");
  if (config_.scheduler == SchedulerPolicy::kCostOptimal &&
      config_.migrate_period_s > 0.0) {
    sim_->schedule_every(
        config_.migrate_period_s,
        [this] {
          if (all_done()) return false;
          migration_pass();
          return true;
        },
        "fleet.migrate");
  }
}

bool FleetSim::all_done() const {
  for (const TenantJob& job : tenants_) {
    if (job.state != TenantState::kDone) return false;
  }
  return true;
}

void FleetSim::tick() {
  // 1. Supply dip + demand-driven pricing per pool.
  for (const FleetPool& p : pools_) {
    const double hour = provider_->local_hour_now(p.region);
    const int cap = market_.capacity_at(config_.capacity_per_pool, hour);
    provider_->set_pool_capacity(p.region, p.gpu, cap);
    const int live = provider_->live_transient_count(p.region, p.gpu);
    const double util = static_cast<double>(live) / static_cast<double>(cap);
    provider_->set_price_multiplier(p.region, p.gpu,
                                    market_.price_multiplier(util));
  }
  // 2. Capacity reclamation: when the dip undercuts live instances the
  // provider evicts whole tenants, worst victim first, until the pool
  // fits again.
  for (int pi = 0; pi < static_cast<int>(pools_.size()); ++pi) {
    const FleetPool& p = pools_[pi];
    const int cap = provider_->pool_capacity(p.region, p.gpu);
    while (provider_->live_transient_count(p.region, p.gpu) > cap) {
      TenantJob* victim = nullptr;
      for (TenantJob& job : tenants_) {
        if (job.pool != pi || !placed(job)) continue;
        if (victim == nullptr || better_victim(job, *victim)) victim = &job;
      }
      if (victim == nullptr) break;
      evict_core(*victim, "reclaim", obs::LedgerEventKind::kEviction);
    }
  }
  // 3. Price-outs: the market clears per pool. While the posted price
  // exceeds the cheapest incumbent's bid, that tenant leaves and the
  // price re-forms at the lower utilization. Evicting one marginal
  // bidder at a time (instead of a batch sweep at the stale price) is
  // what keeps the market from overshooting into an empty-pool/refill
  // limit cycle: the survivors are exactly those whose bid covers the
  // price at the cleared utilization.
  for (int pi = 0; pi < static_cast<int>(pools_.size()); ++pi) {
    const FleetPool& p = pools_[pi];
    const int cap = provider_->pool_capacity(p.region, p.gpu);
    if (cap <= 0) continue;
    for (;;) {
      const int live = provider_->live_transient_count(p.region, p.gpu);
      const double multiplier = market_.price_multiplier(
          static_cast<double>(live) / static_cast<double>(cap));
      provider_->set_price_multiplier(p.region, p.gpu, multiplier);
      TenantJob* cheapest = nullptr;
      for (TenantJob& job : tenants_) {
        if (job.pool != pi || !placed(job)) continue;
        if (cheapest == nullptr || job.bid < cheapest->bid ||
            (job.bid == cheapest->bid && job.id > cheapest->id)) {
          cheapest = &job;
        }
      }
      if (cheapest == nullptr || multiplier <= cheapest->bid) break;
      evict_core(*cheapest, "priceout", obs::LedgerEventKind::kEviction);
    }
  }
  // 4. Place pending tenants; 5. publish market + fleet gauges.
  placement_pass();
  provider_->export_market_gauges();
  update_gauges();
}

void FleetSim::placement_pass() {
  std::vector<TenantJob*> pending;
  for (TenantJob& job : tenants_) {
    if (job.state == TenantState::kPending) pending.push_back(&job);
  }
  std::sort(pending.begin(), pending.end(),
            [](const TenantJob* a, const TenantJob* b) {
              if (a->priority != b->priority) return a->priority > b->priority;
              return a->id < b->id;
            });
  for (TenantJob* job : pending) {
    const std::vector<PoolQuote> quotes = quotes_for(*job);
    const int pick = scheduler_.place(quotes);
    if (pick < 0) continue;
    place_tenant(*job, quotes[static_cast<std::size_t>(pick)].pool_index);
  }
}

void FleetSim::schedule_placement_pass() {
  if (pass_scheduled_ || all_done()) return;
  pass_scheduled_ = true;
  sim_->schedule_after(
      0.0,
      [this] {
        pass_scheduled_ = false;
        placement_pass();
      },
      "fleet.place");
}

std::vector<PoolQuote> FleetSim::quotes_for(const TenantJob& job) const {
  std::vector<PoolQuote> quotes;
  for (int pi = 0; pi < static_cast<int>(pools_.size()); ++pi) {
    const FleetPool& p = pools_[pi];
    const int cap = provider_->pool_capacity(p.region, p.gpu);
    const int live = provider_->live_transient_count(p.region, p.gpu);
    if (cap >= 0 && cap - live < job.workers) continue;
    // Affordability is anticipatory: the quote prices the pool at the
    // utilization this tenant's own workers would create, so a policy
    // that honors it never takes a placement that immediately prices
    // itself out. (The price-blind baseline ignores the flag.)
    const double multiplier =
        cap > 0 ? market_.price_multiplier(
                      static_cast<double>(live + job.workers) /
                      static_cast<double>(cap))
                : provider_->price_multiplier(p.region, p.gpu);
    const double posted = provider_->price_multiplier(p.region, p.gpu);
    const double price =
        provider_->current_transient_price(p.region, p.gpu) / posted *
        multiplier;
    PoolQuote quote;
    quote.pool_index = pi;
    quote.free_slots = cap - live;
    quote.price_per_hour = price;
    quote.multiplier = multiplier;
    quote.step_seconds = job.step_seconds[static_cast<int>(p.gpu)];
    quote.usd_per_step = quote_usd_per_step(job, pi, price);
    quote.affordable = multiplier <= job.bid;
    // Forward-looking price-out risk: a pool that is affordable at the
    // current supply may not be at the local-afternoon dip. If the
    // post-entry utilization against the dipped capacity would price
    // this bid out, the placement is expected to be evicted within a
    // diurnal cycle — load the quote with the rollback waste that
    // implies, so the cost-optimal policy stops chasing price troughs.
    if (cap > 0) {
      const int dipped = market_.capacity_at(config_.capacity_per_pool,
                                             kSupplyDipPeakLocalHour);
      const double peak_multiplier = market_.price_multiplier(
          static_cast<double>(live + job.workers) /
          static_cast<double>(dipped));
      if (peak_multiplier > job.bid) {
        quote.usd_per_step *= 1.0 + kPriceoutRiskPremium;
      }
    }
    quotes.push_back(quote);
  }
  return quotes;
}

double FleetSim::quote_usd_per_step(const TenantJob& job, int pool_index,
                                    double price_per_hour) const {
  // Billed rate over useful step rate: W workers cost W*price/3600 $/s
  // and produce (W/s)*f steps/s, so $/step = price*s/(3600*f), inflated
  // by the pool's observed Eq. 4 waste ratio.
  const FleetPool& p = pools_[static_cast<std::size_t>(pool_index)];
  const double s = job.step_seconds[static_cast<int>(p.gpu)];
  const double f = checkpoint_factor(config_, s, job.workers);
  return price_per_hour * s / (3600.0 * f) * waste_ratio(p.cost);
}

void FleetSim::place_tenant(TenantJob& job, int pool_index) {
  const FleetPool& p = pools_[static_cast<std::size_t>(pool_index)];
  // Post the post-entry price before requesting, so this tenant (whose
  // quote already anticipated its own demand) locks the price its
  // arrival creates and later entrants see the raised posting.
  const int cap = provider_->pool_capacity(p.region, p.gpu);
  if (cap > 0) {
    const int live = provider_->live_transient_count(p.region, p.gpu);
    provider_->set_price_multiplier(
        p.region, p.gpu,
        market_.price_multiplier(static_cast<double>(live + job.workers) /
                                 static_cast<double>(cap)));
  }
  job.state = TenantState::kStarting;
  job.pool = pool_index;
  job.running_workers = 0;
  ++job.placements;
  ++placements_;
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kTenantPlacement;
    event.at = sim_->now();
    // Source "fleet" (no slash) keeps tenant events in the same analysis
    // scope as the provider's "cloud" billing windows, so eviction waste
    // lands in the Eq. 4 wasted bucket; the tenant id is a detail label.
    event.source = "fleet";
    event.step = static_cast<long>(std::floor(job.progress));
    event.detail.push_back({"gpu", cloud::gpu_name(p.gpu)});
    event.detail.push_back({"region", cloud::region_name(p.region)});
    event.detail.push_back({"tenant", std::to_string(job.id)});
    ledger->record(std::move(event));
  }
  if (obs::Registry* reg = obs::registry()) {
    reg->counter("fleet.placements_total").inc();
  }
  const int tenant_id = job.id;
  for (int w = 0; w < job.workers; ++w) {
    cloud::InstanceRequest request;
    request.gpu = p.gpu;
    request.region = p.region;
    request.transient = true;
    cloud::InstanceCallbacks callbacks;
    callbacks.on_running = [this, tenant_id](cloud::InstanceId) {
      on_instance_running(tenant_id);
    };
    callbacks.on_revoked = [this, tenant_id](cloud::InstanceId id) {
      on_instance_revoked(tenant_id, id);
    };
    callbacks.on_request_failed = [this, tenant_id](
                                      cloud::InstanceId,
                                      cloud::RequestFailureReason) {
      on_request_failed(tenant_id);
    };
    job.instances.push_back(
        provider_->request_instance(request, std::move(callbacks)));
  }
}

void FleetSim::on_instance_running(int tenant_id) {
  TenantJob& job = tenants_[static_cast<std::size_t>(tenant_id)];
  if (job.state != TenantState::kStarting) return;
  ++job.running_workers;
  if (job.running_workers == job.workers) begin_running(job);
}

void FleetSim::begin_running(TenantJob& job) {
  const double now = sim_->now();
  FleetPool& pool = pools_[static_cast<std::size_t>(job.pool)];
  const double s = job.step_seconds[static_cast<int>(pool.gpu)];
  job.ckpt_factor = checkpoint_factor(config_, s, job.workers);
  job.rate = static_cast<double>(job.workers) / s * job.ckpt_factor;
  const bool restoring = job.progress > 0.0;
  job.gate = now + (restoring ? config_.restore_seconds : 0.0);
  if (restoring) {
    pool.cost.overhead.seconds += job.workers * config_.restore_seconds;
    // Per-instance restore events, stamped at the gate they will clear:
    // the stretch [gate - restore_seconds, gate] is Eq. 4 overhead on
    // each held instance (clipped to its billed life if evicted first).
    if (obs::Ledger* ledger = obs::ledger()) {
      for (cloud::InstanceId id : job.instances) {
        obs::LedgerEvent event;
        event.kind = obs::LedgerEventKind::kRestore;
        event.at = job.gate;
        event.source = "fleet";
        event.instance = static_cast<long long>(id);
        event.seconds = config_.restore_seconds;
        event.detail.push_back({"tenant", std::to_string(job.id)});
        ledger->record(std::move(event));
      }
    }
  }
  job.anchor = job.gate;
  job.state = TenantState::kRunning;
  const double remaining =
      static_cast<double>(job.work_steps) - job.progress;
  const double finish_at = job.gate + remaining / job.rate;
  const int tenant_id = job.id;
  job.completion = sim_->schedule_at(
      finish_at,
      [this, tenant_id] {
        TenantJob& j = tenants_[static_cast<std::size_t>(tenant_id)];
        if (j.state != TenantState::kRunning) return;
        accrue(j);
        finish_tenant(j);
      },
      "fleet.complete");
}

void FleetSim::accrue(TenantJob& job) {
  if (job.state != TenantState::kRunning) return;
  const double now = sim_->now();
  const double start = std::max(job.anchor, job.gate);
  if (now <= start) return;
  double delta = job.rate * (now - start);
  const double remaining =
      static_cast<double>(job.work_steps) - job.progress;
  if (delta > remaining) delta = remaining;
  job.progress += delta;
  job.anchor = now;
  FleetPool& pool = pools_[static_cast<std::size_t>(job.pool)];
  const double s = job.step_seconds[static_cast<int>(pool.gpu)];
  pool.cost.useful.seconds += delta * s;
  if (job.ckpt_factor > 0.0 && job.ckpt_factor < 1.0) {
    pool.cost.overhead.seconds += delta * s * (1.0 / job.ckpt_factor - 1.0);
  }
}

double FleetSim::progress_at_now(const TenantJob& job) const {
  if (job.state != TenantState::kRunning) return job.progress;
  const double start = std::max(job.anchor, job.gate);
  const double now = sim_->now();
  if (now <= start) return job.progress;
  const double delta = job.rate * (now - start);
  return std::min(static_cast<double>(job.work_steps), job.progress + delta);
}

void FleetSim::finish_tenant(TenantJob& job) {
  job.completion.cancel();  // no-op when we arrived via the event itself
  job.progress = static_cast<double>(job.work_steps);
  job.state = TenantState::kDone;
  job.finished_at = sim_->now();
  release_instances(job, "complete");
  job.pool = -1;
  job.rate = 0.0;
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kTenantComplete;
    event.at = sim_->now();
    event.source = "fleet";
    event.step = static_cast<long>(job.work_steps);
    event.detail.push_back({"tenant", std::to_string(job.id)});
    ledger->record(std::move(event));
  }
  if (obs::Registry* reg = obs::registry()) {
    reg->counter("fleet.tenants_completed_total").inc();
  }
  // Freed slots may unblock a pending tenant before the next tick.
  schedule_placement_pass();
}

void FleetSim::evict_core(TenantJob& job, const char* reason,
                          obs::LedgerEventKind kind) {
  accrue(job);
  if (job.progress >= static_cast<double>(job.work_steps)) {
    finish_tenant(job);  // crossed the line before the eviction landed
    return;
  }
  job.completion.cancel();
  const long interval = config_.checkpoint_interval_steps;
  const double durable =
      interval > 0 ? std::floor(job.progress / static_cast<double>(interval)) *
                         static_cast<double>(interval)
                   : 0.0;
  const double lost = job.progress - durable;
  double lost_stretch = 0.0;
  if (job.rate > 0.0 && lost > 0.0) {
    lost_stretch = lost / job.rate;
    FleetPool& pool = pools_[static_cast<std::size_t>(job.pool)];
    pool.cost.wasted.seconds +=
        lost * job.step_seconds[static_cast<int>(pool.gpu)];
  }
  job.progress = durable;
  // Per-instance rollback companions: the recompute debt wastes the
  // stretch each of this tenant's instances just billed, and nothing
  // else — analyze charges instance-scoped rollbacks to that instance's
  // billing windows only.
  if (lost_stretch > 0.0) {
    if (obs::Ledger* ledger = obs::ledger()) {
      for (cloud::InstanceId id : job.instances) {
        obs::LedgerEvent event;
        event.kind = obs::LedgerEventKind::kRollback;
        event.at = sim_->now();
        event.source = "fleet";
        event.instance = static_cast<long long>(id);
        event.seconds = lost_stretch;
        event.detail.push_back({"reason", reason});
        event.detail.push_back({"tenant", std::to_string(job.id)});
        ledger->record(std::move(event));
      }
    }
  }
  // Pending *before* releasing: reclaim fires on_revoked synchronously
  // and the handler must see this tenant as already evicted.
  job.state = TenantState::kPending;
  release_instances(job, reason);
  job.pool = -1;
  job.rate = 0.0;
  ++job.evictions;
  if (kind == obs::LedgerEventKind::kMigration) {
    ++migrations_;
    if (obs::Registry* reg = obs::registry()) {
      reg->counter("fleet.migrations_total").inc();
    }
  } else {
    count_eviction(reason);
  }
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = kind;
    event.at = sim_->now();
    event.source = "fleet";
    event.step = static_cast<long>(durable);
    event.seconds = lost_stretch;  // wall-clock stretch rolled back
    event.detail.push_back({"reason", reason});
    event.detail.push_back({"tenant", std::to_string(job.id)});
    ledger->record(std::move(event));
  }
  // A hazard-evicted tenant can often re-place immediately; market
  // evictions cannot (full or unaffordable pool) and just no-op here.
  schedule_placement_pass();
}

void FleetSim::release_instances(TenantJob& job, const char* reason) {
  const bool endogenous = endogenous_reason(reason);
  for (cloud::InstanceId id : job.instances) {
    if (provider_->record(id).alive()) {
      if (endogenous) {
        provider_->reclaim(id, reason);
      } else {
        provider_->terminate(id);
      }
    }
    job.cost_usd += provider_->instance_cost(id);
  }
  job.instances.clear();
  job.running_workers = 0;
}

void FleetSim::on_instance_revoked(int tenant_id, cloud::InstanceId id) {
  TenantJob& job = tenants_[static_cast<std::size_t>(tenant_id)];
  if (!placed(job)) return;  // our own reclaim during eviction
  const char* reason =
      provider_->record(id).state == cloud::InstanceState::kExpired
          ? "expired"
          : "hazard";
  evict_core(job, reason, obs::LedgerEventKind::kEviction);
}

void FleetSim::on_request_failed(int tenant_id) {
  TenantJob& job = tenants_[static_cast<std::size_t>(tenant_id)];
  if (job.state != TenantState::kStarting) return;
  evict_core(job, "launch_failed", obs::LedgerEventKind::kEviction);
}

void FleetSim::count_eviction(const char* reason) {
  const std::string_view r(reason);
  if (r == "reclaim") {
    ++evictions_reclaim_;
  } else if (r == "priceout") {
    ++evictions_priceout_;
  } else {
    ++evictions_other_;
  }
  if (obs::Registry* reg = obs::registry()) {
    reg->counter("fleet.evictions_total", {{"reason", std::string(r)}}).inc();
  }
}

void FleetSim::migration_pass() {
  for (TenantJob& job : tenants_) {
    if (job.state != TenantState::kRunning) continue;
    accrue(job);
    if (job.progress >= static_cast<double>(job.work_steps)) {
      finish_tenant(job);
      continue;
    }
    // The move is judged on remaining cost to completion, not raw
    // $/step: migrating rolls the job back to its checkpoint floor (the
    // redone steps are billed again at the target) and pays the restore
    // stretch there, so a cheaper pool must clear that hurdle too.
    const double remaining =
        static_cast<double>(job.work_steps) - job.progress;
    const double durable =
        config_.checkpoint_interval_steps > 0
            ? std::floor(job.progress /
                         static_cast<double>(
                             config_.checkpoint_interval_steps)) *
                  static_cast<double>(config_.checkpoint_interval_steps)
            : 0.0;
    const double redo = job.progress - durable;
    const double current =
        quote_usd_per_step(
            job, job.pool,
            provider_->current_transient_price(pools_[job.pool].region,
                                               pools_[job.pool].gpu)) *
        remaining;
    const std::vector<PoolQuote> quotes = quotes_for(job);
    int best = -1;
    double best_cost = 0.0;
    for (int i = 0; i < static_cast<int>(quotes.size()); ++i) {
      const PoolQuote& q = quotes[static_cast<std::size_t>(i)];
      if (q.pool_index == job.pool || !q.affordable) continue;
      const double restore_usd = static_cast<double>(job.workers) *
                                 q.price_per_hour *
                                 config_.restore_seconds / 3600.0;
      const double cost = q.usd_per_step * (remaining + redo) + restore_usd;
      if (best < 0 || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    if (best < 0) continue;
    const PoolQuote& target = quotes[static_cast<std::size_t>(best)];
    // Hysteresis: only move for a clear remaining-cost win.
    if (best_cost >= (1.0 - config_.migrate_gain) * current) continue;
    const int target_pool = target.pool_index;
    evict_core(job, "migrate", obs::LedgerEventKind::kMigration);
    if (job.state == TenantState::kPending) place_tenant(job, target_pool);
  }
}

void FleetSim::update_gauges() const {
  obs::Registry* reg = obs::registry();
  if (reg == nullptr) return;
  int pending = 0;
  int running = 0;
  int done = 0;
  for (const TenantJob& job : tenants_) {
    switch (job.state) {
      case TenantState::kPending:
        ++pending;
        break;
      case TenantState::kStarting:
      case TenantState::kRunning:
        ++running;
        break;
      case TenantState::kDone:
        ++done;
        break;
    }
  }
  reg->gauge("fleet.pending_tenants").set(pending);
  reg->gauge("fleet.running_tenants").set(running);
  reg->gauge("fleet.done_tenants").set(done);
}

FleetStats FleetSim::stats() const {
  FleetStats stats;
  stats.tenants = static_cast<int>(tenants_.size());
  double steps = 0.0;
  double cost = 0.0;
  for (const TenantJob& job : tenants_) {
    if (job.state == TenantState::kDone) {
      ++stats.finished;
      if (job.finished_at <= job.deadline_s) ++stats.deadline_hits;
    }
    steps += progress_at_now(job);
    cost += job.cost_usd;
    for (cloud::InstanceId id : job.instances) {
      cost += provider_->instance_cost(id);  // live instances, billed to now
    }
  }
  stats.completed_steps = static_cast<long long>(std::floor(steps));
  stats.cost_usd = cost;
  stats.placements = placements_;
  stats.evictions_reclaim = evictions_reclaim_;
  stats.evictions_priceout = evictions_priceout_;
  stats.evictions_other = evictions_other_;
  stats.migrations = migrations_;
  return stats;
}

}  // namespace cmdare::fleet
