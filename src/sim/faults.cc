#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "sim/cluster_sim.h"

namespace mlbench::sim {

namespace {

// SplitMix64 finalizer: a high-quality bijective mixer. Fault queries
// hash (seed, kind, unit, machine, attempt) through this instead of
// drawing from a sequential RNG, so querying the schedule can never
// perturb a model's sample path and is thread-count invariant.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from the top 53 bits of the mixed hash.
double HashUniform(std::uint64_t seed, FaultKind kind, std::int64_t unit,
                   int machine, int attempt) {
  std::uint64_t h = Mix(seed);
  h = Mix(h ^ (static_cast<std::uint64_t>(kind) + 1));
  h = Mix(h ^ static_cast<std::uint64_t>(unit));
  h = Mix(h ^ static_cast<std::uint64_t>(machine));
  h = Mix(h ^ static_cast<std::uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Consecutive failed attempts: attempt 0 fires with probability `rate`;
// each further attempt re-fails with the same probability (independent
// hash), capped so a pathological rate cannot loop forever.
int HashCount(std::uint64_t seed, FaultKind kind, std::int64_t unit,
              int machine, double rate) {
  if (rate <= 0) return 0;
  constexpr int kMaxAttempts = 16;
  int count = 0;
  while (count < kMaxAttempts &&
         HashUniform(seed, kind, unit, machine, count) < rate) {
    ++count;
  }
  return count;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<int>(std::strtol(v, nullptr, 10));
}

}  // namespace

double HashChance(std::uint64_t seed, std::uint64_t tag, std::int64_t unit) {
  std::uint64_t h = Mix(seed);
  h = Mix(h ^ (tag + 1));
  h = Mix(h ^ static_cast<std::uint64_t>(unit));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kSendFailure:
      return "send-failure";
  }
  return "unknown";
}

double RetryPolicy::BackoffSeconds(int failures) const {
  double total = 0;
  double step = base_backoff_s;
  for (int i = 0; i < failures; ++i) {
    total += step;
    step *= backoff_multiplier;
  }
  return total;
}

FaultPlan FaultPlan::Seeded(std::uint64_t seed, FaultRates rates) {
  FaultPlan plan;
  plan.seeded_ = true;
  plan.seed_ = seed;
  plan.rates_ = rates;
  return plan;
}

void FaultPlan::AddCrash(std::int64_t unit, int machine, int count) {
  crashes_[{unit, machine}] = count;
}

void FaultPlan::AddStraggler(std::int64_t unit, int machine, double factor) {
  stragglers_[{unit, machine}] = factor;
}

void FaultPlan::AddSendFailure(std::int64_t unit, int machine, int count) {
  send_failures_[{unit, machine}] = count;
}

bool FaultPlan::empty() const {
  if (seeded_ && !rates_.empty()) return false;
  return crashes_.empty() && stragglers_.empty() && send_failures_.empty();
}

int FaultPlan::CrashCountAt(std::int64_t unit, int machine) const {
  auto it = crashes_.find({unit, machine});
  if (it != crashes_.end()) return it->second;
  if (!seeded_) return 0;
  return HashCount(seed_, FaultKind::kCrash, unit, machine, rates_.crash);
}

double FaultPlan::StragglerFactorAt(std::int64_t unit, int machine) const {
  auto it = stragglers_.find({unit, machine});
  if (it != stragglers_.end()) return it->second;
  if (!seeded_ || rates_.straggler <= 0) return 1.0;
  if (HashUniform(seed_, FaultKind::kStraggler, unit, machine, 0) <
      rates_.straggler) {
    return rates_.straggler_factor;
  }
  return 1.0;
}

int FaultPlan::SendFailureCountAt(std::int64_t unit, int machine) const {
  auto it = send_failures_.find({unit, machine});
  if (it != send_failures_.end()) return it->second;
  if (!seeded_) return 0;
  return HashCount(seed_, FaultKind::kSendFailure, unit, machine,
                   rates_.send_failure);
}

double FaultInjector::total_recovery_seconds() const {
  double total = 0;
  for (const auto& ev : recoveries_) total += ev.recovery_seconds;
  return total;
}

UnitFaults ApplyScheduledFaults(ClusterSim& sim, std::int64_t unit,
                                const RecoveryModel& model,
                                const std::function<void(int)>& on_crash) {
  UnitFaults out;
  FaultInjector* inj = sim.faults();
  if (inj == nullptr || !inj->active()) return out;
  const FaultPlan& plan = inj->plan();
  const RetryPolicy& retry = inj->retry();
  const int machines = sim.machines();
  auto exhausted = [&](const std::string& what, int failures) {
    return Status::Unavailable(what + " " + std::to_string(failures) +
                               " times in " + model.site + " " +
                               std::to_string(unit));
  };
  for (int m = 0; m < machines; ++m) {
    if (int crashes = plan.CrashCountAt(unit, m); crashes > 0) {
      if (retry.Exhausted(crashes)) {
        out.status =
            exhausted("machine " + std::to_string(m) + " crashed", crashes);
        return out;
      }
      if (crashes > out.worst_crash) {
        out.worst_crash = crashes;
        out.crash_machine = m;
      }
      if (model.crash == RecoveryModel::Crash::kRerunShare) {
        // The scheduler reschedules the dead machine's tasks; each failed
        // attempt re-executes its share of the phase from replicated
        // inputs, plus detection/backoff time.
        if (on_crash) on_crash(m);
        sim.ScalePhaseCpu(m, 1.0 + static_cast<double>(crashes));
        double backoff = retry.BackoffSeconds(crashes);
        sim.ChargeFixed(backoff);
        inj->RecordRecovery({FaultKind::kCrash, model.site, unit, m, backoff});
      }
    }
    if (double f = plan.StragglerFactorAt(unit, m); f > 1.0) {
      if (model.straggler == RecoveryModel::Straggler::kSpeculate) {
        sim.ScalePhaseCpu(m, std::min(f, 2.0));
        sim.MirrorPhaseCpu(m, (m + 1) % machines, 1.0);
      } else {
        sim.ScalePhaseCpu(m, f);
      }
      inj->RecordRecovery({FaultKind::kStraggler, model.site, unit, m, 0.0});
    }
    if (int sends = plan.SendFailureCountAt(unit, m); sends > 0) {
      if (retry.Exhausted(sends)) {
        out.status = exhausted(
            "sends from machine " + std::to_string(m) + " failed", sends);
        return out;
      }
      // Failed sends re-transfer this machine's outbound bytes.
      sim.ScalePhaseNet(m, 1.0 + static_cast<double>(sends));
      double backoff = retry.BackoffSeconds(sends);
      sim.ChargeFixed(backoff);
      inj->RecordRecovery(
          {FaultKind::kSendFailure, model.site, unit, m, backoff});
    }
  }
  return out;
}

void Rollback::Checkpoint(ClusterSim& sim, std::int64_t unit) {
  if (interval_ <= 0 || unit % interval_ != 0) return;
  for (int m = 0; m < sim.machines(); ++m) {
    sim.ChargeCpu(m, state_bytes_[static_cast<std::size_t>(m)] /
                         sim.spec().machine.disk_bytes_per_sec);
  }
  walls_.clear();
}

void Rollback::Recover(ClusterSim& sim, const RecoveryModel& model,
                       std::int64_t unit, const UnitFaults& faults) {
  if (faults.worst_crash <= 0) return;
  FaultInjector* inj = sim.faults();
  sim.BeginPhase(phase_);
  sim.ChargeFixed(inj->retry().BackoffSeconds(faults.worst_crash) +
                  relaunch_s_);
  for (int m = 0; m < sim.machines(); ++m) {
    sim.ChargeCpu(m, state_bytes_[static_cast<std::size_t>(m)] /
                         reload_bytes_per_sec_);
  }
  double replay = 0;
  for (double w : walls_) replay += w;
  sim.ChargeFixed(replay * static_cast<double>(faults.worst_crash));
  double rt = sim.EndPhase();
  inj->RecordRecovery(
      {FaultKind::kCrash, model.site, unit, faults.crash_machine, rt});
}

std::shared_ptr<FaultInjector> FaultSpec::MakeInjector() const {
  if (!Enabled()) return nullptr;
  FaultPlan plan = !explicit_plan.empty() ? explicit_plan
                                          : FaultPlan::Seeded(seed, rates);
  return std::make_shared<FaultInjector>(std::move(plan), retry);
}

FaultSpec FaultSpec::FromEnv() {
  FaultSpec spec;
  const char* seed_env = std::getenv("MLBENCH_FAULT_SEED");
  spec.checkpoint_interval = EnvInt("MLBENCH_CHECKPOINT_INTERVAL", 0);
  spec.snapshot_interval = EnvInt("MLBENCH_SNAPSHOT_INTERVAL", 0);
  if (seed_env == nullptr || *seed_env == '\0') return spec;
  spec.seed = std::strtoull(seed_env, nullptr, 10);
  spec.rates.crash = EnvDouble("MLBENCH_FAULT_CRASH", 0.0);
  spec.rates.straggler = EnvDouble("MLBENCH_FAULT_STRAGGLER", 0.0);
  spec.rates.send_failure = EnvDouble("MLBENCH_FAULT_SENDFAIL", 0.0);
  spec.evict_cache_on_pressure = EnvInt("MLBENCH_FAULT_EVICT", 0) != 0;
  spec.conn_drop = EnvDouble("MLBENCH_FAULT_CONNDROP", 0.0);
  spec.slow_client = EnvDouble("MLBENCH_FAULT_SLOWCLIENT", 0.0);
  return spec;
}

}  // namespace mlbench::sim
