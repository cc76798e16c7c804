#include "core/harness.h"

#include <utility>

namespace mlbench::core {

RunHarness::RunHarness(const ExperimentConfig& config)
    : config_(config), sim_(config.cluster()) {
  if (config.noise_seed != 0) {
    sim_.SetNoise(config.noise_fraction, config.noise_seed);
  }
  if (config.faults.Enabled()) {
    sim_.SetFaultInjector(config.faults.MakeInjector());
  }
}

RunResult RunHarness::Fail(Status st) const {
  return Finish(RunResult{}, std::move(st));
}

RunResult RunHarness::Finish(RunResult r, Status st) const {
  r.status = std::move(st);
  if (const sim::FaultInjector* inj = sim_.faults(); inj != nullptr) {
    r.recovery_events = static_cast<int>(inj->recoveries().size());
    r.recovery_seconds = inj->total_recovery_seconds();
  }
  return r;
}

}  // namespace mlbench::core
