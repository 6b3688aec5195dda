// The model zoo and the calibrated revocation model are process-wide and
// built on first use. This binary's only test makes that first use happen
// on four pool threads at once (ctest also runs each case in its own
// process), so the ThreadSanitizer stage sees the concurrent first build,
// and checks the parallel outcome against a serial rerun.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/sweep.hpp"

namespace cmdare::scenario {
namespace {

TEST(SharedCalibration, FirstUseOnPoolThreadsMatchesSerialRun) {
  // Transient K80 workers in us-central1: every replica validates its
  // model name against the zoo, copies the model into its run and samples
  // revocations from the shared hazard model.
  ScenarioSweep sweep;
  sweep.name = "shared-calibration";
  sweep.base.kind = HarnessKind::kRun;
  sweep.base.workers = {
      {2, cloud::GpuType::kK80, cloud::Region::kUsCentral1, true}};
  sweep.base.max_steps = 300;
  sweep.base.checkpoint_interval_steps = 100;
  sweep.base.horizon_hours = 48.0;
  const std::vector<std::string> models = {"resnet-15", "resnet-32",
                                           "shake-shake-small",
                                           "resnet-d20-w16"};
  sweep.axes = {{"model", models}};
  sweep.replicas = 2;
  sweep.seed = 2020;

  // The cells are built by hand: expand() would validate them, and so
  // touch the zoo, on this thread.
  ScenarioCampaignResult parallel;
  parallel.sweep = sweep;
  for (std::size_t i = 0; i < models.size(); ++i) {
    ScenarioCell cell;
    cell.index = i;
    cell.spec = sweep.base;
    cell.spec.model = models[i];
    cell.settings = {{"model", models[i]}};
    parallel.cells.push_back(cell);
  }
  exp::RunOptions options;
  options.jobs = 4;
  exp::GridResult grid = exp::run_grid(
      parallel.cells.size(), sweep.replicas, sweep.seed,
      [&](std::size_t c, int r, util::Rng& rng, obs::Telemetry* telemetry) {
        return harness_replica(parallel.cells[c], r, rng, telemetry);
      },
      options);
  EXPECT_EQ(grid.jobs_used, 4);
  EXPECT_EQ(grid.progress.replicas_failed, 0u);
  parallel.aggregates = std::move(grid.aggregates);

  exp::RunOptions serial_options;
  serial_options.jobs = 1;
  const ScenarioCampaignResult serial =
      run_scenario_campaign(sweep, serial_options);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].spec, parallel.cells[i].spec);
  }
  std::ostringstream parallel_csv;
  std::ostringstream serial_csv;
  parallel.write_csv(parallel_csv);
  serial.write_csv(serial_csv);
  EXPECT_EQ(parallel_csv.str(), serial_csv.str());
  EXPECT_NE(serial_csv.str().find("revocations"), std::string::npos);
}

}  // namespace
}  // namespace cmdare::scenario
