// The "resilience" campaign: degradation curves under injected faults,
// byte-identical at any --jobs value.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/catalog.hpp"

namespace cmdare::scenario {
namespace {

SweepAxis& fault_rate_axis(ScenarioSweep& sweep) {
  for (SweepAxis& axis : sweep.axes) {
    if (axis.key == "fault_rate") return axis;
  }
  throw std::invalid_argument("resilience sweep has no fault_rate axis");
}

ScenarioSweep shrunk_sweep() {
  // The catalog sweep with a test-sized budget: 2 fault rates x 2
  // replicas, short runs.
  ScenarioSweep sweep = sweep_by_name("resilience").sweep;
  sweep.replicas = 2;
  fault_rate_axis(sweep).values = {"0.00", "0.20"};
  sweep.base.max_steps = 200;
  sweep.base.checkpoint_interval_steps = 50;
  return sweep;
}

TEST(ResilienceCampaign, InCatalogWithFaultRateGrid) {
  ScenarioSweep sweep = sweep_by_name("resilience").sweep;
  EXPECT_EQ(fault_rate_axis(sweep).values.size(), 4u);
  const auto cells = expand(sweep);
  EXPECT_EQ(cells.size(), 4u);
  // fault_rate is the innermost axis, swept upwards from fault-free.
  EXPECT_EQ(cells.front().setting("fault_rate"), "0.00");
  EXPECT_DOUBLE_EQ(cells.front().spec.faults.launch_error_rate, 0.0);
  EXPECT_EQ(cells.back().setting("fault_rate"), "0.20");
  EXPECT_DOUBLE_EQ(cells.back().spec.faults.launch_error_rate, 0.2);
}

TEST(ResilienceCampaign, CsvByteIdenticalAcrossJobCounts) {
  const ScenarioSweep sweep = shrunk_sweep();
  const ScenarioReplicaFn& replica = sweep_by_name("resilience").replica;

  exp::RunOptions serial;
  serial.jobs = 1;
  exp::RunOptions parallel;
  parallel.jobs = 4;

  std::ostringstream csv_serial;
  run_scenario_campaign(sweep, serial, replica).write_csv(csv_serial);
  std::ostringstream csv_parallel;
  run_scenario_campaign(sweep, parallel, replica).write_csv(csv_parallel);

  EXPECT_FALSE(csv_serial.str().empty());
  EXPECT_EQ(csv_serial.str(), csv_parallel.str());
  EXPECT_NE(csv_serial.str().find("fault_rate"), std::string::npos);
}

TEST(ResilienceCampaign, FaultyCellsDegradeGracefully) {
  const ScenarioSweep sweep = shrunk_sweep();
  exp::RunOptions options;
  options.jobs = 2;
  const ScenarioCampaignResult result = run_scenario_campaign(
      sweep, options, sweep_by_name("resilience").replica);

  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.progress.replicas_failed, 0u);  // no replica threw

  const exp::CellAggregate& clean = result.aggregates[0];
  const exp::CellAggregate& faulty = result.aggregates[1];
  // Fault-free cells never retry; 20% cells must show resilience work
  // (the stockout window alone guarantees launch retries) and still
  // complete every replica within the horizon.
  EXPECT_DOUBLE_EQ(clean.metrics.at("launch_retries").running.mean(), 0.0);
  EXPECT_DOUBLE_EQ(clean.metrics.at("completed").running.mean(), 1.0);
  EXPECT_GT(faulty.metrics.at("launch_retries").running.mean(), 0.0);
  EXPECT_GT(faulty.metrics.at("faults_injected").running.mean(), 0.0);
  EXPECT_DOUBLE_EQ(faulty.metrics.at("completed").running.mean(), 1.0);
}

}  // namespace
}  // namespace cmdare::scenario
