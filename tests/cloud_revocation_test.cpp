#include <gtest/gtest.h>

#include <cmath>

#include "cloud/provider.hpp"
#include "cloud/revocation.hpp"
#include "simcore/simulator.hpp"
#include "stats/descriptive.hpp"

namespace cmdare::cloud {
namespace {

TEST(RevocationTargets, TwelveMeasuredCombinations) {
  EXPECT_EQ(revocation_targets().size(), 12u);
  int k80 = 0, p100 = 0, v100 = 0;
  for (const auto& t : revocation_targets()) {
    if (t.gpu == GpuType::kK80) k80 += t.servers_launched;
    if (t.gpu == GpuType::kP100) p100 += t.servers_launched;
    if (t.gpu == GpuType::kV100) v100 += t.servers_launched;
  }
  // Table V totals: 156 K80, 120 P100, 120 V100 (396 servers).
  EXPECT_EQ(k80, 156);
  EXPECT_EQ(p100, 120);
  EXPECT_EQ(v100, 120);
}

TEST(RevocationTargets, NaCombinationsRejected) {
  EXPECT_FALSE(gpu_offered_in_region(Region::kUsEast1, GpuType::kV100));
  EXPECT_FALSE(gpu_offered_in_region(Region::kEuropeWest4, GpuType::kK80));
  EXPECT_FALSE(gpu_offered_in_region(Region::kAsiaEast1, GpuType::kP100));
  EXPECT_TRUE(gpu_offered_in_region(Region::kUsCentral1, GpuType::kK80));
  EXPECT_THROW(revocation_target(Region::kUsEast1, GpuType::kV100),
               std::invalid_argument);
}

TEST(RevocationModel, CalibratedProbabilitiesHitTableV) {
  const RevocationModel model;
  for (const auto& t : revocation_targets()) {
    const double p = model.revocation_probability(
        t.region, t.gpu, kReferenceLaunchLocalHour);
    EXPECT_NEAR(p, t.revoked_fraction, 0.01)
        << region_name(t.region) << " " << gpu_name(t.gpu);
  }
}

// The shared instance is the calibration a fresh model computes, bit for
// bit, and samples the same draws from the same seed.
TEST(RevocationModel, CalibratedInstanceMatchesFreshModel) {
  const RevocationModel& shared = RevocationModel::calibrated();
  EXPECT_EQ(&shared, &RevocationModel::calibrated());
  const RevocationModel fresh;
  for (const auto& t : revocation_targets()) {
    EXPECT_EQ(shared.base_rate_per_hour(t.region, t.gpu),
              fresh.base_rate_per_hour(t.region, t.gpu))
        << region_name(t.region) << " " << gpu_name(t.gpu);
    util::Rng shared_rng(7);
    util::Rng fresh_rng(7);
    for (int i = 0; i < 200; ++i) {
      const double hour = static_cast<double>(i % 24);
      EXPECT_EQ(shared.sample_revocation_age_seconds(t.region, t.gpu, hour,
                                                     shared_rng),
                fresh.sample_revocation_age_seconds(t.region, t.gpu, hour,
                                                    fresh_rng))
          << region_name(t.region) << " " << gpu_name(t.gpu) << " " << i;
    }
  }
  EXPECT_THROW(shared.base_rate_per_hour(Region::kUsEast1, GpuType::kV100),
               std::invalid_argument);
}

TEST(RevocationModel, ProvidersShareTheCalibratedModel) {
  simcore::Simulator sim;
  const CloudProvider first(sim, util::Rng(1));
  const CloudProvider second(sim, util::Rng(2));
  EXPECT_EQ(&first.revocation_model(), &second.revocation_model());
  EXPECT_EQ(&first.revocation_model(), &RevocationModel::calibrated());
}

TEST(RevocationModel, SampledFrequenciesMatchTargets) {
  const RevocationModel model;
  util::Rng rng(101);
  for (const auto& t : {revocation_target(Region::kUsWest1, GpuType::kK80),
                        revocation_target(Region::kUsEast1, GpuType::kP100),
                        revocation_target(Region::kAsiaEast1,
                                          GpuType::kV100)}) {
    int revoked = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      if (model.sample_revocation_age_seconds(t.region, t.gpu,
                                              kReferenceLaunchLocalHour, rng)) {
        ++revoked;
      }
    }
    EXPECT_NEAR(static_cast<double>(revoked) / n, t.revoked_fraction, 0.03)
        << region_name(t.region) << " " << gpu_name(t.gpu);
  }
}

TEST(RevocationModel, SampledAgesRespectLifetimeCap) {
  const RevocationModel model;
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto age = model.sample_revocation_age_seconds(
        Region::kUsCentral1, GpuType::kV100, 9.0, rng);
    if (age) {
      EXPECT_GT(*age, 0.0);
      EXPECT_LT(*age, kMaxTransientLifetimeSeconds);
    }
  }
}

TEST(RevocationModel, V100QuietWindowHasNoRevocations) {
  // Figure 9: no V100 revocations between 4 PM and 8 PM local.
  const RevocationModel model;
  for (double hour : {16.0, 17.0, 18.5, 19.9}) {
    EXPECT_DOUBLE_EQ(model.tod_weight(GpuType::kV100, hour), 0.0);
  }
  EXPECT_GT(model.tod_weight(GpuType::kV100, 9.0), 0.0);
}

TEST(RevocationModel, K80PeaksAtTenAm) {
  const RevocationModel model;
  const double peak = model.tod_weight(GpuType::kK80, 10.5);
  for (int h = 0; h < 24; ++h) {
    EXPECT_LE(model.tod_weight(GpuType::kK80, h + 0.5), peak);
  }
}

TEST(RevocationModel, EuropeWest1K80DiesYoung) {
  // Figure 8: europe-west1 K80s are mostly revoked within two hours.
  const RevocationModel model;
  util::Rng rng(55);
  int revoked = 0, early = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto age = model.sample_revocation_age_seconds(
        Region::kEuropeWest1, GpuType::kK80, 9.0, rng);
    if (age) {
      ++revoked;
      if (*age < 2.0 * 3600.0) ++early;
    }
  }
  ASSERT_GT(revoked, 0);
  // >50% of *all* launched servers revoked within two hours.
  EXPECT_GT(static_cast<double>(early) / 4000.0, 0.45);
}

TEST(RevocationModel, UsWest1K80RarelyDiesEarly) {
  // Figure 8: <5% of us-west1 K80s revoked in the first two hours.
  const RevocationModel model;
  util::Rng rng(56);
  int early = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto age = model.sample_revocation_age_seconds(
        Region::kUsWest1, GpuType::kK80, 9.0, rng);
    if (age && *age < 2.0 * 3600.0) ++early;
  }
  EXPECT_LT(static_cast<double>(early) / n, 0.05);
}

TEST(RevocationModel, MoreExpensiveGpusRevokedMore) {
  // Table V: total revocation fraction rises K80 -> P100 -> V100.
  double frac[3] = {0, 0, 0};
  int total[3] = {0, 0, 0};
  for (const auto& t : revocation_targets()) {
    frac[static_cast<int>(t.gpu)] +=
        t.revoked_fraction * t.servers_launched;
    total[static_cast<int>(t.gpu)] += t.servers_launched;
  }
  const double k80 = frac[0] / total[0];
  const double p100 = frac[1] / total[1];
  const double v100 = frac[2] / total[2];
  EXPECT_LT(k80, p100);
  EXPECT_LT(p100, v100);
  EXPECT_NEAR(k80, 0.4615, 0.01);   // 46.15%
  EXPECT_NEAR(v100, 0.575, 0.01);   // 57.5%
}

TEST(RevocationModel, HazardValidatesInput) {
  const RevocationModel model;
  EXPECT_THROW(model.tod_weight(GpuType::kK80, 24.0), std::invalid_argument);
  EXPECT_THROW(model.age_shape(Region::kUsEast1, GpuType::kK80, -1.0),
               std::invalid_argument);
  EXPECT_THROW(model.base_rate_per_hour(Region::kUsEast1, GpuType::kV100),
               std::invalid_argument);
}

TEST(RevocationModel, HazardComposesFactors) {
  const RevocationModel model;
  const double base =
      model.base_rate_per_hour(Region::kEuropeWest1, GpuType::kK80);
  // Launch at 9:00 local; at age 1 h the local hour is 10 (K80 peak) and
  // the early-age multiplier is still large.
  const double h = model.hazard_per_hour(Region::kEuropeWest1, GpuType::kK80,
                                         9.0, 1.0);
  EXPECT_NEAR(h,
              base * model.tod_weight(GpuType::kK80, 10.0) *
                  model.age_shape(Region::kEuropeWest1, GpuType::kK80, 1.0),
              1e-12);
}

TEST(RevocationModel, MeanLifetimeOrderingAcrossRegions) {
  // us-west1 K80s should live much longer (capped mean) than europe-west1
  // K80s — the Figure 8 contrast.
  const RevocationModel model;
  util::Rng rng(77);
  const auto mean_capped_lifetime = [&](Region region) {
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      const auto age =
          model.sample_revocation_age_seconds(region, GpuType::kK80, 9.0, rng);
      sum += age.value_or(kMaxTransientLifetimeSeconds);
    }
    return sum / n / 3600.0;
  };
  const double west = mean_capped_lifetime(Region::kUsWest1);
  const double europe = mean_capped_lifetime(Region::kEuropeWest1);
  EXPECT_GT(west, 19.0);
  EXPECT_LT(europe, 12.0);
}

}  // namespace
}  // namespace cmdare::cloud
