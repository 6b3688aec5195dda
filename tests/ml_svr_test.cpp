#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ml/crossval.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/svr.hpp"
#include "util/rng.hpp"

namespace cmdare::ml {
namespace {

Dataset linear_data(int n, util::Rng& rng, double noise_sd = 0.0) {
  Dataset d({"x"});
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.add({x}, 2.0 * x + 0.5 + (noise_sd > 0 ? rng.normal(0, noise_sd) : 0.0));
  }
  return d;
}

Dataset saturating_data(int n, util::Rng& rng) {
  // Mimics the step-time ground truth: saturating ms/GFLOP curve.
  Dataset d({"x"});
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.add({x}, 0.1 + x * (0.4 + 0.6 * std::exp(-4.0 * x)));
  }
  return d;
}

TEST(Svr, LinearKernelFitsLinearData) {
  util::Rng rng(1);
  const Dataset d = linear_data(40, rng);
  SvrConfig config;
  config.kernel.type = KernelType::kLinear;
  config.penalty = 100.0;
  config.epsilon = 0.01;
  SupportVectorRegression svr(config);
  svr.fit(d);
  const auto preds = svr.predict_all(d);
  // Epsilon-insensitive loss: errors should be within ~epsilon.
  EXPECT_LT(mean_absolute_error(d.targets(), preds), 0.02);
}

TEST(Svr, RbfKernelFitsNonlinearData) {
  util::Rng rng(2);
  const Dataset d = saturating_data(60, rng);
  SvrConfig config;
  config.kernel.type = KernelType::kRbf;
  config.penalty = 100.0;
  config.epsilon = 0.01;
  SupportVectorRegression svr(config);
  svr.fit(d);
  const auto preds = svr.predict_all(d);
  EXPECT_LT(mean_absolute_error(d.targets(), preds), 0.02);
}

TEST(Svr, RbfBeatsLinearRegressionOnCurvedData) {
  util::Rng rng(3);
  const Dataset train = saturating_data(60, rng);
  const Dataset test = saturating_data(30, rng);

  LinearRegression ols;
  ols.fit(train);
  SvrConfig config;
  config.kernel.type = KernelType::kRbf;
  config.penalty = 100.0;
  config.epsilon = 0.01;
  SupportVectorRegression svr(config);
  svr.fit(train);

  const double ols_mae =
      mean_absolute_error(test.targets(), ols.predict_all(test));
  const double svr_mae =
      mean_absolute_error(test.targets(), svr.predict_all(test));
  EXPECT_LT(svr_mae, ols_mae);
}

TEST(Svr, PolynomialKernelFitsQuadratic) {
  util::Rng rng(4);
  Dataset d({"x"});
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    d.add({x}, x * x);
  }
  SvrConfig config;
  config.kernel.type = KernelType::kPolynomial;
  config.kernel.degree = 2;
  config.penalty = 100.0;
  config.epsilon = 0.01;
  SupportVectorRegression svr(config);
  svr.fit(d);
  EXPECT_NEAR(svr.predict(std::vector<double>{0.5}), 0.25, 0.05);
  EXPECT_NEAR(svr.predict(std::vector<double>{-0.5}), 0.25, 0.05);
}

TEST(Svr, WideEpsilonTubeYieldsSparseSolution) {
  util::Rng rng(5);
  const Dataset d = linear_data(40, rng, 0.01);
  SvrConfig wide;
  wide.kernel.type = KernelType::kLinear;
  wide.penalty = 10.0;
  wide.epsilon = 2.0;  // wider than the target range
  SupportVectorRegression svr(wide);
  svr.fit(d);
  // Everything fits inside the tube around 0 -> (almost) no support
  // vectors needed.
  EXPECT_LE(svr.support_vector_count(), 2u);
}

TEST(Svr, SmallEpsilonUsesMoreSupportVectors) {
  util::Rng rng(6);
  const Dataset d = linear_data(40, rng, 0.05);
  SvrConfig narrow;
  narrow.kernel.type = KernelType::kLinear;
  narrow.penalty = 50.0;
  narrow.epsilon = 0.001;
  SupportVectorRegression svr(narrow);
  svr.fit(d);
  EXPECT_GT(svr.support_vector_count(), 10u);
}

TEST(Svr, ConvergesWithinSweepCap) {
  util::Rng rng(7);
  const Dataset d = saturating_data(50, rng);
  SupportVectorRegression svr;
  svr.fit(d);
  EXPECT_LT(svr.sweeps_used(), svr.config().max_sweeps);
  EXPECT_TRUE(svr.converged());
}

TEST(Svr, ReportsFitsStoppedBySweepCap) {
  util::Rng rng(7);
  const Dataset d = saturating_data(50, rng);
  SvrConfig config;
  config.max_sweeps = 2;
  SupportVectorRegression svr(config);
  EXPECT_FALSE(svr.converged());  // not fitted yet
  svr.fit(d);
  EXPECT_EQ(svr.sweeps_used(), 2);
  EXPECT_FALSE(svr.converged());

  // Every target inside the tube: nothing moves, so the single allowed
  // sweep meets the tolerance and the fit counts as converged.
  SvrConfig tube;
  tube.epsilon = 10.0;
  tube.max_sweeps = 1;
  SupportVectorRegression idle(tube);
  idle.fit(d);
  EXPECT_EQ(idle.sweeps_used(), 1);
  EXPECT_TRUE(idle.converged());
  EXPECT_EQ(idle.support_vector_count(), 0u);
}

TEST(Svr, ValidatesConfigAndUsage) {
  EXPECT_THROW(SupportVectorRegression(SvrConfig{{}, -1.0, 0.1, 1e-6, 100,
                                                 true}),
               std::invalid_argument);
  SupportVectorRegression svr;
  EXPECT_THROW(svr.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(svr.support_vector_count(), std::logic_error);
  Dataset empty({"x"});
  EXPECT_THROW(svr.fit(empty), std::invalid_argument);
}

TEST(Svr, DimensionMismatchAtPredictThrows) {
  util::Rng rng(8);
  const Dataset d = linear_data(10, rng);
  SupportVectorRegression svr;
  svr.fit(d);
  EXPECT_THROW(svr.predict(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

// --- Penalty path: must equal separate fits bit for bit. ---

Dataset random_data(int n, int features, util::Rng& rng) {
  std::vector<std::string> names;
  for (int f = 0; f < features; ++f) names.push_back("x" + std::to_string(f));
  Dataset d(names);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x;
    double y = 1.0;
    for (int f = 0; f < features; ++f) {
      x.push_back(rng.uniform(-1.0, 1.0));
      y += (f + 1) * x.back() + 0.5 * x.back() * x.back();
    }
    d.add(x, y + rng.normal(0.0, 0.05));
  }
  return d;
}

std::vector<std::vector<double>> probe_grid(int features) {
  std::vector<std::vector<double>> probes = {{}};
  for (int f = 0; f < features; ++f) {
    std::vector<std::vector<double>> next;
    for (const auto& p : probes) {
      for (double v = -1.25; v <= 1.25; v += 0.25) {
        next.push_back(p);
        next.back().push_back(v);
      }
    }
    probes = std::move(next);
  }
  return probes;
}

void expect_path_matches_fits(const SvrConfig& config,
                              const std::vector<double>& penalties,
                              const Dataset& d) {
  const auto path =
      SupportVectorRegression::fit_penalty_path(config, penalties, d);
  ASSERT_EQ(path.size(), penalties.size());
  const auto probes = probe_grid(static_cast<int>(d.feature_count()));
  for (std::size_t k = 0; k < penalties.size(); ++k) {
    SCOPED_TRACE("penalty " + std::to_string(penalties[k]));
    SvrConfig one = config;
    one.penalty = penalties[k];
    SupportVectorRegression fit(one);
    fit.fit(d);
    EXPECT_EQ(path[k].config().penalty, penalties[k]);
    EXPECT_EQ(path[k].config().kernel.gamma, fit.config().kernel.gamma);
    EXPECT_EQ(path[k].sweeps_used(), fit.sweeps_used());
    EXPECT_EQ(path[k].converged(), fit.converged());
    EXPECT_EQ(path[k].bias(), fit.bias());
    EXPECT_EQ(path[k].support_vector_count(), fit.support_vector_count());
    for (const auto& x : probes) {
      ASSERT_EQ(path[k].predict(x), fit.predict(x));
    }
  }
}

struct PathCase {
  const char* name;
  KernelConfig kernel;
  int features;
};

const PathCase kPathCases[] = {
    {"linear", {KernelType::kLinear, 2, 1.0, 1.0}, 1},
    {"poly", {KernelType::kPolynomial, 2, 1.0, 1.0}, 2},
    {"rbf", {KernelType::kRbf, 2, 1.0, 1.0}, 2},
};

TEST(SvrPenaltyPath, MatchesSeparateFitsOnThePaperLadder) {
  const std::vector<double> ladder = {10, 20, 30, 40, 50,
                                     60, 70, 80, 90, 100};
  util::Rng rng(20);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(18, c.features, rng);
    for (double eps : {0.01, 0.05, 0.1}) {
      SvrConfig config;
      config.kernel = c.kernel;
      config.epsilon = eps;
      config.gamma_scale = 4.0;
      expect_path_matches_fits(config, ladder, d);
    }
  }
}

TEST(SvrPenaltyPath, PenaltiesThatNeverClipShareOneRun) {
  // Candidates stay far inside the box: no penalty diverges from the
  // largest, so all share its result (same sweep count and bias).
  const std::vector<double> huge = {1e6, 1e7, 1e8};
  util::Rng rng(21);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(15, c.features, rng);
    SvrConfig config;
    config.kernel = c.kernel;
    config.epsilon = 0.02;
    expect_path_matches_fits(config, huge, d);
    const auto path =
        SupportVectorRegression::fit_penalty_path(config, huge, d);
    EXPECT_EQ(path[0].sweeps_used(), path[2].sweeps_used());
    EXPECT_EQ(path[0].bias(), path[2].bias());
  }
}

TEST(SvrPenaltyPath, PenaltiesClippedInTheFirstSweep) {
  // Targets near 1..4 against penalties far below them: the first
  // coordinate already clips every penalty but the largest.
  const std::vector<double> tiny = {0.001, 0.01, 0.1, 0.5};
  util::Rng rng(22);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(16, c.features, rng);
    SvrConfig config;
    config.kernel = c.kernel;
    config.epsilon = 0.01;
    expect_path_matches_fits(config, tiny, d);
  }
}

TEST(SvrPenaltyPath, UnsortedAndDuplicatePenalties) {
  const std::vector<double> mixed = {50, 10, 100, 10, 0.2, 75, 100, 3};
  util::Rng rng(23);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(14, c.features, rng);
    SvrConfig config;
    config.kernel = c.kernel;
    config.epsilon = 0.03;
    expect_path_matches_fits(config, mixed, d);
  }
}

TEST(SvrPenaltyPath, ForksNearTheSweepCap) {
  // A low cap stops most runs mid-descent, so forks resume from late
  // snapshots and must stop at the same sweep as a separate fit.
  const std::vector<double> ladder = {0.05, 0.3, 1, 3, 10, 30};
  util::Rng rng(24);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(20, c.features, rng);
    for (int cap : {1, 3, 40}) {
      SvrConfig config;
      config.kernel = c.kernel;
      config.epsilon = 0.01;
      config.max_sweeps = cap;
      expect_path_matches_fits(config, ladder, d);
    }
  }
}

TEST(SvrPenaltyPath, RandomizedTolerancesAndLadders) {
  // Coarse tolerances make a sweep's convergence hang on the partial
  // max |change| a snapshot carries, so forks must resume it exactly.
  const double tolerances[] = {1e-6, 1e-3, 1e-2, 0.05, 0.2};
  std::vector<double> ladder;
  for (int k = 0; k < 10; ++k) ladder.push_back(0.02 * std::pow(2.0, k));
  for (int seed = 0; seed < 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(1000 + seed);
    const PathCase& c = kPathCases[seed % 3];
    const Dataset d = random_data(6 + seed % 10, c.features, rng);
    SvrConfig config;
    config.kernel = c.kernel;
    config.epsilon = rng.uniform(0.0, 0.2);
    config.tolerance = tolerances[(seed / 3) % 5];
    expect_path_matches_fits(config, ladder, d);
  }
}

TEST(SvrPenaltyPath, ValidatesInput) {
  util::Rng rng(25);
  const Dataset d = random_data(5, 1, rng);
  const std::vector<double> negative = {10.0, -1.0};
  EXPECT_THROW(SupportVectorRegression::fit_penalty_path({}, negative, d),
               std::invalid_argument);
  const std::vector<double> one = {10.0};
  EXPECT_THROW(
      SupportVectorRegression::fit_penalty_path({}, one, Dataset({"x"})),
      std::invalid_argument);
  EXPECT_TRUE(SupportVectorRegression::fit_penalty_path({}, {}, d).empty());
}

TEST(GridSearch, EveryPointMatchesSeparateFoldFits) {
  // Each grid point's fold MAEs and capped-fold count equal per-point
  // fit() runs on the same fold assignments, in the same order.
  util::Rng data_rng(26);
  for (const auto& c : kPathCases) {
    SCOPED_TRACE(c.name);
    const Dataset d = random_data(16, c.features, data_rng);
    SvrGrid grid;
    grid.epsilon_lo = 0.02;
    grid.epsilon_hi = 0.1;
    grid.epsilon_step = 0.04;
    grid.gamma_scales = {0.5, 4.0};
    grid.cv_repeats = 2;
    const std::size_t k = 4;
    util::Rng search_rng(27);
    const SvrGridSearchResult result =
        svr_grid_search(c.kernel, d, k, search_rng, grid);
    util::Rng fold_rng(27);
    std::vector<std::vector<std::vector<std::size_t>>> fold_sets;
    for (std::size_t r = 0; r < grid.cv_repeats; ++r) {
      fold_sets.push_back(kfold_indices(d.size(), k, fold_rng));
    }
    const std::size_t scales =
        c.kernel.type == KernelType::kRbf ? grid.gamma_scales.size() : 1;
    ASSERT_EQ(result.grid.size(), scales * 10 * 3);
    std::size_t best = 0;
    for (std::size_t g = 0; g < result.grid.size(); ++g) {
      const SvrGridPoint& point = result.grid[g];
      SvrConfig config;
      config.kernel = c.kernel;
      config.penalty = point.penalty;
      config.epsilon = point.epsilon;
      config.gamma_scale = point.gamma_scale;
      std::vector<double> fold_mae;
      std::size_t capped = 0;
      for (const auto& folds : fold_sets) {
        for (std::size_t f = 0; f < folds.size(); ++f) {
          const TrainTestSplit split = kfold_split(d, folds, f);
          SupportVectorRegression svr(config);
          svr.fit(split.train);
          fold_mae.push_back(mean_absolute_error(split.test.targets(),
                                                 svr.predict_all(split.test)));
          if (!svr.converged()) ++capped;
        }
      }
      ASSERT_EQ(point.cv.fold_mae, fold_mae) << "grid point " << g;
      EXPECT_EQ(point.capped_folds, capped) << "grid point " << g;
      if (point.cv.mean_mae < result.grid[best].cv.mean_mae) best = g;
    }
    EXPECT_EQ(result.best_index, best);
  }
}

TEST(Kernel, EvaluatesKnownValues) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, 4.0};
  KernelConfig linear{KernelType::kLinear, 2, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(kernel_eval(linear, a, b), 11.0);
  KernelConfig poly{KernelType::kPolynomial, 2, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(kernel_eval(poly, a, b), 144.0);  // (11+1)^2
  KernelConfig rbf{KernelType::kRbf, 2, 1.0, 0.5};
  EXPECT_NEAR(kernel_eval(rbf, a, b), std::exp(-0.5 * 8.0), 1e-12);
  EXPECT_NEAR(kernel_eval(rbf, a, a), 1.0, 1e-12);
}

TEST(Kernel, GammaHeuristicPositive) {
  Dataset d({"x"});
  d.add({0.0}, 0.0);
  d.add({1.0}, 0.0);
  d.add({2.0}, 0.0);
  EXPECT_GT(rbf_gamma_heuristic(d), 0.0);
  Dataset degenerate({"x"});
  degenerate.add({1.0}, 0.0);
  degenerate.add({1.0}, 0.0);
  EXPECT_DOUBLE_EQ(rbf_gamma_heuristic(degenerate), 1.0);
}

TEST(CrossVal, ReportsPerFoldErrors) {
  util::Rng rng(9);
  const Dataset d = linear_data(30, rng, 0.02);
  LinearRegression prototype;
  util::Rng cv_rng(10);
  const CrossValResult cv = cross_validate(prototype, d, 5, cv_rng);
  EXPECT_EQ(cv.fold_mae.size(), 5u);
  EXPECT_LT(cv.mean_mae, 0.05);
  EXPECT_GE(cv.sd_mae, 0.0);
}

TEST(GridSearch, CoversFullPaperGrid) {
  util::Rng rng(11);
  const Dataset d = linear_data(25, rng, 0.02);
  util::Rng gs_rng(12);
  const KernelConfig rbf{KernelType::kRbf, 2, 1.0, 1.0};
  const SvrGridSearchResult result = svr_grid_search(rbf, d, 5, gs_rng);
  // 10 penalties x 10 epsilons x 5 gamma scales (RBF only).
  EXPECT_EQ(result.grid.size(), 500u);
  EXPECT_DOUBLE_EQ(result.grid.front().penalty, 10.0);
  EXPECT_NEAR(result.grid.front().epsilon, 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(result.grid.back().penalty, 100.0);
  EXPECT_NEAR(result.grid.back().epsilon, 0.1, 1e-12);

  // Non-RBF kernels do not scan gamma: 10 x 10 points.
  const KernelConfig poly{KernelType::kPolynomial, 2, 1.0, 1.0};
  util::Rng gs_rng2(13);
  EXPECT_EQ(svr_grid_search(poly, d, 5, gs_rng2).grid.size(), 100u);
  // Best has the minimum mean MAE.
  for (const auto& point : result.grid) {
    EXPECT_GE(point.cv.mean_mae, result.best().cv.mean_mae);
  }
}

TEST(GridSearch, TunedSvrPredictsWell) {
  util::Rng rng(13);
  const Dataset train = saturating_data(50, rng);
  const Dataset test = saturating_data(20, rng);
  util::Rng gs_rng(14);
  const KernelConfig rbf{KernelType::kRbf, 2, 1.0, 1.0};
  const TunedSvr tuned = fit_tuned_svr(rbf, train, 5, gs_rng);
  const double mae =
      mean_absolute_error(test.targets(), tuned.model->predict_all(test));
  EXPECT_LT(mae, 0.03);
  EXPECT_GE(tuned.chosen.penalty, 10.0);
  EXPECT_LE(tuned.chosen.penalty, 100.0);
}

}  // namespace
}  // namespace cmdare::ml
