#include "ml/crossval.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ml/metrics.hpp"
#include "stats/descriptive.hpp"

namespace cmdare::ml {
namespace {

// Fills the mean and sd from the per-fold MAEs.
void summarize(CrossValResult& cv) {
  cv.mean_mae = stats::mean(cv.fold_mae);
  cv.sd_mae = cv.fold_mae.size() >= 2 ? stats::stddev(cv.fold_mae) : 0.0;
}

// Points lo, lo + step, ... up to hi. Counted with an integer so that
// floating-point drift never skips the last point.
std::vector<double> grid_axis(double lo, double hi, double step) {
  const int count = static_cast<int>(std::floor((hi - lo) / step + 1.5));
  std::vector<double> axis;
  for (int i = 0; i < count; ++i) {
    const double value = lo + step * i;
    if (value > hi + 1e-9) break;
    axis.push_back(value);
  }
  return axis;
}

}  // namespace

CrossValResult cross_validate(const Regressor& prototype, const Dataset& data,
                              std::size_t k, util::Rng& rng,
                              std::size_t repeats) {
  if (repeats < 1) {
    throw std::invalid_argument("cross_validate: repeats must be >= 1");
  }
  CrossValResult pooled;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto folds = kfold_indices(data.size(), k, rng);
    for (std::size_t f = 0; f < folds.size(); ++f) {
      const TrainTestSplit split = kfold_split(data, folds, f);
      auto model = prototype.clone_unfitted();
      model->fit(split.train);
      pooled.fold_mae.push_back(mean_absolute_error(
          split.test.targets(), model->predict_all(split.test)));
    }
  }
  summarize(pooled);
  return pooled;
}

SvrGridSearchResult svr_grid_search(const KernelConfig& kernel,
                                    const Dataset& data, std::size_t k,
                                    util::Rng& rng, const SvrGrid& grid) {
  if (grid.penalty_step <= 0.0 || grid.epsilon_step <= 0.0) {
    throw std::invalid_argument("svr_grid_search: steps must be > 0");
  }
  if (grid.cv_repeats < 1) {
    throw std::invalid_argument("svr_grid_search: cv_repeats must be >= 1");
  }
  // All grid points share the same fold assignments so comparisons pair.
  std::vector<std::vector<std::vector<std::size_t>>> fold_sets;
  for (std::size_t r = 0; r < grid.cv_repeats; ++r) {
    fold_sets.push_back(kfold_indices(data.size(), k, rng));
  }

  const std::vector<double> penalties =
      grid_axis(grid.penalty_lo, grid.penalty_hi, grid.penalty_step);
  const std::vector<double> epsilons =
      grid_axis(grid.epsilon_lo, grid.epsilon_hi, grid.epsilon_step);
  std::vector<double> gamma_scales =
      kernel.type == KernelType::kRbf ? grid.gamma_scales
                                      : std::vector<double>{1.0};
  if (gamma_scales.empty()) {
    throw std::invalid_argument("svr_grid_search: empty gamma_scales");
  }
  if (penalties.empty() || epsilons.empty()) {
    throw std::invalid_argument("svr_grid_search: empty grid");
  }

  // Each fold is split once per gamma scale, and one penalty path per
  // epsilon fits every penalty on it. Points are stored in (penalty,
  // epsilon) order and folds in (fold set, fold) order, so the grid and the
  // tie-breaking of the best point read as if every point were fitted on
  // its own.
  SvrGridSearchResult result;
  double best = std::numeric_limits<double>::infinity();
  const std::size_t ne = epsilons.size();
  for (double gamma_scale : gamma_scales) {
    std::vector<SvrGridPoint> points;
    for (double penalty : penalties) {
      for (double eps : epsilons) {
        points.push_back({penalty, eps, gamma_scale, {}, 0});
      }
    }
    for (const auto& folds : fold_sets) {
      for (std::size_t f = 0; f < folds.size(); ++f) {
        const TrainTestSplit split = kfold_split(data, folds, f);
        for (std::size_t ie = 0; ie < ne; ++ie) {
          SvrConfig config;
          config.kernel = kernel;
          config.epsilon = epsilons[ie];
          config.gamma_scale = gamma_scale;
          const auto models = SupportVectorRegression::fit_penalty_path(
              config, penalties, split.train);
          for (std::size_t ip = 0; ip < models.size(); ++ip) {
            SvrGridPoint& point = points[ip * ne + ie];
            point.cv.fold_mae.push_back(mean_absolute_error(
                split.test.targets(), models[ip].predict_all(split.test)));
            if (!models[ip].converged()) ++point.capped_folds;
          }
        }
      }
    }
    for (SvrGridPoint& point : points) {
      summarize(point.cv);
      if (point.cv.mean_mae < best) {
        best = point.cv.mean_mae;
        result.best_index = result.grid.size();
      }
      result.grid.push_back(std::move(point));
    }
  }
  return result;
}

TunedSvr fit_tuned_svr(const KernelConfig& kernel, const Dataset& data,
                       std::size_t k, util::Rng& rng, const SvrGrid& grid) {
  SvrGridSearchResult search = svr_grid_search(kernel, data, k, rng, grid);
  const SvrGridPoint& chosen = search.best();
  SvrConfig config;
  config.kernel = kernel;
  config.penalty = chosen.penalty;
  config.epsilon = chosen.epsilon;
  config.gamma_scale = chosen.gamma_scale;
  auto model = std::make_unique<SupportVectorRegression>(config);
  model->fit(data);
  return TunedSvr{std::move(model), chosen};
}

}  // namespace cmdare::ml
