// Cross-validation and hyperparameter grid search.
//
// Reproduces the paper's evaluation protocol (Section III-B): k-fold MAE
// (mean ± sd across folds) on training data, MAE on a held-out test set,
// and grid-search CV over the SVR hyperparameters (penalty in [10, 100]
// step 10, epsilon in [0.01, 0.1] step 0.01).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/regressor.hpp"
#include "ml/svr.hpp"

namespace cmdare::ml {

struct CrossValResult {
  /// Per-fold validation MAE.
  std::vector<double> fold_mae;
  double mean_mae = 0.0;
  double sd_mae = 0.0;  // 0 when folds < 2
};

/// k-fold cross-validation of an (unfitted) regressor prototype. With
/// `repeats` > 1 the CV is run over that many independent fold
/// assignments and all folds are pooled — "repeated k-fold", which
/// stabilizes model comparisons on small datasets (20 models).
CrossValResult cross_validate(const Regressor& prototype, const Dataset& data,
                              std::size_t k, util::Rng& rng,
                              std::size_t repeats = 1);

/// One point of the SVR hyperparameter grid.
struct SvrGridPoint {
  double penalty;
  double epsilon;
  double gamma_scale = 1.0;  // RBF kernels only
  CrossValResult cv;
  /// Fold fits that stopped at SvrConfig::max_sweeps before meeting the
  /// tolerance (SupportVectorRegression::converged() false).
  std::size_t capped_folds = 0;
};

struct SvrGridSearchResult {
  std::vector<SvrGridPoint> grid;
  /// Index into `grid` of the best (lowest mean CV MAE) point.
  std::size_t best_index = 0;

  const SvrGridPoint& best() const { return grid.at(best_index); }
};

/// The paper's hyperparameter grid (penalty in [10, 100] step 10, epsilon
/// in [0.01, 0.1] step 0.01), extended with a kernel-width scan for RBF
/// kernels (multipliers on the variance-heuristic gamma).
struct SvrGrid {
  double penalty_lo = 10.0;
  double penalty_hi = 100.0;
  double penalty_step = 10.0;
  double epsilon_lo = 0.01;
  double epsilon_hi = 0.1;
  double epsilon_step = 0.01;
  /// Scanned only for RBF kernels; other kernels use a single pass.
  std::vector<double> gamma_scales = {0.25, 0.5, 1.0, 2.0, 4.0};
  /// Independent fold assignments pooled per grid point (repeated CV).
  std::size_t cv_repeats = 1;
};

/// Grid-search CV: for every (penalty, epsilon) pair, k-fold cross
/// validates an SVR with the given kernel and records the MAE. All grid
/// points use the same fold assignment so the comparison is paired. The
/// penalties of one (gamma scale, epsilon, fold) are fitted as one
/// SupportVectorRegression::fit_penalty_path, which equals separate fits
/// bit for bit.
SvrGridSearchResult svr_grid_search(const KernelConfig& kernel,
                                    const Dataset& data, std::size_t k,
                                    util::Rng& rng, const SvrGrid& grid = {});

/// Fits an SVR with grid-searched hyperparameters on the full dataset and
/// returns it together with the winning grid point.
struct TunedSvr {
  std::unique_ptr<SupportVectorRegression> model;
  SvrGridPoint chosen;
};
TunedSvr fit_tuned_svr(const KernelConfig& kernel, const Dataset& data,
                       std::size_t k, util::Rng& rng, const SvrGrid& grid = {});

}  // namespace cmdare::ml
