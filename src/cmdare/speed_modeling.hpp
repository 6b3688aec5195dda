// Step-time regression study and deployable predictor (Section III-B,
// Table II).
//
// evaluate_step_time_models() reruns the paper's protocol: eight models —
// GPU-agnostic univariate (C_norm) and multivariate (C_m, C_gpu), plus
// per-GPU univariate / polynomial-SVR / RBF-SVR for K80 and P100 — each
// evaluated with a 4:1 train/test split, k-fold cross-validated MAE on the
// training data, and MAE/MAPE on the held-out test set. SVR
// hyperparameters are grid-searched over the paper's ranges.
//
// StepTimePredictor is the deployable artifact: a per-GPU tuned RBF-SVR
// (the Table II winner) that predicts step time for unseen CNN models from
// their complexity, used by the heterogeneous-cluster predictor and the
// bottleneck detector (Section VI).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cmdare/measurement.hpp"
#include "ml/crossval.hpp"
#include "ml/scaler.hpp"
#include "ml/svr.hpp"

namespace cmdare::core {

struct RegressionEval {
  std::string name;
  std::string features;
  double kfold_mae = 0.0;
  double kfold_mae_sd = 0.0;
  double test_mae = 0.0;
  double test_mape = 0.0;  // percent
};

/// One row of Tables II and IV: a 4:1 split of `dataset` (RNG stream
/// "split-" + name), k-fold CV MAE of `prototype` on the training part
/// (stream "cv-" + name), and the MAE/MAPE on the held-out part of a fit on
/// the training part.
RegressionEval evaluate_regressor(const std::string& name,
                                  const std::string& features,
                                  const ml::Regressor& prototype,
                                  const ml::Dataset& dataset, util::Rng& rng,
                                  std::size_t folds);

/// As evaluate_regressor for an SVR whose hyperparameters are grid-searched
/// on the training part (ml::fit_tuned_svr); the CV figures are those of
/// the chosen grid point.
RegressionEval evaluate_tuned_svr(const std::string& name,
                                  const std::string& features,
                                  const ml::KernelConfig& kernel,
                                  const ml::Dataset& dataset, util::Rng& rng,
                                  std::size_t folds);

/// Reruns the Table II comparison on the given measurements (expects all
/// three GPUs present; the per-GPU rows use K80 and P100, as the paper
/// does). `folds` is the k of k-fold CV.
std::vector<RegressionEval> evaluate_step_time_models(
    const std::vector<StepTimeMeasurement>& measurements, util::Rng& rng,
    std::size_t folds = 8);

class StepTimePredictor {
 public:
  /// Trains one grid-searched RBF-SVR per GPU type present in
  /// `measurements`.
  static StepTimePredictor train(
      const std::vector<StepTimeMeasurement>& measurements, util::Rng& rng,
      std::size_t folds = 8);

  /// Predicted mean step time (seconds) for a model of the given
  /// complexity on one GPU worker. Throws if the GPU was not trained.
  double predict_step_seconds(cloud::GpuType gpu, double gflops) const;

  /// Predicted training speed (steps/second) of a single worker.
  double predict_speed(cloud::GpuType gpu, double gflops) const;

  bool supports(cloud::GpuType gpu) const;

 private:
  struct PerGpu {
    ml::MinMaxScaler scaler;  // over C_m
    std::shared_ptr<ml::SupportVectorRegression> model;
  };
  std::map<cloud::GpuType, PerGpu> per_gpu_;
};

}  // namespace cmdare::core
