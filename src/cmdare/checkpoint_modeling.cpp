#include "cmdare/checkpoint_modeling.hpp"

#include <stdexcept>

#include "ml/linreg.hpp"
#include "ml/pca.hpp"

namespace cmdare::core {

std::vector<RegressionEval> evaluate_checkpoint_models(
    const std::vector<CheckpointMeasurement>& measurements, util::Rng& rng,
    std::size_t folds) {
  if (measurements.size() < folds + 1) {
    throw std::invalid_argument(
        "evaluate_checkpoint_models: not enough measurements");
  }
  std::vector<RegressionEval> results;
  results.push_back(evaluate_regressor(
      "Univariate", "S_c", ml::LinearRegression(),
      checkpoint_dataset_total(measurements), rng, folds));
  results.push_back(evaluate_regressor(
      "Multivariate", "S_d, S_m", ml::LinearRegression(),
      checkpoint_dataset_data_meta(measurements), rng, folds));
  results.push_back(evaluate_regressor(
      "Multivariate, Two Components PCA", "S_d, S_m, S_i",
      ml::PcaRegression(2), checkpoint_dataset_all(measurements), rng,
      folds));
  // SVR RBF on S_c, grid-searched like the step-time study.
  const ml::KernelConfig rbf{ml::KernelType::kRbf, 2, 1.0, 1.0};
  results.push_back(evaluate_tuned_svr("SVR RBF kernel", "S_c", rbf,
                                       checkpoint_dataset_total(measurements),
                                       rng, folds));
  return results;
}

CheckpointTimePredictor CheckpointTimePredictor::train(
    const std::vector<CheckpointMeasurement>& measurements, util::Rng& rng,
    std::size_t folds) {
  if (measurements.size() < folds) {
    throw std::invalid_argument(
        "CheckpointTimePredictor::train: not enough measurements");
  }
  CheckpointTimePredictor predictor;
  std::vector<double> sizes;
  sizes.reserve(measurements.size());
  for (const auto& m : measurements) sizes.push_back(m.total_mb);
  predictor.scaler_.fit(sizes);

  ml::Dataset dataset({"s_c_mb"});
  for (const auto& m : measurements) {
    dataset.add({predictor.scaler_.transform_scalar(m.total_mb)},
                m.mean_seconds);
  }
  const ml::KernelConfig rbf{ml::KernelType::kRbf, 2, 1.0, 1.0};
  util::Rng local = rng.fork("ckpt-predictor");
  ml::TunedSvr tuned = ml::fit_tuned_svr(rbf, dataset, folds, local);
  predictor.model_ = std::move(tuned.model);
  return predictor;
}

double CheckpointTimePredictor::predict_seconds_for_mb(double total_mb) const {
  if (!model_) throw std::logic_error("CheckpointTimePredictor: not trained");
  const double x = scaler_.transform_scalar(total_mb);
  return model_->predict(std::vector<double>{x});
}

double CheckpointTimePredictor::predict_seconds(
    const nn::CnnModel& model) const {
  const auto sizes = nn::checkpoint_sizes(model);
  return predict_seconds_for_mb(static_cast<double>(sizes.total_bytes()) /
                                1e6);
}

}  // namespace cmdare::core
