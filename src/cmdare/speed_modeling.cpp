#include "cmdare/speed_modeling.hpp"

#include <stdexcept>

#include "ml/linreg.hpp"
#include "ml/metrics.hpp"

namespace cmdare::core {
namespace {

ml::TrainTestSplit split_for(const std::string& name,
                             const ml::Dataset& dataset,
                             const util::Rng& rng) {
  util::Rng split_rng = rng.fork("split-" + name);
  return ml::train_test_split(dataset, 0.8, split_rng);
}

RegressionEval held_out_eval(const std::string& name,
                             const std::string& features,
                             const ml::CrossValResult& cv,
                             const ml::Regressor& fitted,
                             const ml::Dataset& test) {
  const auto predicted = fitted.predict_all(test);
  RegressionEval eval;
  eval.name = name;
  eval.features = features;
  eval.kfold_mae = cv.mean_mae;
  eval.kfold_mae_sd = cv.sd_mae;
  eval.test_mae = ml::mean_absolute_error(test.targets(), predicted);
  eval.test_mape =
      ml::mean_absolute_percentage_error(test.targets(), predicted);
  return eval;
}

}  // namespace

RegressionEval evaluate_regressor(const std::string& name,
                                  const std::string& features,
                                  const ml::Regressor& prototype,
                                  const ml::Dataset& dataset, util::Rng& rng,
                                  std::size_t folds) {
  const ml::TrainTestSplit split = split_for(name, dataset, rng);
  util::Rng cv_rng = rng.fork("cv-" + name);
  const ml::CrossValResult cv =
      ml::cross_validate(prototype, split.train, folds, cv_rng);
  const auto fitted = prototype.clone_unfitted();
  fitted->fit(split.train);
  return held_out_eval(name, features, cv, *fitted, split.test);
}

RegressionEval evaluate_tuned_svr(const std::string& name,
                                  const std::string& features,
                                  const ml::KernelConfig& kernel,
                                  const ml::Dataset& dataset, util::Rng& rng,
                                  std::size_t folds) {
  const ml::TrainTestSplit split = split_for(name, dataset, rng);
  util::Rng cv_rng = rng.fork("cv-" + name);
  const ml::TunedSvr tuned =
      ml::fit_tuned_svr(kernel, split.train, folds, cv_rng);
  return held_out_eval(name, features, tuned.chosen.cv, *tuned.model,
                       split.test);
}

std::vector<RegressionEval> evaluate_step_time_models(
    const std::vector<StepTimeMeasurement>& measurements, util::Rng& rng,
    std::size_t folds) {
  if (measurements.empty()) {
    throw std::invalid_argument("evaluate_step_time_models: no measurements");
  }
  std::vector<RegressionEval> results;

  // GPU-agnostic models over all measurements.
  const ml::LinearRegression ols;
  results.push_back(evaluate_regressor("Univariate, GPU-agnostic", "C_norm",
                                       ols, step_dataset_cnorm(measurements),
                                       rng, folds));
  results.push_back(evaluate_regressor(
      "Multivariate, GPU-agnostic", "C_m, C_gpu", ols,
      step_dataset_cm_cgpu(measurements), rng, folds));

  // GPU-specific models (the paper reports K80 and P100 rows).
  const ml::KernelConfig poly{ml::KernelType::kPolynomial, 2, 1.0, 1.0};
  const ml::KernelConfig rbf{ml::KernelType::kRbf, 2, 1.0, 1.0};
  for (cloud::GpuType gpu : {cloud::GpuType::kK80, cloud::GpuType::kP100}) {
    const auto subset = filter_gpu(measurements, gpu);
    if (subset.empty()) continue;
    const ml::Dataset dataset = step_dataset_cm(subset);
    const std::string gpu_label = cloud::gpu_name(gpu);
    results.push_back(evaluate_regressor("Univariate, " + gpu_label, "C_m",
                                         ols, dataset, rng, folds));
    results.push_back(evaluate_tuned_svr("SVR Polynomial Kernel, " + gpu_label,
                                         "C_m", poly, dataset, rng, folds));
    results.push_back(evaluate_tuned_svr("SVR RBF Kernel, " + gpu_label,
                                         "C_m", rbf, dataset, rng, folds));
  }
  return results;
}

StepTimePredictor StepTimePredictor::train(
    const std::vector<StepTimeMeasurement>& measurements, util::Rng& rng,
    std::size_t folds) {
  StepTimePredictor predictor;
  const ml::KernelConfig rbf{ml::KernelType::kRbf, 2, 1.0, 1.0};
  for (cloud::GpuType gpu : cloud::kAllGpuTypes) {
    const auto subset = filter_gpu(measurements, gpu);
    if (subset.size() < folds) continue;

    PerGpu per;
    std::vector<double> complexities;
    complexities.reserve(subset.size());
    for (const auto& m : subset) complexities.push_back(m.gflops);
    per.scaler.fit(complexities);

    ml::Dataset dataset({"c_m"});
    for (const auto& m : subset) {
      dataset.add({per.scaler.transform_scalar(m.gflops)},
                  m.mean_step_seconds);
    }
    util::Rng local = rng.fork(std::string("train-") + cloud::gpu_name(gpu));
    ml::TunedSvr tuned = ml::fit_tuned_svr(rbf, dataset, folds, local);
    per.model = std::move(tuned.model);
    predictor.per_gpu_.emplace(gpu, std::move(per));
  }
  if (predictor.per_gpu_.empty()) {
    throw std::invalid_argument(
        "StepTimePredictor::train: not enough measurements for any GPU");
  }
  return predictor;
}

bool StepTimePredictor::supports(cloud::GpuType gpu) const {
  return per_gpu_.count(gpu) != 0;
}

double StepTimePredictor::predict_step_seconds(cloud::GpuType gpu,
                                               double gflops) const {
  const auto it = per_gpu_.find(gpu);
  if (it == per_gpu_.end()) {
    throw std::invalid_argument(
        std::string("StepTimePredictor: no model for ") +
        cloud::gpu_name(gpu));
  }
  const double x = it->second.scaler.transform_scalar(gflops);
  return it->second.model->predict(std::vector<double>{x});
}

double StepTimePredictor::predict_speed(cloud::GpuType gpu,
                                        double gflops) const {
  const double step = predict_step_seconds(gpu, gflops);
  if (step <= 0.0) {
    throw std::logic_error("StepTimePredictor: non-positive prediction");
  }
  return 1.0 / step;
}

}  // namespace cmdare::core
