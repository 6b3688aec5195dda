// Epsilon-insensitive support vector regression.
//
// Implements the dual problem of epsilon-SVR in the beta = alpha - alpha*
// parameterization (the paper's Equations 2-3):
//
//   min_beta  1/2 beta^T K' beta - y^T beta + epsilon * sum_i |beta_i|
//   s.t.      -C <= beta_i <= C
//
// where K' = K + 1 augments the kernel with a constant feature, which folds
// the bias into the kernel expansion ("regularized bias" formulation; see
// Mangasarian & Musicant 1999). Dropping the sum(beta) = 0 equality
// constraint lets the dual be solved by exact cyclic coordinate descent:
// each coordinate subproblem is a 1-D piecewise quadratic minimized in
// closed form by a soft-threshold + box clip. The solver is deterministic,
// has no tuning parameters besides the convergence tolerance, and converges
// for any PSD kernel.
//
// Penalty path: descent starts from beta = 0 and C enters only through the
// box clip, so the run for C is, operation for operation, the run for any
// larger C until the first coordinate whose unclipped candidate leaves
// [-C, C]. fit_penalty_path() exploits this: it runs the largest penalty,
// snapshots the exact solver state where each smaller one first diverges,
// and finishes those from their snapshots. Every result is bit-identical to
// a separate fit() at that penalty.
//
// Prediction: f(x) = sum_i beta_i K(x_i, x) + b with b = sum_i beta_i.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/kernel.hpp"
#include "ml/regressor.hpp"

namespace cmdare::ml {

struct SvrConfig {
  KernelConfig kernel;
  /// Box penalty C (the paper's grid searches p over [10, 100] step 10).
  double penalty = 10.0;
  /// Epsilon-insensitive tube half-width (paper grid: [0.01, 0.1] step 0.01).
  double epsilon = 0.1;
  /// Convergence: max |coordinate change| in a sweep below this stops.
  double tolerance = 1e-6;
  /// Safety cap on coordinate-descent sweeps.
  int max_sweeps = 10000;
  /// When true (default), gamma for RBF kernels is set from the data
  /// variance heuristic at fit() time (times gamma_scale).
  bool auto_gamma = true;
  /// Multiplier on the auto gamma; a grid-search dimension that adapts
  /// the kernel width to skewed feature distributions.
  double gamma_scale = 1.0;
};

class SupportVectorRegression final : public Regressor {
 public:
  explicit SupportVectorRegression(SvrConfig config = {});

  /// Fits one model per entry of `penalties` (any order, duplicates
  /// allowed) with every other setting from `config`. Model k is
  /// bit-identical to SupportVectorRegression(config with penalty =
  /// penalties[k]) after fit(data), at the cost of about one fit plus the
  /// tails after each divergence.
  static std::vector<SupportVectorRegression> fit_penalty_path(
      SvrConfig config, std::span<const double> penalties,
      const Dataset& data);

  void fit(const Dataset& data) override;
  double predict(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone_unfitted() const override;
  std::string name() const override;

  bool fitted() const { return !support_x_.empty(); }
  /// Number of support vectors (beta_i != 0) after fit.
  std::size_t support_vector_count() const;
  /// Bias term b = sum(beta).
  double bias() const;
  const SvrConfig& config() const { return config_; }
  /// Sweeps the last fit() took to converge.
  int sweeps_used() const { return sweeps_used_; }
  /// Whether the last fit() met the tolerance; false when it stopped at
  /// max_sweeps instead.
  bool converged() const { return converged_; }

 private:
  SvrConfig config_;
  // Flattened training inputs (support set = all training points; zeros
  // are skipped at predict time).
  std::vector<std::vector<double>> support_x_;
  std::vector<double> beta_;
  int sweeps_used_ = 0;
  bool converged_ = false;
};

}  // namespace cmdare::ml
