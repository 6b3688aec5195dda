#include "ml/svr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cmdare::ml {
namespace {

double soft_threshold(double z, double t) {
  if (z > t) return z - t;
  if (z < -t) return z + t;
  return 0.0;
}

// Where a descent stands: the iterate, the smooth gradient
// g = K' beta - y, the sweeps completed, and in the sweep under way the
// next coordinate and the largest |change| so far. Resuming from a copy
// replays the run exactly.
struct DescentState {
  std::vector<double> beta;
  std::vector<double> grad;
  int sweeps = 0;
  std::size_t coord = 0;
  double max_delta = 0.0;
  bool converged = false;
};

// Cyclic coordinate descent on
//   f(beta) = 1/2 beta' K' beta - y' beta + eps * ||beta||_1,
//   -c <= beta_i <= c,
// from `state` until a sweep changes no coordinate by the tolerance or
// max_sweeps is reached. `pending` holds smaller penalties, in ascending
// order, whose runs still equal this one; when a coordinate's unclipped
// candidate first leaves [-p, p], the state just before that update is
// appended to `forks` for p, so forks[k] belongs to pending[k].
void descend(const std::vector<double>& gram, const SvrConfig& config,
             double c, DescentState& state, std::span<const double> pending,
             std::vector<DescentState>& forks) {
  const std::size_t n = state.beta.size();
  double* beta = state.beta.data();
  double* grad = state.grad.data();
  double max_delta = state.max_delta;
  std::size_t first = state.coord;
  for (int sweep = state.sweeps; sweep < config.max_sweeps; ++sweep) {
    for (std::size_t i = first; i < n; ++i) {
      // K' is symmetric, so row i is column i read contiguously.
      const double* row = gram.data() + i * n;
      const double kii = row[i];
      if (kii <= 0.0) continue;  // degenerate kernel row
      // Minimize over beta_i alone: the smooth part is
      //   1/2 kii t^2 + (grad_i - kii beta_i) t  (+ const),
      // so the unconstrained minimizer with the |t| term is a soft
      // threshold around z = kii*beta_i - grad_i.
      const double z = kii * beta[i] - grad[i];
      const double unclipped = soft_threshold(z, config.epsilon) / kii;
      while (forks.size() < pending.size() &&
             (unclipped < -pending[forks.size()] ||
              pending[forks.size()] < unclipped)) {
        forks.push_back({state.beta, state.grad, sweep, i, max_delta});
      }
      const double candidate = std::clamp(unclipped, -c, c);
      const double delta = candidate - beta[i];
      if (delta == 0.0) continue;
      beta[i] = candidate;
      for (std::size_t j = 0; j < n; ++j) grad[j] += delta * row[j];
      max_delta = std::max(max_delta, std::abs(delta));
    }
    state.sweeps = sweep + 1;
    if (max_delta < config.tolerance) {
      state.converged = true;
      return;
    }
    max_delta = 0.0;
    first = 0;
  }
}

}  // namespace

SupportVectorRegression::SupportVectorRegression(SvrConfig config)
    : config_(config) {
  if (config_.penalty <= 0.0) {
    throw std::invalid_argument("SVR: penalty must be > 0");
  }
  if (config_.epsilon < 0.0) {
    throw std::invalid_argument("SVR: epsilon must be >= 0");
  }
  if (config_.tolerance <= 0.0) {
    throw std::invalid_argument("SVR: tolerance must be > 0");
  }
}

std::vector<SupportVectorRegression>
SupportVectorRegression::fit_penalty_path(SvrConfig config,
                                          std::span<const double> penalties,
                                          const Dataset& data) {
  std::vector<SupportVectorRegression> models;
  models.reserve(penalties.size());
  for (double penalty : penalties) {
    config.penalty = penalty;
    models.emplace_back(config);  // validates the penalty
  }
  if (data.empty()) throw std::invalid_argument("SVR: empty data");
  if (penalties.empty()) return models;
  const std::size_t n = data.size();

  if (config.kernel.type == KernelType::kRbf && config.auto_gamma) {
    config.kernel.gamma = rbf_gamma_heuristic(data) * config.gamma_scale;
  }

  std::vector<std::vector<double>> support_x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = data.x(i);
    support_x[i].assign(xi.begin(), xi.end());
  }

  // Gram matrix of the bias-augmented kernel K' = K + 1.
  std::vector<double> gram(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k =
          kernel_eval(config.kernel, support_x[i], support_x[j]) + 1.0;
      gram[i * n + j] = k;
      gram[j * n + i] = k;
    }
  }

  // Run the largest penalty with every smaller one pending, then finish
  // each smaller one that diverged from its snapshot. Penalties that never
  // diverged share the largest one's result.
  std::vector<double> distinct(penalties.begin(), penalties.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const std::span<const double> smaller(distinct.data(), distinct.size() - 1);

  DescentState main;
  main.beta.assign(n, 0.0);
  main.grad.resize(n);
  for (std::size_t i = 0; i < n; ++i) main.grad[i] = -data.y(i);
  std::vector<DescentState> forks;
  descend(gram, config, distinct.back(), main, smaller, forks);

  std::vector<const DescentState*> solved(distinct.size(), &main);
  std::vector<DescentState> no_forks;
  for (std::size_t k = 0; k < forks.size(); ++k) {
    descend(gram, config, distinct[k], forks[k], {}, no_forks);
    solved[k] = &forks[k];
  }

  for (SupportVectorRegression& model : models) {
    const DescentState& state = *solved[static_cast<std::size_t>(
        std::lower_bound(distinct.begin(), distinct.end(),
                         model.config_.penalty) -
        distinct.begin())];
    model.config_.kernel = config.kernel;
    model.support_x_ = support_x;
    model.beta_ = state.beta;
    model.sweeps_used_ = state.sweeps;
    model.converged_ = state.converged;
  }
  return models;
}

void SupportVectorRegression::fit(const Dataset& data) {
  *this = std::move(fit_penalty_path(config_, {&config_.penalty, 1}, data)
                        .front());
}

double SupportVectorRegression::predict(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("SVR: not fitted");
  if (x.size() != support_x_.front().size()) {
    throw std::invalid_argument("SVR: feature count mismatch");
  }
  double y = 0.0;
  for (std::size_t i = 0; i < support_x_.size(); ++i) {
    if (beta_[i] == 0.0) continue;
    y += beta_[i] * (kernel_eval(config_.kernel, support_x_[i], x) + 1.0);
  }
  return y;
}

std::unique_ptr<Regressor> SupportVectorRegression::clone_unfitted() const {
  return std::make_unique<SupportVectorRegression>(config_);
}

std::string SupportVectorRegression::name() const {
  return "svr-" + config_.kernel.describe();
}

std::size_t SupportVectorRegression::support_vector_count() const {
  if (!fitted()) throw std::logic_error("SVR: not fitted");
  std::size_t count = 0;
  for (double b : beta_) {
    if (b != 0.0) ++count;
  }
  return count;
}

double SupportVectorRegression::bias() const {
  if (!fitted()) throw std::logic_error("SVR: not fitted");
  double sum = 0.0;
  for (double b : beta_) sum += b;
  return sum;
}

}  // namespace cmdare::ml
