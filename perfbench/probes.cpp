// Layer probes of the traced run: each times one public function of one
// layer in isolation, with seed-generated inputs, and reports one metric
// in one direction (a cost per call or per event; no inverse beside it).
// Every probe reports the median over several batches.
#include <vector>

#include "bench.hpp"
#include "ckpt/plane.hpp"
#include "cloud/revocation.hpp"
#include "cloud/storage.hpp"
#include "ml/crossval.hpp"
#include "ml/dataset.hpp"
#include "ml/linreg.hpp"
#include "ml/pca.hpp"
#include "ml/svr.hpp"
#include "nn/model_zoo.hpp"
#include "simcore/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace ml = cmdare::ml;
using cmdare::util::Rng;

constexpr int kBatches = 7;

/// Median over kBatches of the per-call time of `fn` (run `calls` times
/// per batch), in nanoseconds. `fn` may return a value to keep the
/// compiler from discarding the work; it is accumulated into a sink.
template <typename Fn>
double median_ns_per_call(int calls, Fn&& fn) {
  std::vector<double> per_call;
  volatile double sink = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (int i = 0; i < calls; ++i) acc += fn();
    const auto t1 = Clock::now();
    sink = sink + acc;
    per_call.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() / calls);
  }
  return median(per_call);
}

ml::Dataset make_data(std::size_t n, std::size_t features, Rng rng) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f) {
    std::string name = "x";  // built in place: GCC 12 misreports "x" + ...
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  ml::Dataset data(std::move(names));
  std::vector<double> x(features);
  for (std::size_t i = 0; i < n; ++i) {
    double y = 0.1;
    for (std::size_t f = 0; f < features; ++f) {
      x[f] = rng.uniform(0.0, 1.0);
      y += (0.3 + 0.2 * static_cast<double>(f)) * x[f];
    }
    data.add(x, y + rng.normal(0.0, 0.01));
  }
  return data;
}

/// Schedules `n` events over 97 distinct times and drains the queue; with
/// `churn`, every other event is cancelled and replaced before the run
/// (the retry-storm / migration pattern). Returns events scheduled.
double engine_pass(std::size_t n, bool churn) {
  cmdare::simcore::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<cmdare::simcore::EventHandle> handles;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i % 97),
                                      [&fired] { ++fired; }));
  }
  if (churn) {
    for (std::size_t i = 0; i < n; i += 2) {
      handles[i].cancel();
      sim.schedule_at(static_cast<double>(97 + i % 89), [&fired] { ++fired; });
    }
  }
  sim.run();
  return static_cast<double>(fired);
}

}  // namespace

void run_layer_probes(const Options& options, Outcome& out) {
  const Rng root = Rng(options.seed).fork("probes");

  const char* const names[] = {"resnet-15", "resnet-32", "shake-shake-small"};
  int next_name = 0;
  out.metrics["nn.model_by_name_us"] =
      median_ns_per_call(60, [&] {
        return cmdare::nn::model_by_name(names[next_name++ % 3]).gflops();
      }) / 1e3;

  constexpr std::size_t kEvents = 100000;
  out.metrics["simcore.engine_ns_per_event"] =
      median_ns_per_call(1, [] { return engine_pass(kEvents, false); }) /
      kEvents;
  out.metrics["simcore.churn_ns_per_event"] =
      median_ns_per_call(1, [] { return engine_pass(kEvents, true); }) /
      kEvents;

  {
    // Three generations, the newest a base plus a full delta chain: the
    // verified-restore path walks and checks all five blobs.
    cmdare::simcore::Simulator sim;
    cmdare::cloud::ObjectStore store(sim, root.fork("store"));
    cmdare::ckpt::PlaneConfig config;
    config.enabled = true;
    cmdare::ckpt::CheckpointPlane plane(sim, store, config);
    for (long step = 1000; step <= 15000; step += 1000) {
      const cmdare::ckpt::PlannedWrite write =
          plane.plan_write(step, 90'000'000);
      store.upload(write.key, write.bytes, [] {}, nullptr, write.tier);
      sim.run();
      plane.commit_write(write);
    }
    out.metrics["ckpt.restorable_step_us"] =
        median_ns_per_call(1000, [&] {
          return static_cast<double>(plane.restorable_step());
        }) / 1e3;
  }

  {
    const cmdare::cloud::RevocationModel model;
    Rng rng = root.fork("revocation");
    out.metrics["cloud.revocation_sample_us"] =
        median_ns_per_call(2000, [&] {
          return model
              .sample_revocation_age_seconds(cmdare::cloud::Region::kUsCentral1,
                                             cmdare::cloud::GpuType::kV100,
                                             9.0, rng)
              .value_or(0.0);
        }) / 1e3;
  }

  {
    const ml::Dataset data = make_data(200, 1, root.fork("svr"));
    ml::SvrConfig config;
    config.kernel.type = ml::KernelType::kRbf;
    config.penalty = 50.0;
    config.epsilon = 0.02;
    out.metrics["ml.svr_fit_us"] = median_ns_per_call(3, [&] {
                                     ml::SupportVectorRegression svr(config);
                                     svr.fit(data);
                                     return svr.bias();
                                   }) / 1e3;
  }
  {
    const ml::Dataset data = make_data(20, 1, root.fork("grid"));
    const ml::KernelConfig rbf{ml::KernelType::kRbf, 2, 1.0, 1.0};
    out.metrics["ml.grid_search_ms"] =
        median_ns_per_call(1, [&] {
          Rng rng = root.fork("grid-folds");
          ml::SvrGrid grid;
          grid.cv_repeats = 1;
          return static_cast<double>(
              ml::svr_grid_search(rbf, data, 5, rng, grid).best_index);
        }) / 1e6;
  }
  {
    const ml::Dataset data = make_data(1000, 3, root.fork("ols"));
    out.metrics["ml.ols_fit_us"] = median_ns_per_call(20, [&] {
                                     ml::LinearRegression reg;
                                     reg.fit(data);
                                     return reg.intercept();
                                   }) / 1e3;
  }
  {
    const ml::Dataset data = make_data(200, 5, root.fork("pca"));
    out.metrics["ml.pca_fit_us"] = median_ns_per_call(20, [&] {
                                     ml::Pca pca;
                                     pca.fit(data, 2);
                                     return pca.explained_variance(0);
                                   }) / 1e3;
  }
}

}  // namespace perfbench
