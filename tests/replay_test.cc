// Parallel gradient replay: the parameters a training update leaves behind
// do not depend on how many threads replayed it.

#include <gtest/gtest.h>
#include <sched.h>

#include <cstring>
#include <functional>
#include <vector>

#include "core/online.h"
#include "core/trainer.h"
#include "nn/replay.h"
#include "sched/decima.h"
#include "workload/workload.h"

namespace lsched {
namespace {

LSchedConfig TinyConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 8;
  cfg.summary_dim = 8;
  cfg.head_hidden = 8;
  return cfg;
}

SimEngineConfig WideEngine() {
  SimEngineConfig cfg;
  cfg.num_threads = 16;
  return cfg;
}

std::vector<QuerySubmission> TpchEpisode(uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kTpch;
  wcfg.num_queries = 10;
  wcfg.scale_factors = {2, 5};
  wcfg.mean_interarrival_seconds = 0.02;
  Rng rng(seed);
  return GenerateWorkload(wcfg, &rng);
}

/// Restricts the calling thread, and the threads it starts, to the first
/// `cpus` CPUs of its affinity mask until destroyed. ok() is false when the
/// mask holds fewer CPUs.
class ScopedCpus {
 public:
  explicit ScopedCpus(int cpus) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 ||
        CPU_COUNT(&saved_) < cpus) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    int taken = 0;
    for (int c = 0; c < CPU_SETSIZE && taken < cpus; ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      CPU_SET(c, &set);
      ++taken;
    }
    ok_ = sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  ~ScopedCpus() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpus(const ScopedCpus&) = delete;
  ScopedCpus& operator=(const ScopedCpus&) = delete;

  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

/// Every parameter value (or grad) of `store`, in store order.
std::vector<Matrix> Snapshot(ParameterStore* store, bool grads) {
  std::vector<Matrix> out;
  for (Param* p : store->All()) out.push_back(grads ? p->grad : p->value);
  return out;
}

/// Bitwise equality, so -0.0 != 0.0 and equal NaNs compare equal.
bool BitEqual(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameShape(b[i]) ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

/// Runs `train` (which leaves its result in a fresh model's parameters)
/// with the replay's default worker count pinned to 1, 2 and 4 CPUs, as
/// many as the affinity mask allows, and checks the results are
/// bit-identical.
void ExpectSameForEveryCpuCount(
    const std::function<std::vector<Matrix>()>& train) {
  std::vector<Matrix> reference;
  int ran = 0;
  for (int cpus : {1, 2, 4}) {
    ScopedCpus pin(cpus);
    if (!pin.ok()) continue;
    EXPECT_EQ(AffinityCpuCount(), cpus);
    const std::vector<Matrix> params = train();
    if (ran++ == 0) {
      reference = params;
    } else {
      EXPECT_TRUE(BitEqual(params, reference)) << cpus << " CPUs";
    }
  }
  EXPECT_GE(ran, 1);
}

TEST(ParallelReplayTest, TrainerParamsAreBitIdenticalForAnyWorkerCount) {
  ExpectSameForEveryCpuCount([] {
    LSchedModel model(TinyConfig());
    SimEngine engine(WideEngine());
    ReinforceTrainer trainer(&model, &engine, TrainConfig{});
    for (uint64_t ep = 0; ep < 5; ++ep) {
      trainer.TrainOneEpisode(TpchEpisode(2024 + ep));
    }
    return Snapshot(model.params(), /*grads=*/false);
  });
}

TEST(ParallelReplayTest, PolicyGradientIsBitIdenticalForExplicitWorkers) {
  // Five episodes of training, then the next episode's gradient replayed
  // with 1, 2, 4 and more workers than chunks.
  LSchedModel model(TinyConfig());
  SimEngine engine(WideEngine());
  ReinforceTrainer trainer(&model, &engine, TrainConfig{});
  for (uint64_t ep = 0; ep < 5; ++ep) {
    trainer.TrainOneEpisode(TpchEpisode(7 + ep));
  }
  const ExperienceManager::StoredEpisode& ep =
      trainer.experience_manager()->latest();
  const std::vector<double> adv =
      trainer.experience_manager()->LatestAdvantages(true);
  const int chunks = static_cast<int>(
      (ep.experiences.size() + kDecisionsPerTape - 1) / kDecisionsPerTape);
  ASSERT_GT(chunks, 4);

  std::vector<Matrix> reference;
  PolicyGradientStats reference_stats;
  for (int workers : {1, 2, 4, chunks + 3}) {
    model.params()->ZeroGrads();
    const PolicyGradientStats stats = AccumulatePolicyGradient(
        &model, ep.experiences, adv, 0.5, 0.01, /*track_entropy=*/true,
        workers);
    const std::vector<Matrix> grads = Snapshot(model.params(), true);
    if (workers == 1) {
      reference = grads;
      reference_stats = stats;
      continue;
    }
    EXPECT_TRUE(BitEqual(grads, reference)) << workers << " workers";
    EXPECT_EQ(stats.decisions, reference_stats.decisions);
    EXPECT_EQ(std::memcmp(&stats.entropy_sum, &reference_stats.entropy_sum,
                          sizeof(double)),
              0)
        << workers << " workers";
  }
  EXPECT_GT(reference_stats.decisions, 0);
}

TEST(ParallelReplayTest, OnlineUpdateIsBitIdenticalForAnyWorkerCount) {
  ExpectSameForEveryCpuCount([] {
    LSchedModel model(TinyConfig());
    const std::vector<QuerySubmission> workload = TpchEpisode(2024);
    OnlineConfig ocfg;
    ocfg.update_every_queries = static_cast<int>(workload.size());
    OnlineLSched online(&model, ocfg);
    SimEngine engine(WideEngine());
    engine.Run(workload, &online);
    EXPECT_EQ(online.num_updates(), 1);
    return Snapshot(model.params(), /*grads=*/false);
  });
}

TEST(ParallelReplayTest, DecimaParamsAreBitIdenticalForAnyWorkerCount) {
  ExpectSameForEveryCpuCount([] {
    DecimaConfig dcfg;
    dcfg.hidden_dim = 8;
    dcfg.summary_dim = 8;
    DecimaModel model(dcfg);
    SimEngine engine(WideEngine());
    DecimaTrainer trainer(&model, &engine, /*episodes=*/5);
    for (uint64_t ep = 0; ep < 5; ++ep) {
      trainer.TrainOneEpisode(TpchEpisode(2024 + ep));
    }
    return Snapshot(model.params(), /*grads=*/false);
  });
}

TEST(ParallelReplayTest, UnitsAddInOrderWithMoreWorkersThanUnits) {
  // Unit i adds scale[i] to the grad (d/dw of w^2 at w = 0.5, times the
  // seed); unit 1 builds nothing. In unit order 1e16 + 1 rounds back to
  // 1e16, so the sum is exactly 0; any order that adds the 1 last gives 1.
  ParameterStore store;
  Param* w = store.CreateZero("w", 1, 1);
  w->value.at(0, 0) = 0.5;
  const double scale[] = {1e16, 0.0, 1.0, -1e16};
  const auto replay = [w, &scale](int unit, Tape* tape) {
    if (unit == 1) return;
    const Var x = tape->Leaf(w);
    tape->Sweep(tape->Mul(x, x), scale[unit]);
  };
  for (int workers : {1, 2, 3, 8}) {
    store.ZeroGrads();
    ReplayUnits(4, workers, replay);
    EXPECT_EQ(w->grad.at(0, 0), 0.0) << workers << " workers";
  }
}

}  // namespace
}  // namespace lsched
