#include "nidc/store/durable_clusterer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/obs/metrics.h"
#include "nidc/store/torture.h"
#include "nidc/util/fault_env.h"

namespace nidc {
namespace {

std::string FreshDir(const std::string& name) {
  Env* env = Env::Default();
  const std::string dir = testing::TempDir() + "/nidc_durable_test_" + name;
  env->CreateDir(dir);
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& entry : *names) {
      env->RemoveFile(dir + "/" + entry);
    }
  }
  return dir;
}

std::string Fingerprint(const IncrementalClusterer& clusterer) {
  return SerializeState(CaptureState(clusterer));
}

class DurableClustererTest : public ::testing::Test {
 protected:
  DurableClustererTest() {
    TortureOptions shape;
    shape.num_steps = 24;
    stream_ = BuildTortureStream(shape);
    params_ = shape.params;
    incremental_.kmeans.k = 4;
  }

  DurableOptions Options(const std::string& dir,
                         uint64_t checkpoint_every = 5) const {
    DurableOptions durable;
    durable.dir = dir;
    durable.checkpoint_every = checkpoint_every;
    return durable;
  }

  // Runs steps [from, to) on `durable`, tolerating empty-window
  // FailedPrecondition like the streaming loop does.
  void Feed(DurableClusterer* durable, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      Result<StepResult> result =
          durable->Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
            << result.status().ToString();
      }
    }
  }

  // The uninterrupted-run fingerprint after all batches.
  std::string ReferenceFingerprint() {
    IncrementalClusterer reference(stream_.corpus.get(), params_,
                                   incremental_);
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      auto result = reference.Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
    return Fingerprint(reference);
  }

  TortureStream stream_;
  ForgettingParams params_;
  IncrementalOptions incremental_;
};

TEST_F(DurableClustererTest, OpenRejectsBadOptions) {
  EXPECT_FALSE(DurableClusterer::Open(stream_.corpus.get(), params_,
                                      incremental_, DurableOptions{})
                   .ok());
  DurableOptions no_keep = Options(FreshDir("bad_options"));
  no_keep.keep_generations = 0;
  EXPECT_FALSE(DurableClusterer::Open(stream_.corpus.get(), params_,
                                      incremental_, no_keep)
                   .ok());
}

TEST_F(DurableClustererTest, FreshOpenStartsEmptyAndRotates) {
  const std::string dir = FreshDir("fresh");
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, Options(dir));
  ASSERT_TRUE(durable.ok());
  EXPECT_FALSE((*durable)->recovery().resumed);
  EXPECT_EQ((*durable)->applied_steps(), 0u);
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/MANIFEST"));
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/" + SnapshotFileName(1)));
  ASSERT_TRUE((*durable)->Close().ok());
}

TEST_F(DurableClustererTest, StopAndReopenContinuesBitIdentically) {
  // Property: snapshot at step i + WAL replay of i+1..n reproduces the
  // uninterrupted run's final state bit-for-bit, for every split point.
  // checkpoint_every=5 with 24 steps means most split points land
  // mid-generation, so recovery genuinely replays a WAL tail (the
  // injected kill below stops the destructor from snapshotting).
  const std::string want = ReferenceFingerprint();
  for (size_t split = 0; split <= stream_.batches.size(); split += 3) {
    const std::string dir =
        FreshDir("split_" + std::to_string(split));
    {
      FaultInjectionEnv fault_env(Env::Default());
      DurableOptions options = Options(dir);
      options.env = &fault_env;
      auto first = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
      ASSERT_TRUE(first.ok());
      Feed(first->get(), 0, split);
      // Simulated kill: the destructor's final rotation fails, so
      // whatever the WAL holds since the last periodic checkpoint is the
      // only record of the tail. Under kEveryRecord nothing is lost.
      fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
    }
    auto second = DurableClusterer::Open(stream_.corpus.get(), params_,
                                         incremental_, Options(dir));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*second)->applied_steps(), split) << "split " << split;
    if (split > 0) {
      EXPECT_TRUE((*second)->recovery().resumed);
    }
    Feed(second->get(), (*second)->applied_steps(), stream_.batches.size());
    EXPECT_EQ(Fingerprint((*second)->clusterer()), want)
        << "split " << split;
    ASSERT_TRUE((*second)->Close().ok());
  }
}

TEST_F(DurableClustererTest, CorruptWalTailIsQuarantinedNotFatal) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("wal_tail");
  {
    FaultInjectionEnv fault_env(env);
    DurableOptions options = Options(dir, /*checkpoint_every=*/100);
    options.env = &fault_env;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 7);
    // Simulated kill: no final rotation, so generation 1's WAL holds all
    // 7 records and is the only carrier of the stream's tail.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  // Flip a byte in the middle of the newest WAL: records before the
  // damage replay, the rest is quarantined.
  const std::string wal_path = dir + "/" + WalFileName(1);
  auto contents = env->ReadFileToString(wal_path);
  ASSERT_TRUE(contents.ok());
  std::string damaged = *contents;
  damaged[damaged.size() * 2 / 3] ^= 0x10;
  ASSERT_TRUE(AtomicWriteFile(env, wal_path, damaged).ok());

  obs::MetricsRegistry metrics;
  DurableOptions options = Options(dir);
  options.metrics = &metrics;
  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery().resumed);
  EXPECT_GT((*recovered)->recovery().replayed_records, 0u);
  EXPECT_LT((*recovered)->recovery().replayed_records, 7u);
  EXPECT_GT((*recovered)->recovery().dropped_wal_bytes, 0u);
  EXPECT_GT(
      metrics.GetCounter("store.recovery.dropped_wal_bytes")->Value(), 0u);
  // Resuming from the surviving prefix still converges on the reference.
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, CorruptSnapshotFallsBackToPreviousGeneration) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("snapshot_fallback");
  {
    // keep_generations=3 so the previous generation survives pruning.
    DurableOptions options = Options(dir, /*checkpoint_every=*/5);
    options.keep_generations = 3;
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, options);
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 12);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  ASSERT_GE(generations->size(), 2u);
  const uint64_t newest = (*generations)[0];
  // Destroy the newest snapshot (the one the manifest points at).
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(newest),
                              "nidc-state v2\ngarbage")
                  .ok());

  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery().resumed);
  EXPECT_GE((*recovered)->recovery().snapshot_fallbacks, 1u);
  EXPECT_LT((*recovered)->recovery().source_generation, newest);
  // The older generation's snapshot+WAL still reconstruct a usable state;
  // finishing the stream matches the reference exactly.
  Feed(recovered->get(), (*recovered)->applied_steps(),
       stream_.batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), ReferenceFingerprint());
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, EveryGenerationPrunedFallsBackToFreshStart) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("all_corrupt");
  {
    auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
    ASSERT_TRUE(durable.ok());
    Feed(durable->get(), 0, 8);
    ASSERT_TRUE((*durable)->Close().ok());
  }
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  for (uint64_t generation : *generations) {
    ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(generation),
                                "garbage")
                    .ok());
  }
  // Startup must degrade to an empty clusterer, not fail.
  auto recovered = DurableClusterer::Open(stream_.corpus.get(), params_,
                                          incremental_, Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE((*recovered)->recovery().resumed);
  EXPECT_GE((*recovered)->recovery().snapshot_fallbacks, 1u);
  EXPECT_EQ((*recovered)->applied_steps(), 0u);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(DurableClustererTest, RejectsInvalidStepsWithoutLoggingThem) {
  const std::string dir = FreshDir("validation");
  obs::MetricsRegistry metrics;
  DurableOptions options = Options(dir);
  options.metrics = &metrics;
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, options);
  ASSERT_TRUE(durable.ok());
  Feed(durable->get(), 0, 2);
  const uint64_t logged =
      metrics.GetCounter("store.wal_records")->Value();
  // Time travel and unknown ids are rejected before touching the WAL.
  EXPECT_EQ((*durable)->Step({}, stream_.taus[1] - 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*durable)
                ->Step({static_cast<DocId>(stream_.corpus->size())},
                       stream_.taus[2])
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.GetCounter("store.wal_records")->Value(), logged);
  EXPECT_EQ((*durable)->applied_steps(), 2u);
  ASSERT_TRUE((*durable)->Close().ok());
}

TEST_F(DurableClustererTest, PrunesGenerationsBeyondRetention) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("prune");
  DurableOptions options = Options(dir, /*checkpoint_every=*/2);
  options.keep_generations = 2;
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, options);
  ASSERT_TRUE(durable.ok());
  Feed(durable->get(), 0, 12);
  ASSERT_TRUE((*durable)->Close().ok());
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  EXPECT_LE(generations->size(), 2u);
}

TEST_F(DurableClustererTest, ClosedInstanceRefusesSteps) {
  const std::string dir = FreshDir("closed");
  auto durable = DurableClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, Options(dir));
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE((*durable)->Close().ok());
  EXPECT_EQ((*durable)->Step(stream_.batches[0], stream_.taus[0])
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// A logged step whose active set is smaller than the previous step's
// cluster count replays like any other: recovery quarantines nothing and
// lands on the uninterrupted run's state.
TEST_F(DurableClustererTest, RecoversThroughAStepWithFewerActiveDocsThanK) {
  Corpus corpus;
  corpus.AddText("iraq weapons inspection baghdad", 0.0, 1);
  corpus.AddText("iraq sanctions baghdad embargo", 0.0, 1);
  corpus.AddText("olympics skating nagano medal", 1.0, 2);
  corpus.AddText("olympics hockey nagano final", 1.0, 2);
  corpus.AddText("tobacco settlement senate lawsuit", 30.0, 3);
  corpus.AddText("tobacco lawsuit vote senate", 31.0, 3);
  corpus.AddText("iraq inspection weapons talks", 31.0, 1);
  const std::vector<std::vector<DocId>> batches = {
      {0, 1, 2, 3}, {}, {4}, {5, 6}};
  const std::vector<DayTime> taus = {1.0, 14.5, 30.0, 31.0};
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 14.0;

  IncrementalClusterer reference(&corpus, params, incremental_);
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(reference.Step(batches[i], taus[i]).ok()) << "step " << i;
  }

  const std::string dir = FreshDir("shrinking_active_set");
  {
    FaultInjectionEnv fault_env(Env::Default());
    DurableOptions options = Options(dir, /*checkpoint_every=*/100);
    options.env = &fault_env;
    auto durable =
        DurableClusterer::Open(&corpus, params, incremental_, options);
    ASSERT_TRUE(durable.ok());
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE((*durable)->Step(batches[i], taus[i]).ok()) << "step " << i;
    }
    // Simulated kill: the WAL is the only record of all four steps.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }
  auto recovered = DurableClusterer::Open(&corpus, params, incremental_,
                                          Options(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovery().quarantined_records, 0u);
  EXPECT_EQ((*recovered)->recovery().replayed_records, batches.size());
  EXPECT_EQ((*recovered)->applied_steps(), batches.size());
  EXPECT_EQ(Fingerprint((*recovered)->clusterer()), Fingerprint(reference));
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace nidc
