#include "nidc/obs/reqtrace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {
namespace {

TEST(TraceContextTest, HexRoundTrip) {
  TraceContext id;
  id.hi = 0x0123456789abcdefULL;
  id.lo = 0xfedcba9876543210ULL;
  const std::string hex = id.ToHex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const TraceContext parsed = TraceContext::FromHex(hex);
  EXPECT_EQ(parsed, id);
}

TEST(TraceContextTest, TraceparentRoundTrip) {
  TraceContext id;
  id.hi = 0x00000000000000ffULL;
  id.lo = 0x1ULL;
  const std::string header = id.ToTraceparent();
  EXPECT_EQ(header.substr(0, 3), "00-");
  const TraceContext parsed = TraceContext::FromTraceparent(header);
  EXPECT_TRUE(parsed.valid());
  EXPECT_EQ(parsed, id);
}

TEST(TraceContextTest, FromTraceparentRejectsMalformedHeaders) {
  // Valid reference, then break one field at a time.
  const std::string ok =
      "00-0123456789abcdeffedcba9876543210-fedcba9876543210-01";
  EXPECT_TRUE(TraceContext::FromTraceparent(ok).valid());
  EXPECT_FALSE(TraceContext::FromTraceparent("").valid());
  EXPECT_FALSE(TraceContext::FromTraceparent("garbage").valid());
  // Forbidden version.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "ff-0123456789abcdeffedcba9876543210-fedcba9876543210-01")
                   .valid());
  // All-zero trace id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-00000000000000000000000000000000-fedcba9876543210-01")
                   .valid());
  // Non-hex trace id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-0123456789abcdeffedcba987654321g-fedcba9876543210-01")
                   .valid());
  // Truncated parent id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-0123456789abcdeffedcba9876543210-fedcba98-01")
                   .valid());
  // Version 00 must not carry trailing data.
  EXPECT_FALSE(TraceContext::FromTraceparent(ok + "-extra").valid());
}

TEST(RequestTracerTest, MintsDistinctValidIds) {
  RequestTracer tracer;
  const TraceContext a = tracer.Mint();
  const TraceContext b = tracer.Mint();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
}

TEST(RequestTracerTest, StagesFoldIntoOrderedRecord) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kIngest, 1.0);
  tracer.RecordStage(id, Stage::kEnqueue, 1.5);
  tracer.RecordStage(id, Stage::kDequeue, 2.0);
  tracer.RecordStage(id, Stage::kWindowClose, 2.5);
  tracer.RecordStage(id, Stage::kStep, 3.0);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_EQ(record.tenant, "alpha");
  EXPECT_TRUE(record.completed);
  EXPECT_FALSE(record.resumed);
  ASSERT_EQ(record.stages.size(), 5u);
  EXPECT_EQ(record.stages.front().stage, Stage::kIngest);
  EXPECT_EQ(record.stages.back().stage, Stage::kStep);
  for (size_t i = 1; i < record.stages.size(); ++i) {
    EXPECT_GE(record.stages[i].seconds, record.stages[i - 1].seconds);
  }
  EXPECT_DOUBLE_EQ(record.StageSeconds(Stage::kDequeue), 2.0);
  EXPECT_DOUBLE_EQ(record.StageSeconds(Stage::kApply), -1.0);
  EXPECT_DOUBLE_EQ(record.EndToEndSeconds(), 2.0);
  EXPECT_EQ(tracer.traces_started(), 1u);
  EXPECT_EQ(tracer.traces_completed(), 1u);
}

TEST(RequestTracerTest, CompletionFiresCallbackAndMetrics) {
  MetricsRegistry registry;
  std::vector<std::pair<std::string, double>> completions;
  RequestTracer::Options options;
  options.metrics = &registry;
  options.on_complete = [&](const std::string& tenant, double e2e,
                            double /*now*/) {
    completions.emplace_back(tenant, e2e);
  };
  RequestTracer tracer(std::move(options));

  // Eager registration: the family exists before any trace.
  EXPECT_EQ(registry.GetCounter("pipeline.traces_started")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_completed")->Value(), 0u);

  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 10.0);
  tracer.RecordStage(id, Stage::kStep, 10.25);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].first, "alpha");
  EXPECT_DOUBLE_EQ(completions[0].second, 0.25);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_started")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_completed")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("pipeline.stage_events")->Value(), 2u);
}

TEST(RequestTracerTest, DocBindingsRecoverWindowTraces) {
  RequestTracer tracer;
  const TraceContext a = tracer.Mint();
  const TraceContext b = tracer.Mint();
  tracer.Begin(a, "alpha");
  tracer.Begin(b, "alpha");
  tracer.BindDoc("alpha", 1, a);
  tracer.BindDoc("alpha", 2, a);
  tracer.BindDoc("alpha", 3, b);
  tracer.BindDoc("bravo", 1, b);

  // Duplicate doc ids collapse to distinct traces; tenants are isolated.
  const auto traces = tracer.TracesForDocs("alpha", {1, 2, 3});
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0], a);
  EXPECT_EQ(traces[1], b);
  EXPECT_TRUE(tracer.TracesForDocs("bravo", {2, 3}).empty());
  EXPECT_TRUE(tracer.TracesForDocs("alpha", {99}).empty());
}

TEST(RequestTracerTest, StepScopeStampsActiveTraces) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  {
    RequestTracer::StepScope scope(&tracer, {id});
    tracer.RecordActive(Stage::kWalCommit);
    tracer.RecordActive(Stage::kStep);
  }
  // Outside the scope the stamp is a no-op.
  tracer.RecordActive(Stage::kCheckpoint);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_TRUE(record.completed);
  ASSERT_EQ(record.stages.size(), 3u);
  EXPECT_EQ(record.stages[1].stage, Stage::kWalCommit);
  EXPECT_EQ(record.stages[2].stage, Stage::kStep);
}

TEST(RequestTracerTest, ShipmentRegistrationStampsApply) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  {
    RequestTracer::StepScope scope(&tracer, {id});
    tracer.RecordActive(Stage::kShip);
    tracer.RegisterShipment(/*generation=*/3, /*sequence=*/7);
    tracer.RecordActive(Stage::kStep);
  }
  // The follower only knows the watermark — possibly on another thread.
  std::thread applier([&] { tracer.RecordApplied(3, 7); });
  applier.join();
  // An unknown watermark is a no-op (the cross-process case).
  tracer.RecordApplied(9, 9);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  ASSERT_FALSE(record.stages.empty());
  EXPECT_EQ(record.stages.back().stage, Stage::kApply);
  EXPECT_GE(record.StageSeconds(Stage::kApply), 0.0);
}

TEST(RequestTracerTest, MarkResumedFlagsTheRecord) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.MarkResumed(id);
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_TRUE(record.resumed);
}

// The waterfall row of `stage` under `tenant` ("*" = all tenants), or null.
const JsonValue* WaterfallRow(const JsonValue& waterfall,
                              const std::string& tenant,
                              const std::string& stage) {
  for (const JsonValue& entry : waterfall.Find("waterfall")->array) {
    if (entry.Find("tenant")->string_value != tenant) continue;
    for (const JsonValue& row : entry.Find("stages")->array) {
      if (row.Find("stage")->string_value == stage) return &row;
    }
  }
  return nullptr;
}

TEST(RequestTracerTest, AggregatesCarryExemplars) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  tracer.RecordStage(id, Stage::kDequeue, 1.1);
  tracer.RecordStage(id, Stage::kStep, 1.2);

  const Result<JsonValue> parsed = ParseJson(tracer.RenderWaterfallJson());
  ASSERT_TRUE(parsed.ok());
  // Tenant "alpha" plus the all-tenant roll-up "*".
  const JsonValue* dequeue = WaterfallRow(*parsed, "alpha", "dequeue");
  ASSERT_NE(dequeue, nullptr);
  ASSERT_NE(WaterfallRow(*parsed, "*", "dequeue"), nullptr);
  EXPECT_DOUBLE_EQ(dequeue->Find("count")->number, 1.0);
  EXPECT_GT(dequeue->Find("p50_ms")->number, 0.0);
  EXPECT_EQ(dequeue->Find("p99_exemplar")->string_value, id.ToHex());
}

TEST(RequestTracerTest, AllTenantRowIsTheRegistryStageHistogram) {
  MetricsRegistry registry;
  RequestTracer::Options options;
  options.metrics = &registry;
  RequestTracer tracer(std::move(options));
  for (int i = 0; i < 3; ++i) {
    const TraceContext id = tracer.Mint();
    tracer.Begin(id, i < 2 ? "alpha" : "bravo");
    tracer.RecordStage(id, Stage::kEnqueue, 1.0 + i);
    tracer.RecordStage(id, Stage::kDequeue, 1.25 + i);
    tracer.RecordStage(id, Stage::kStep, 1.5 + i);
  }
  // The waterfall's "*" row counts exactly what /metrics exports.
  const Result<JsonValue> parsed = ParseJson(tracer.RenderWaterfallJson());
  ASSERT_TRUE(parsed.ok());
  for (const std::string stage : {"dequeue", "step"}) {
    const JsonValue* row = WaterfallRow(*parsed, "*", stage);
    ASSERT_NE(row, nullptr) << stage;
    const Histogram* exported =
        registry.GetHistogram("pipeline.stage_seconds." + stage, {1.0});
    EXPECT_EQ(exported->TotalCount(), 3u) << stage;
    EXPECT_DOUBLE_EQ(row->Find("count")->number, 3.0) << stage;
    EXPECT_NE(row->Find("p99_exemplar"), nullptr) << stage;
  }
  EXPECT_EQ(WaterfallRow(*parsed, "*", "enqueue"), nullptr);
}

TEST(RequestTracerTest, CompletedFiltersByTenant) {
  RequestTracer tracer;
  for (int i = 0; i < 3; ++i) {
    const TraceContext id = tracer.Mint();
    tracer.Begin(id, i < 2 ? "alpha" : "bravo");
    tracer.RecordStage(id, Stage::kEnqueue, 1.0 + i);
    tracer.RecordStage(id, Stage::kStep, 1.5 + i);
  }
  EXPECT_EQ(tracer.Completed(10).size(), 3u);
  EXPECT_EQ(tracer.Completed(10, "alpha").size(), 2u);
  EXPECT_EQ(tracer.Completed(1, "alpha").size(), 1u);
  EXPECT_TRUE(tracer.Completed(10, "charlie").empty());
}

TEST(RequestTracerTest, TracezJsonAnswersUnknownTraceWithError) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  tracer.RecordStage(id, Stage::kStep, 1.5);

  const std::string known = tracer.RenderTracezJson(id.ToHex(), "", 10);
  EXPECT_NE(known.find(id.ToHex()), std::string::npos);
  EXPECT_NE(known.find("\"step\""), std::string::npos);

  const std::string unknown =
      tracer.RenderTracezJson(std::string(32, 'f'), "", 10);
  EXPECT_EQ(unknown.rfind("{\"error\"", 0), 0u);

  const std::string waterfall = tracer.RenderWaterfallJson();
  EXPECT_NE(waterfall.find("\"waterfall\""), std::string::npos);
  EXPECT_NE(waterfall.find("\"traces_completed\""), std::string::npos);
}

TEST(RequestTracerTest, RingOverrunCountsDropsInsteadOfBlocking) {
  RequestTracer::Options options;
  options.ring_capacity = 8;
  RequestTracer tracer(std::move(options));
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  // 64 stamps into an 8-slot ring with no fold in between: the writers
  // lap the fold cursor and the overwritten events must surface as drops,
  // never as a stall or a crash.
  for (int i = 0; i < 64; ++i) {
    tracer.RecordStage(id, Stage::kEnqueue, 1.0 + i);
  }
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));  // Lookup folds
  EXPECT_GT(tracer.stage_events_dropped(), 0u);
  EXPECT_LE(record.stages.size(), 8u);
}

TEST(RequestTracerTest, RecordTableIsBounded) {
  RequestTracer::Options options;
  options.max_records = 4;
  RequestTracer tracer(std::move(options));
  std::vector<TraceContext> ids;
  for (int i = 0; i < 10; ++i) {
    const TraceContext id = tracer.Mint();
    ids.push_back(id);
    tracer.Begin(id, "alpha");
  }
  TraceRecord record;
  EXPECT_FALSE(tracer.Lookup(ids.front(), &record));  // evicted
  EXPECT_TRUE(tracer.Lookup(ids.back(), &record));
  EXPECT_EQ(tracer.traces_started(), 10u);
}

TEST(RequestTracerTest, ConcurrentStampsSurviveTsan) {
  MetricsRegistry registry;
  RequestTracer::Options options;
  options.metrics = &registry;
  RequestTracer tracer(std::move(options));
  std::vector<TraceContext> ids;
  for (int i = 0; i < 4; ++i) {
    const TraceContext id = tracer.Mint();
    tracer.Begin(id, "t" + std::to_string(i));
    ids.push_back(id);
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        tracer.RecordStage(ids[t], Stage::kEnqueue);
        tracer.RecordStage(ids[t], Stage::kStep);
      }
    });
  }
  // A concurrent reader folds while the writers stamp.
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      tracer.RenderWaterfallJson();
    }
  });
  for (auto& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(tracer.traces_started(), 4u);
  EXPECT_GE(tracer.traces_completed(), 4u);
}

}  // namespace
}  // namespace nidc::obs
