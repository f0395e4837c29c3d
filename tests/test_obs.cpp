// Observability subsystem tests: JSON layer, metrics registry under
// concurrency, span tracer well-formedness, Chrome trace export, and
// the versioned RunReport schema.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bmgen/generator.hpp"
#include "bmgen/perturb.hpp"
#include "crp/framework.hpp"
#include "obs/analytics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "obs/run_ledger.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace crp::obs {
namespace {

// ---- Json ------------------------------------------------------------------

TEST(Json, IntRoundTripIsExact) {
  // Counters must survive serialization bit-for-bit.
  const std::int64_t big = 9007199254740993;  // not representable as double
  Json j = Json::object();
  j.set("v", big);
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("v").asInt(), big);
}

TEST(Json, DoubleRoundTrips) {
  Json j = Json::object();
  j.set("a", 0.1);
  j.set("b", 3.0);
  j.set("c", -2.5e-7);
  const Json parsed = Json::parse(j.dump(2));
  EXPECT_DOUBLE_EQ(parsed.at("a").asDouble(), 0.1);
  EXPECT_DOUBLE_EQ(parsed.at("b").asDouble(), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("c").asDouble(), -2.5e-7);
  // A written double stays typed kDouble after parsing (".0" marker).
  EXPECT_EQ(parsed.at("b").type(), Json::Type::kDouble);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json j = Json::object();
  j.set("zulu", 1);
  j.set("alpha", 2);
  j.set("mike", 3);
  const std::string text = j.dump();
  EXPECT_LT(text.find("zulu"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mike"));
}

TEST(Json, StringEscapes) {
  Json j = Json::object();
  j.set("s", std::string("a\"b\\c\n\tx\x01y"));
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("s").asString(), "a\"b\\c\n\tx\x01y");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\": \"text\"}");
  EXPECT_THROW(j.at("a").asInt(), JsonError);
  EXPECT_THROW(j.at("missing"), JsonError);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, StructuralEquality) {
  const Json a = Json::parse("{\"x\": [1, 2.5, \"s\"], \"y\": null}");
  const Json b = Json::parse("{\"x\": [1, 2.5, \"s\"], \"y\": null}");
  const Json c = Json::parse("{\"x\": [1, 2.5, \"t\"], \"y\": null}");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, CounterConcurrentAddsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test.hammer");
  util::ThreadPool pool(8);
  constexpr int kTasks = 10000;
  pool.parallelFor(kTasks, [&](std::size_t) { counter->add(3); });
  EXPECT_EQ(counter->value(), static_cast<std::uint64_t>(kTasks) * 3);
}

TEST(Metrics, HistogramConcurrentRecordsAreExact) {
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("test.hist", {10, 100, 1000});
  util::ThreadPool pool(8);
  constexpr int kTasks = 8000;
  pool.parallelFor(kTasks, [&](std::size_t i) { hist->record(i % 2000); });
  EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(kTasks));
  const auto buckets = hist->bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTasks));
  // i % 2000: values 0..10 land in bucket 0 (11 of each 2000-cycle).
  EXPECT_EQ(buckets[0], static_cast<std::uint64_t>(kTasks / 2000) * 11);
  // 1001..1999 overflow.
  EXPECT_EQ(buckets[3], static_cast<std::uint64_t>(kTasks / 2000) * 999);
}

TEST(Metrics, InstrumentPointersAreStableAcrossReset) {
  MetricsRegistry registry;
  Counter* before = registry.counter("stable");
  before->add(7);
  registry.reset();
  Counter* after = registry.counter("stable");
  EXPECT_EQ(before, after);
  EXPECT_EQ(after->value(), 0u);
}

TEST(Metrics, SnapshotDeltaSubtractsCounters) {
  MetricsRegistry registry;
  registry.counter("a")->add(5);
  const MetricsSnapshot earlier = registry.snapshot();
  registry.counter("a")->add(2);
  registry.counter("b")->add(9);
  const MetricsSnapshot delta = registry.snapshot().deltaSince(earlier);
  EXPECT_EQ(delta.counters.at("a"), 2u);
  EXPECT_EQ(delta.counters.at("b"), 9u);
}

TEST(Metrics, SnapshotToJsonIsParseable) {
  MetricsRegistry registry;
  registry.counter("c")->add(1);
  registry.gauge("g")->set(2.5);
  registry.histogram("h")->record(4);
  const Json j = Json::parse(registry.snapshot().toJson().dump(2));
  EXPECT_EQ(j.at("counters").at("c").asInt(), 1);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("g").asDouble(), 2.5);
  EXPECT_EQ(j.at("histograms").at("h").at("count").asInt(), 1);
}

// ---- tracer ----------------------------------------------------------------

/// Asserts the per-thread (beginSeq, endSeq) intervals form a balanced
/// nesting: every sequence number used exactly once, and any two spans
/// on one thread are either disjoint or fully nested.
void expectWellFormedNesting(
    const std::vector<std::pair<int, SpanRecord>>& records) {
  std::map<int, std::vector<const SpanRecord*>> byThread;
  for (const auto& [tid, span] : records) byThread[tid].push_back(&span);
  for (const auto& [tid, spans] : byThread) {
    std::set<std::uint64_t> seqs;
    for (const SpanRecord* s : spans) {
      EXPECT_LT(s->beginSeq, s->endSeq) << "tid " << tid;
      EXPECT_TRUE(seqs.insert(s->beginSeq).second);
      EXPECT_TRUE(seqs.insert(s->endSeq).second);
    }
    // Sequence numbers are dense: 0..2n-1.
    EXPECT_EQ(seqs.size(), spans.size() * 2);
    if (!seqs.empty()) {
      EXPECT_EQ(*seqs.begin(), 0u);
      EXPECT_EQ(*seqs.rbegin(), spans.size() * 2 - 1);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const SpanRecord* a = spans[i];
        const SpanRecord* b = spans[j];
        const bool disjoint =
            a->endSeq < b->beginSeq || b->endSeq < a->beginSeq;
        const bool aInB =
            b->beginSeq < a->beginSeq && a->endSeq < b->endSeq;
        const bool bInA =
            a->beginSeq < b->beginSeq && b->endSeq < a->endSeq;
        EXPECT_TRUE(disjoint || aInB || bInA)
            << "crossing spans " << a->name << " and " << b->name;
      }
    }
  }
}

TEST(Tracer, RecordsNestedSpans) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", "test");
    {
      ScopedSpan inner(&tracer, "inner", "test", 42);
    }
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  expectWellFormedNesting(records);
  // Inner closes first, so it is appended first.
  EXPECT_EQ(records[0].second.name, "inner");
  EXPECT_EQ(records[0].second.depth, 1);
  EXPECT_EQ(records[0].second.arg, 42);
  EXPECT_EQ(records[1].second.name, "outer");
  EXPECT_EQ(records[1].second.depth, 0);
  EXPECT_EQ(records[1].second.arg, -1);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  ScopedSpan span(nullptr, "ignored", "test");
  // Nothing to assert beyond "does not crash" — the disabled path.
}

TEST(Tracer, ConcurrentSpansStayPerThreadWellFormed) {
  Tracer tracer;
  util::ThreadPool pool(8);
  constexpr int kTasks = 2000;
  pool.parallelFor(kTasks, [&](std::size_t i) {
    ScopedSpan outer(&tracer, "outer", "test",
                     static_cast<std::int64_t>(i));
    ScopedSpan inner(&tracer, "inner", "test");
  });
  const auto records = tracer.records();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kTasks) * 2);
  expectWellFormedNesting(records);
}

TEST(Tracer, ChromeTraceExportIsValidJson) {
  Tracer tracer;
  {
    ScopedSpan a(&tracer, "phase", "crp", 3);
    ScopedSpan b(&tracer, "net", "groute");
  }
  std::ostringstream os;
  tracer.writeChromeTrace(os);
  const Json doc = Json::parse(os.str());
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_EQ(events.size(), 2u);
  for (const Json& event : events) {
    EXPECT_EQ(event.at("ph").asString(), "X");
    EXPECT_GE(event.at("dur").asDouble(), 0.0);
    EXPECT_EQ(event.at("pid").asInt(), 1);
  }
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
}

TEST(Tracer, ClearDropsRecords) {
  Tracer tracer;
  { ScopedSpan s(&tracer, "x", "test"); }
  EXPECT_EQ(tracer.records().size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.records().empty());
}

// ---- macros / runtime switch ----------------------------------------------

TEST(ObsMacros, DisabledFlagSuppressesRecording) {
  currentContext().reset();
  EnabledScope scope(false);
  CRP_OBS_COUNT("macro.disabled", 1);
  { CRP_OBS_SPAN("test", "macro.disabled.span"); }
  const MetricsSnapshot snap = currentContext().metrics().snapshot();
  const auto it = snap.counters.find("macro.disabled");
  EXPECT_TRUE(it == snap.counters.end() || it->second == 0);
  EXPECT_TRUE(currentContext().tracer().records().empty());
}

TEST(ObsMacros, EnabledFlagRecords) {
  currentContext().reset();
  EnabledScope scope(true);
  CRP_OBS_COUNT("macro.enabled", 2);
  CRP_OBS_COUNT("macro.enabled", 3);
  { CRP_OBS_SPAN_ARG("test", "macro.enabled.span", 7); }
  const MetricsSnapshot snap = currentContext().metrics().snapshot();
  EXPECT_EQ(snap.counters.at("macro.enabled"), 5u);
  const auto records = currentContext().tracer().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second.name, "macro.enabled.span");
  EXPECT_EQ(records[0].second.arg, 7);
  currentContext().reset();
}

TEST(ObsMacros, ConcurrentMacroCountsAreExact) {
  currentContext().reset();
  EnabledScope scope(true);
  util::ThreadPool pool(8);
  constexpr int kTasks = 10000;
  pool.parallelFor(kTasks, [&](std::size_t) {
    CRP_OBS_COUNT("macro.concurrent", 1);
  });
  const MetricsSnapshot snap = currentContext().metrics().snapshot();
  EXPECT_EQ(snap.counters.at("macro.concurrent"),
            static_cast<std::uint64_t>(kTasks));
  currentContext().reset();
}

// ---- per-session contexts --------------------------------------------------

TEST(ObsContext, IdsAreUniqueAndNeverZero) {
  ObsContext a;
  ObsContext b;
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(b.id(), 0u);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), ObsContext::defaultContext().id());
}

TEST(ObsContext, AmbientResolutionFallsBackToDefault) {
  EXPECT_EQ(&currentContext(), &ObsContext::defaultContext());
  ObsContext session;
  {
    ObsContextScope scope(session);
    EXPECT_EQ(&currentContext(), &session);
    ObsContext inner;
    {
      ObsContextScope nested(inner);
      EXPECT_EQ(&currentContext(), &inner);
    }
    EXPECT_EQ(&currentContext(), &session);
  }
  EXPECT_EQ(&currentContext(), &ObsContext::defaultContext());
}

TEST(ObsContext, ResetIsScopedToOneContext) {
  ObsContext a;
  ObsContext b;
  a.metrics().counter("ctx.reset")->add(3);
  b.metrics().counter("ctx.reset")->add(5);
  a.reset();
  EXPECT_EQ(a.metrics().counter("ctx.reset")->value(), 0u);
  EXPECT_EQ(b.metrics().counter("ctx.reset")->value(), 5u);
}

TEST(ObsContext, MacrosRecordIntoTheAmbientContext) {
  ObsContext a;
  ObsContext b;
  a.setEnabled(true);
  b.setEnabled(true);
  // One lambda = one macro call site: its thread-local instrument
  // cache must re-resolve when the ambient context changes.
  const auto hit = [] { CRP_OBS_COUNT("ctx.macro", 1); };
  {
    ObsContextScope scope(a);
    hit();
    hit();
  }
  {
    ObsContextScope scope(b);
    hit();
  }
  EXPECT_EQ(a.metrics().counter("ctx.macro")->value(), 2u);
  EXPECT_EQ(b.metrics().counter("ctx.macro")->value(), 1u);
}

TEST(ObsContext, DisabledContextSuppressesMacros) {
  ObsContext session;  // enabled() defaults to false
  {
    ObsContextScope scope(session);
    CRP_OBS_COUNT("ctx.disabled", 1);
  }
  const MetricsSnapshot snap = session.metrics().snapshot();
  const auto it = snap.counters.find("ctx.disabled");
  EXPECT_TRUE(it == snap.counters.end() || it->second == 0);
}

TEST(ObsContext, PoolWorkersInheritTheSubmittersContext) {
  ObsContext session;
  session.setEnabled(true);
  util::ThreadPool pool(4);
  constexpr int kTasks = 2000;
  {
    ObsContextScope scope(session);
    pool.parallelFor(kTasks, [](std::size_t) {
      CRP_OBS_COUNT("ctx.pool", 1);
    });
  }
  EXPECT_EQ(session.metrics().counter("ctx.pool")->value(),
            static_cast<std::uint64_t>(kTasks));
  const MetricsSnapshot defaults =
      ObsContext::defaultContext().metrics().snapshot();
  const auto it = defaults.counters.find("ctx.pool");
  EXPECT_TRUE(it == defaults.counters.end() || it->second == 0);
}

// A parallelFor helper can still wait in the pool's queue when its
// caller returns; the worker then re-installs the caller's context
// after that context is gone.  The scope must not read through it (an
// ASan build reports any access), and the stale helper must find its
// loop's cursor used up and leave without running the body.
TEST(ObsContext, QueuedHelperOutlivesItsContext) {
  auto pool = std::make_unique<util::ThreadPool>(1);
  std::atomic<bool> workerBusy{false};
  std::atomic<bool> release{false};

  // Keeps the only worker inside another caller's loop until released.
  std::thread blocker([&] {
    const std::thread::id caller = std::this_thread::get_id();
    pool->parallelFor(64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        workerBusy.store(true);
        while (!release.load()) std::this_thread::yield();
        return;
      }
      // The caller's own indices: slow until the worker holds a grain.
      do {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } while (!workerBusy.load());
    });
  });
  while (!workerBusy.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::thread session([&] {
    auto context = std::make_unique<ObsContext>();
    {
      ObsContextScope scope(*context);
      // Its one helper queues behind the busy worker; the caller
      // drains every index alone.
      pool->parallelFor(64, [&](std::size_t) { ran.fetch_add(1); });
    }
    context.reset();
  });
  session.join();
  EXPECT_EQ(ran.load(), 64);

  release.store(true);
  blocker.join();
  pool.reset();  // the worker runs the stale helper before it exits
  EXPECT_EQ(ran.load(), 64);
}

TEST(ObsContext, ConcurrentScopedCountsStayIsolated) {
  ObsContext a;
  ObsContext b;
  a.setEnabled(true);
  b.setEnabled(true);
  constexpr int kPerThread = 5000;
  const auto worker = [](ObsContext& ctx) {
    ObsContextScope scope(ctx);
    for (int i = 0; i < kPerThread; ++i) {
      CRP_OBS_COUNT("ctx.race", 1);
    }
  };
  std::thread ta(worker, std::ref(a));
  std::thread tb(worker, std::ref(b));
  ta.join();
  tb.join();
  EXPECT_EQ(a.metrics().counter("ctx.race")->value(),
            static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(b.metrics().counter("ctx.race")->value(),
            static_cast<std::uint64_t>(kPerThread));
}

// ---- RunReport schema ------------------------------------------------------

RunReport sampleReport() {
  RunReport report;
  report.iterations = 2;
  report.threads = 4;
  report.seed = 11;
  for (const char* phase : core::kPhases) {
    report.phases.push_back(RunReport::PhaseStat{phase, 0.25});
  }
  TimelineRecord it;
  it.criticalCells = 10;
  it.movedCells = 4;
  it.displacedCells = 1;
  it.reroutedNets = 9;
  it.selectedCost = 123.5;
  it.netsPriced = 777;
  report.iterationStats.push_back(it);
  report.pricing.cacheHits = 500;
  report.pricing.cacheMisses = 200;
  report.pricing.deltaSkips = 77;
  report.ilp.solves = 12;
  report.ilp.nodes = 340;
  report.ilp.lpCalls = 350;
  report.ilp.lpPivots = 4200;
  report.router.wirelengthDbu = 987654321;
  report.router.vias = 4321;
  report.router.totalOverflow = 1.5;
  report.router.overflowedEdges = 3;
  report.router.openNets = 0;
  report.router.reroutedNets = 17;
  report.totalMoves = 5;
  report.totalReroutes = 9;
  report.counters["ilp.solves"] = 12;
  return report;
}

TEST(RunReportSchema, RoundTripsThroughJson) {
  const RunReport report = sampleReport();
  const Json serialized = Json::parse(report.toJson().dump(2));
  const RunReport parsed = RunReport::fromJson(serialized);
  EXPECT_EQ(parsed.toJson(), report.toJson());
  EXPECT_EQ(parsed.pricing.netsPriced(), report.pricing.netsPriced());
  EXPECT_EQ(parsed.ilp.lpPivots, report.ilp.lpPivots);
  EXPECT_EQ(parsed.router.wirelengthDbu, report.router.wirelengthDbu);
  EXPECT_DOUBLE_EQ(parsed.phaseSeconds(core::kPhaseEcc), 0.25);
}

TEST(RunReportSchema, RejectsUnknownSchemaVersion) {
  Json j = sampleReport().toJson();
  j.set("schemaVersion", RunReport::kSchemaVersion + 1);
  EXPECT_THROW(RunReport::fromJson(j), JsonError);
  j.set("schemaVersion", 0);
  EXPECT_THROW(RunReport::fromJson(j), JsonError);
}

TEST(RunReportSchema, RejectsMissingFields) {
  Json j = Json::object();
  j.set("schemaVersion", RunReport::kSchemaVersion);
  EXPECT_THROW(RunReport::fromJson(j), JsonError);
}

TEST(RunReportSchema, EveryPhaseConstantAppearsExactlyOnce) {
  // The report is the single source of phase names: each core phase
  // constant appears exactly once, in flow order.
  const RunReport report = sampleReport();
  const Json j = report.toJson();
  const auto& phases = j.at("phases").asArray();
  ASSERT_EQ(phases.size(), static_cast<std::size_t>(core::kNumPhases));
  for (int i = 0; i < core::kNumPhases; ++i) {
    int count = 0;
    for (const Json& p : phases) {
      if (p.at("name").asString() == core::kPhases[i]) ++count;
    }
    EXPECT_EQ(count, 1) << core::kPhases[i];
    EXPECT_EQ(phases[i].at("name").asString(), core::kPhases[i]);
  }
}

TEST(RunReportSchema, FingerprintExcludesWallClockAndRacySplits) {
  RunReport a = sampleReport();
  RunReport b = sampleReport();
  // Wall clock, thread count, and the hit/miss split differ between
  // runs; the fingerprint must not.
  b.threads = 1;
  for (auto& phase : b.phases) phase.seconds *= 10.0;
  b.pricing.cacheHits = a.pricing.cacheHits + 50;
  b.pricing.cacheMisses = a.pricing.cacheMisses - 50;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // A real behavioral difference does change it.
  b.totalMoves += 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RunReportSchema, FormatUsesReportPhaseNames) {
  const std::string text = formatRunReport(sampleReport());
  for (const char* phase : core::kPhases) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(text.find("nets priced"), std::string::npos);
}

// ---- histogram re-registration policy --------------------------------------

TEST(Metrics, HistogramBoundMismatchIsCounted) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert on the mismatch instead of counting";
#else
  MetricsRegistry registry;
  Histogram* first = registry.histogram("policy.hist", {10, 100});
  // Same name, different bounds: first registration wins, but the
  // conflict is surfaced through the mismatch counter instead of being
  // silently ignored.
  Histogram* second = registry.histogram("policy.hist", {1, 2, 3});
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->bounds(), (std::vector<std::uint64_t>{10, 100}));
  EXPECT_EQ(registry.counter(MetricsRegistry::kBoundMismatchCounter)->value(),
            1u);
  // Re-registering with identical (or omitted) bounds is the supported
  // lookup path and must not count as a mismatch.
  registry.histogram("policy.hist", {10, 100});
  registry.histogram("policy.hist");
  EXPECT_EQ(registry.counter(MetricsRegistry::kBoundMismatchCounter)->value(),
            1u);
#endif
}

// ---- heatmap snapshots -----------------------------------------------------

/// 3x2 grid, one horizontal layer: wire edges live at x=0,1 (lower
/// endpoint indexing), the x=2 column carries no edge.
HeatmapSnapshot sampleSnapshot() {
  HeatmapSnapshot snap;
  snap.label = "post-gr";
  snap.iteration = -1;
  snap.width = 3;
  snap.height = 2;
  snap.numLayers = 1;
  HeatmapSnapshot::Plane demand;
  demand.kind = HeatmapSnapshot::kWireDemand;
  demand.layer = 0;
  demand.horizontal = true;
  demand.values = {1.0, 2.0, 0.0, 0.5, 3.0, 0.0};
  HeatmapSnapshot::Plane cap = demand;
  cap.kind = HeatmapSnapshot::kWireCapacity;
  cap.values = {2.0, 2.0, 0.0, 2.0, 2.0, 0.0};
  snap.planes = {std::move(demand), std::move(cap)};
  snap.totalOverflow = 1.0;
  snap.maxOverflow = 1.0;
  snap.overflowedEdges = 1;
  return snap;
}

TEST(Heatmap, JsonRoundTripIsExact) {
  const HeatmapSnapshot snap = sampleSnapshot();
  const HeatmapSnapshot parsed =
      HeatmapSnapshot::fromJson(Json::parse(snap.toJson().dump(2)));
  EXPECT_EQ(parsed.toJson(), snap.toJson());
  ASSERT_NE(parsed.findPlane(HeatmapSnapshot::kWireDemand, 0), nullptr);
  EXPECT_EQ(parsed.findPlane(HeatmapSnapshot::kWireDemand, 0)->values,
            snap.planes[0].values);
  EXPECT_EQ(parsed.findPlane("via.demand", 0), nullptr);
}

TEST(Heatmap, RejectsUnknownSchemaVersion) {
  Json j = sampleSnapshot().toJson();
  j.set("schemaVersion", HeatmapSnapshot::kSchemaVersion + 1);
  EXPECT_THROW(HeatmapSnapshot::fromJson(j), JsonError);
}

TEST(Heatmap, UtilisationGridAveragesTouchingEdges) {
  // Each edge charges demand/cap to both gcells it touches; gcells
  // average over their incident edges (the groute CongestionMap math).
  const UtilisationGrid grid = utilisationGrid(sampleSnapshot());
  ASSERT_EQ(grid.width, 3);
  ASSERT_EQ(grid.height, 2);
  EXPECT_DOUBLE_EQ(grid.at(0, 0), 0.5);            // edge (0,0) only
  EXPECT_DOUBLE_EQ(grid.at(1, 0), (0.5 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(grid.at(2, 0), 1.0);            // edge (1,0) only
  EXPECT_DOUBLE_EQ(grid.at(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(grid.at(1, 1), (0.25 + 1.5) / 2);
  EXPECT_DOUBLE_EQ(grid.at(2, 1), 1.5);            // overflowed edge
}

TEST(Heatmap, GlyphScaleSaturates) {
  EXPECT_EQ(utilisationGlyph(0.0), '.');
  EXPECT_EQ(utilisationGlyph(1.0), '#');
  EXPECT_EQ(utilisationGlyph(25.0), '#');  // overflow clamps to '#'
  EXPECT_EQ(utilisationGlyph(-0.5), '.');
}

TEST(Heatmap, AsciiRenderPutsHighestYOnTop) {
  std::ostringstream os;
  renderHeatmapAscii(os, sampleSnapshot());
  std::istringstream lines(os.str());
  std::string top, bottom;
  ASSERT_TRUE(std::getline(lines, top));
  ASSERT_TRUE(std::getline(lines, bottom));
  ASSERT_EQ(top.size(), 3u);
  // y=1 row: (2,1) is overflowed -> '#'; y=0 row: (2,0) = 1.0 -> '#',
  // (0,0) = 0.5 sits mid-scale.
  EXPECT_EQ(top[2], '#');
  EXPECT_EQ(bottom[0], utilisationGlyph(0.5));
}

TEST(Heatmap, PpmWriterEmitsOnePixelPerGcell) {
  std::ostringstream os;
  writeHeatmapPpm(os, sampleSnapshot());
  std::istringstream in(os.str());
  std::string magic;
  int width = 0, height = 0, maxVal = 0;
  in >> magic >> width >> height >> maxVal;
  EXPECT_EQ(magic, "P3");
  EXPECT_EQ(width, 3);
  EXPECT_EQ(height, 2);
  EXPECT_EQ(maxVal, 255);
  int samples = 0, value = 0;
  while (in >> value) {
    EXPECT_GE(value, 0);
    EXPECT_LE(value, 255);
    ++samples;
  }
  EXPECT_EQ(samples, 3 * 2 * 3);  // rgb per gcell
}

// ---- heatmap series (delta encoding) ---------------------------------------

TEST(HeatmapSeries, ReconstructsEverySnapshotExactly) {
  HeatmapSnapshot s0 = sampleSnapshot();
  HeatmapSnapshot s1 = s0;
  s1.label = "iter0";
  s1.iteration = 0;
  s1.planes[0].values[4] = 2.0;  // the rerouted edge
  s1.totalOverflow = 0.0;
  s1.maxOverflow = 0.0;
  s1.overflowedEdges = 0;
  HeatmapSnapshot s2 = s1;
  s2.label = "iter1";
  s2.iteration = 1;
  s2.planes[0].values[0] = 1.5;

  HeatmapSeries series;
  series.add(s0);
  series.add(s1);
  series.add(s2);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series.snapshot(0).toJson(), s0.toJson());
  EXPECT_EQ(series.snapshot(1).toJson(), s1.toJson());
  EXPECT_EQ(series.snapshot(2).toJson(), s2.toJson());
  EXPECT_EQ(series.latest().toJson(), s2.toJson());
}

TEST(HeatmapSeries, DeltaEncodingStoresOnlyChangedCells) {
  HeatmapSnapshot s0 = sampleSnapshot();
  HeatmapSnapshot s1 = s0;
  s1.iteration = 0;
  s1.planes[0].values[4] = 2.0;  // exactly one cell changes

  HeatmapSeries series;
  series.add(s0);
  series.add(s1);
  const Json j = series.toJson();
  const auto& deltas = j.at("deltas").asArray();
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].at("changes").asArray().size(), 1u);
}

TEST(HeatmapSeries, JsonRoundTripPreservesReconstruction) {
  HeatmapSnapshot s0 = sampleSnapshot();
  HeatmapSnapshot s1 = s0;
  s1.iteration = 0;
  s1.planes[0].values[1] = 0.5;

  HeatmapSeries series;
  series.add(s0);
  series.add(s1);
  const HeatmapSeries parsed =
      HeatmapSeries::fromJson(Json::parse(series.toJson().dump(2)));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.snapshot(0).toJson(), s0.toJson());
  EXPECT_EQ(parsed.snapshot(1).toJson(), s1.toJson());
  EXPECT_EQ(parsed.latest().toJson(), s1.toJson());
  EXPECT_EQ(parsed.toJson(), series.toJson());
}

TEST(HeatmapSeries, EmptySeriesRoundTrips) {
  const HeatmapSeries series;
  EXPECT_TRUE(series.empty());
  const HeatmapSeries parsed =
      HeatmapSeries::fromJson(Json::parse(series.toJson().dump()));
  EXPECT_TRUE(parsed.empty());
}

// ---- flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingKeepsMostRecentEventsInOrder) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.record("test", "event" + std::to_string(i), i);
  }
  EXPECT_EQ(recorder.totalRecorded(), 10u);
  const std::vector<FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);  // bounded by capacity
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // oldest-first, newest retained
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(6 + i));
  }
}

TEST(FlightRecorder, DumpCarriesTriggerEventsAndHeatmap) {
  FlightRecorder recorder(8);
  recorder.record("crp", "phase.LCC", 0);
  recorder.record("crp", "commit", 3);
  recorder.setLatestHeatmap(sampleSnapshot().toJson());

  Json trigger = Json::object();
  trigger.set("source", "test");
  const Json dump = Json::parse(recorder.dump(std::move(trigger)).dump(2));
  EXPECT_EQ(dump.at("schemaVersion").asInt(), FlightRecorder::kSchemaVersion);
  EXPECT_EQ(dump.at("trigger").at("source").asString(), "test");
  EXPECT_EQ(dump.at("eventsRecorded").asUint(), 2u);
  const auto& events = dump.at("events").asArray();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("label").asString(), "phase.LCC");
  EXPECT_EQ(events[1].at("value").asInt(), 3);
  // The attached heatmap decodes back into a snapshot.
  const HeatmapSnapshot heatmap =
      HeatmapSnapshot::fromJson(dump.at("latestHeatmap"));
  EXPECT_EQ(heatmap.toJson(), sampleSnapshot().toJson());
}

TEST(FlightRecorder, ClearDropsEventsAndHeatmap) {
  FlightRecorder recorder(4);
  recorder.record("a", "b", 1);
  recorder.setLatestHeatmap(sampleSnapshot().toJson());
  recorder.clear();
  EXPECT_EQ(recorder.totalRecorded(), 0u);
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_TRUE(recorder.dump(Json::object()).at("latestHeatmap").isNull());
}

TEST(FlightRecorder, ConcurrentAppendsStayBoundedAndWellFormed) {
  // The TSan leg runs this case: many threads hammering record() while
  // a reader snapshots the ring must stay race-free.
  FlightRecorder recorder(64);
  util::ThreadPool pool(8);
  constexpr int kTasks = 4000;
  pool.parallelFor(kTasks, [&](std::size_t i) {
    recorder.record("stress", "append", static_cast<std::int64_t>(i));
    if (i % 128 == 0) (void)recorder.events();
  });
  EXPECT_EQ(recorder.totalRecorded(), static_cast<std::uint64_t>(kTasks));
  const std::vector<FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // The retained window is the last `capacity` sequence numbers, in
    // order, regardless of which thread produced each.
    EXPECT_EQ(events[i].seq, static_cast<std::uint64_t>(kTasks - 64 + i));
  }
}

TEST(FlightRecorder, EventMacroHonoursRuntimeGate) {
  currentContext().reset();
  {
    EnabledScope disabled(false);
    CRP_OBS_EVENT("test", "gated", 1);
    EXPECT_EQ(currentContext().flightRecorder().totalRecorded(), 0u);
  }
  {
    EnabledScope enabled(true);
    CRP_OBS_EVENT("test", "gated", 2);
    EXPECT_EQ(currentContext().flightRecorder().totalRecorded(), 1u);
    EXPECT_EQ(currentContext().flightRecorder().events().back().value, 2);
  }
  currentContext().reset();
}

// ---- flow timeline ---------------------------------------------------------

TimelineRecord sampleTimelineRecord(int iteration) {
  TimelineRecord record;
  record.iteration = iteration;
  record.criticalCells = 12;
  record.dampedCells = 3;
  record.candidatesGenerated = 60;
  record.netsPriced = 480;
  record.movesSelected = 7;
  record.selectedCost = 815.25;
  record.movedCells = 6;
  record.displacedCells = 2;
  record.totalDisplacementDbu = 5400;
  record.maxDisplacementDbu = 1200;
  record.reroutedNets = 19;
  record.overflowBefore = 14.0;
  record.overflowAfter = 9.5;
  record.overflowedEdgesBefore = 8;
  record.overflowedEdgesAfter = 5;
  record.overflowCaptured = true;
  return record;
}

TEST(Timeline, RecordRoundTripsThroughJson) {
  const TimelineRecord record = sampleTimelineRecord(0);
  const TimelineRecord parsed =
      TimelineRecord::fromJson(Json::parse(record.toJson().dump()));
  EXPECT_EQ(parsed.toJson(), record.toJson());
  EXPECT_EQ(parsed.totalDisplacementDbu, record.totalDisplacementDbu);
  EXPECT_DOUBLE_EQ(parsed.overflowAfter, record.overflowAfter);
}

TEST(Timeline, FormatAndCsvCoverEveryRecord) {
  const std::vector<TimelineRecord> timeline = {sampleTimelineRecord(0),
                                                sampleTimelineRecord(1)};
  const std::string table = formatTimeline(timeline);
  EXPECT_NE(table.find("iter"), std::string::npos);
  EXPECT_NE(table.find("ovfl"), std::string::npos);

  const std::string csv = timelineCsv(timeline);
  int lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);  // header + one line per record
  EXPECT_NE(csv.find("overflowBefore"), std::string::npos);
}

TEST(RunReportSchema, TimelineIsOptionalAndRoundTrips) {
  // Absent timeline (snapshots off): no "timeline" key at all, so
  // pre-spatial consumers and goldens see byte-identical output.
  const RunReport bare = sampleReport();
  EXPECT_EQ(bare.toJson().find("timeline"), nullptr);
  EXPECT_TRUE(RunReport::fromJson(bare.toJson()).timeline().empty());

  // Present timeline: serialized under the v2 schema and recovered
  // field-for-field.
  RunReport spatial = sampleReport();
  spatial.iterationStats = {sampleTimelineRecord(0), sampleTimelineRecord(1)};
  const RunReport parsed =
      RunReport::fromJson(Json::parse(spatial.toJson().dump(2)));
  ASSERT_EQ(parsed.timeline().size(), 2u);
  EXPECT_EQ(parsed.toJson(), spatial.toJson());
  EXPECT_EQ(parsed.iterationStats[1].toJson(),
            spatial.iterationStats[1].toJson());

  // A timeline entry without an iterations_detail entry is malformed.
  Json orphan = spatial.toJson();
  orphan.set("iterations_detail", Json::array());
  EXPECT_THROW(RunReport::fromJson(orphan), JsonError);

  // A real run whose captures start late and which ends with ECO
  // iterations: iteration 0 runs with the obs gate off (no overflow
  // bracket), iteration 1 with it on, then one captured ECO iteration.
  // The timeline holds iterations 1 and 2 only; fromJson pairs each
  // entry with its iterations_detail entry by iteration number.
  bmgen::BenchmarkSpec spec;
  spec.name = "late_capture";
  spec.targetCells = 120;
  spec.seed = 3;
  db::Database db = bmgen::generateBenchmark(spec);
  groute::GlobalRouter router(db);
  router.run();
  ObsContext context;  // starts disabled
  ObsContextScope scope(context);
  core::CrpOptions options;
  options.snapshots = true;
  core::CrpFramework framework(db, router, options);
  framework.runIteration();
  context.setEnabled(true);
  framework.runIteration();
  framework.runEco(bmgen::perturbDesign(db, {0.02, 9}));
  const RunReport& run = framework.runReport();
  ASSERT_EQ(run.iterationStats.size(), 3u);
  const std::vector<TimelineRecord> timeline = run.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].iteration, 1);
  EXPECT_FALSE(timeline[0].eco);
  EXPECT_EQ(timeline[1].iteration, 2);
  EXPECT_TRUE(timeline[1].eco);
  const Json json = run.toJson();
  const RunReport reparsed = RunReport::fromJson(Json::parse(json.dump(2)));
  EXPECT_EQ(reparsed.toJson(), json);
  EXPECT_EQ(reparsed.fingerprint(), run.fingerprint());
  ASSERT_EQ(reparsed.iterationStats.size(), 3u);
  EXPECT_FALSE(reparsed.iterationStats[0].overflowCaptured);
  EXPECT_EQ(reparsed.iterationStats[1].toJson(), timeline[0].toJson());
  EXPECT_EQ(reparsed.iterationStats[2].toJson(), timeline[1].toJson());
}

TEST(RunReportSchema, FingerprintVersionIsDecoupledFromSchemaVersion) {
  // The v1->v2 schema bump is additive; fingerprints of timeline-free
  // reports must stay pinned to the golden-era version so existing
  // golden files remain valid.
  EXPECT_EQ(RunReport::kSchemaVersion, 2);
  const Json fp = sampleReport().fingerprint();
  EXPECT_EQ(fp.at("schemaVersion").asInt(), RunReport::kFingerprintVersion);
  EXPECT_EQ(fp.find("timeline"), nullptr);

  // A timeline, when present, is part of the behavioural fingerprint:
  // capturing a record adds it, and then its timeline-only fields count.
  RunReport spatial = sampleReport();
  spatial.iterationStats[0].overflowCaptured = true;
  EXPECT_NE(spatial.fingerprint(), sampleReport().fingerprint());
  RunReport changed = spatial;
  changed.iterationStats[0].dampedCells += 1;
  EXPECT_NE(changed.fingerprint(), spatial.fingerprint());
}

// ---- Histogram quantiles ---------------------------------------------------

TEST(Metrics, HistogramQuantileInterpolatesHandBuiltDistribution) {
  // 5 samples in (0, 10], 5 in (10, 20]: the cumulative counts are
  // known exactly, so every quantile is computable by hand with the
  // Prometheus estimator (linear interpolation inside the bucket).
  Histogram h({10, 20, 30});
  for (int i = 0; i < 5; ++i) h.record(10);
  for (int i = 0; i < 5; ++i) h.record(20);

  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);    // rank 5 closes bucket 0
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);   // midway through (10, 20]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);    // rank 10 closes bucket 1
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);    // midway through (0, 10]
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Metrics, HistogramQuantileEmptyAndOverflow) {
  Histogram empty({1, 2, 4});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // Every sample past the highest bound: no finite upper edge to
  // interpolate toward, so the estimator reports the highest bound —
  // the same convention histogram_quantile uses for the +Inf bucket.
  Histogram overflow({1, 2, 4});
  for (int i = 0; i < 3; ++i) overflow.record(1000);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.99), 4.0);
}

TEST(Metrics, HistogramQuantileAgreesBetweenLiveAndSnapshotPaths) {
  // loadgen uses Histogram::quantile, the exposition consumers use
  // MetricsSnapshot::HistogramData::quantile; both must be the same
  // estimator over the same buckets.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat", {1, 2, 4, 8, 16});
  for (std::uint64_t v : {1u, 1u, 3u, 5u, 9u, 17u, 100u}) h->record(v);
  const MetricsSnapshot snap = registry.snapshot();
  const auto& data = snap.histograms.at("lat");
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(data.quantile(q), h->quantile(q)) << "q=" << q;
  }
}

TEST(Metrics, HistogramQuantileConcurrentRecordThenSnapshot) {
  // TSan leg: concurrent record() against quantile()/snapshot readers
  // must be race-free, and after the join the distribution is exact.
  Histogram h(Histogram::defaultBounds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i % 64 + 1));
        if (i % 512 == 0) (void)h.quantile(0.5);  // concurrent reader
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // Quantiles are monotone in q over the settled distribution.
  double previous = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // Samples span 1..64, so the extremes are pinned.
  EXPECT_GE(h.quantile(1.0), 64.0);
  EXPECT_LE(h.quantile(0.0), 1.0);
}

// ---- Prometheus exposition -------------------------------------------------

TEST(Prometheus, SanitizeMetricNameReplacesIllegalChars) {
  EXPECT_EQ(sanitizeMetricName("serve.op.run.latency"),
            "serve_op_run_latency");
  EXPECT_EQ(sanitizeMetricName("already_legal:name"), "already_legal:name");
  EXPECT_EQ(sanitizeMetricName("spaces and-dashes"), "spaces_and_dashes");
  // A leading digit is legal mid-name but not first.
  EXPECT_EQ(sanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(sanitizeMetricName(""), "_");
}

TEST(Prometheus, GoldenExposition) {
  // One instrument of each kind with hand-set values; the rendered
  // payload must match the text exposition format byte for byte
  // (cumulative buckets, +Inf closing bucket, _sum/_count).
  MetricsRegistry registry;
  registry.counter("crp.moves")->add(3);
  registry.gauge("temp")->set(1.5);
  Histogram* h = registry.histogram("lat", {1, 2});
  h->record(1);
  h->record(2);
  h->record(5);  // overflow

  const std::string expected =
      "# TYPE crp_moves counter\n"
      "crp_moves 3\n"
      "# TYPE temp gauge\n"
      "temp 1.5\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 1\n"
      "lat_bucket{le=\"2\"} 2\n"
      "lat_bucket{le=\"+Inf\"} 3\n"
      "lat_sum 8\n"
      "lat_count 3\n";
  EXPECT_EQ(renderPrometheus(registry), expected);
}

TEST(Prometheus, PrefixQualifiesWithoutStutter) {
  // Metrics already namespaced like the prefix must not double up
  // (crp.moves with prefix "crp" is crp_moves, not crp_crp_moves).
  MetricsRegistry registry;
  registry.counter("crp.moves")->add(1);
  registry.counter("other")->add(2);
  const std::string text = renderPrometheus(registry, "crp");
  EXPECT_NE(text.find("crp_moves 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("crp_other 2\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("crp_crp"), std::string::npos) << text;
}

TEST(Prometheus, BucketsAreCumulativeAndCloseAtCount) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("d", {1, 2, 4, 8});
  for (std::uint64_t v : {1u, 2u, 2u, 3u, 9u}) h->record(v);
  const std::string text = renderPrometheus(registry);
  // Disjoint counts are 1,2,1,0,overflow 1 -> cumulative 1,3,4,4 and
  // the +Inf bucket equals _count.
  EXPECT_NE(text.find("d_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("d_bucket{le=\"2\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("d_bucket{le=\"4\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("d_bucket{le=\"8\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("d_bucket{le=\"+Inf\"} 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("d_count 5\n"), std::string::npos) << text;
}

// ---- Run ledger ------------------------------------------------------------

namespace fs = std::filesystem;

std::string ledgerTempDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("crp_test_obs_" + std::to_string(::getpid())) / name;
  fs::create_directories(dir);
  return dir.string();
}

TEST(RunLedger, Fnv1a64HexMatchesKnownVectors) {
  // Published FNV-1a 64 test vectors — the digest must be
  // platform-independent because ledgers compare across hosts.
  EXPECT_EQ(fnv1a64Hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a64Hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1a64Hex("foobar"), "85944171f73967e8");
}

RunLedgerEntry sampleLedgerEntry(const char* kind, const char* design) {
  RunLedgerEntry entry = makeRunLedgerEntry(sampleReport());
  entry.kind = kind;
  entry.design = design;
  entry.optionsDigest = fnv1a64Hex("options");
  return entry;
}

TEST(RunLedger, EntryJsonRoundTrips) {
  const RunLedgerEntry entry = sampleLedgerEntry("run", "tiny");
  // Flow lines written before the chip-tile decomposition was removed
  // also carry a "tiles" object; old ledgers must keep loading.
  Json legacy = entry.toJson();
  Json tiles = Json::object();
  tiles.set("rows", 1);
  tiles.set("cols", 1);
  legacy.set("tiles", std::move(tiles));
  for (const Json& doc : {entry.toJson(), legacy}) {
    SCOPED_TRACE(doc.dump());
    const RunLedgerEntry parsed =
        RunLedgerEntry::fromJson(Json::parse(doc.dump()));
    EXPECT_EQ(parsed.kind, entry.kind);
    EXPECT_EQ(parsed.design, entry.design);
    EXPECT_EQ(parsed.gitSha, entry.gitSha);
    EXPECT_EQ(parsed.dirty, entry.dirty);
    EXPECT_EQ(parsed.dirtyFiles, entry.dirtyFiles);
    EXPECT_EQ(parsed.seed, entry.seed);
    EXPECT_EQ(parsed.optionsDigest, entry.optionsDigest);
    EXPECT_EQ(parsed.fingerprintDigest, entry.fingerprintDigest);
    EXPECT_EQ(parsed.qor.wirelengthDbu, entry.qor.wirelengthDbu);
    EXPECT_EQ(parsed.qor.openNets, entry.qor.openNets);
    ASSERT_EQ(parsed.phases.size(), entry.phases.size());
    EXPECT_EQ(parsed.phases.front().name, entry.phases.front().name);
    EXPECT_DOUBLE_EQ(parsed.wallSeconds, entry.wallSeconds);
  }
}

TEST(RunLedger, FromJsonRejectsWrongSchemaVersion) {
  Json doc = sampleLedgerEntry("run", "tiny").toJson();
  doc.set("schemaVersion", RunLedgerEntry::kSchemaVersion + 1);
  EXPECT_THROW(RunLedgerEntry::fromJson(doc), JsonError);
}

TEST(RunLedger, MakeEntryCapturesReportDeterministically) {
  const RunReport report = sampleReport();
  const RunLedgerEntry entry = makeRunLedgerEntry(report);
  EXPECT_EQ(entry.fingerprintDigest, fnv1a64Hex(report.fingerprint().dump()));
  EXPECT_EQ(entry.seed, report.seed);
  EXPECT_EQ(entry.qor.wirelengthDbu, report.router.wirelengthDbu);
  EXPECT_DOUBLE_EQ(entry.cacheHitRate, report.pricing.hitRate());
  EXPECT_DOUBLE_EQ(entry.wallSeconds, report.totalPhaseSeconds());
  // Two entries from the same report digest identically (provenance
  // aside, the ledger is a function of the report).
  EXPECT_EQ(makeRunLedgerEntry(report).fingerprintDigest,
            entry.fingerprintDigest);
}

TEST(RunLedger, LoadMissingFileIsEmpty) {
  const RunLedger::LoadResult loaded =
      RunLedger::load(ledgerTempDir("missing") + "/never_written.jsonl");
  EXPECT_TRUE(loaded.entries.empty());
  EXPECT_EQ(loaded.skippedLines, 0);
}

TEST(RunLedger, AppendLoadRoundTripSurvivesTornTail) {
  const std::string path = ledgerTempDir("torn") + "/ledger.jsonl";
  RunLedger ledger(path);
  std::string error;
  ASSERT_TRUE(ledger.append(sampleLedgerEntry("run", "a"), &error)) << error;
  ASSERT_TRUE(ledger.append(sampleLedgerEntry("run", "b"), &error)) << error;

  // Simulate a crash mid-append: a torn, unterminated JSON fragment at
  // the tail of the file.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"kind\":\"run\",\"des";
  }
  RunLedger::LoadResult loaded = RunLedger::load(path);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.skippedLines, 1);

  // The next append must repair the torn tail (newline first) so the
  // new entry lands on its own line and stays parseable.
  ASSERT_TRUE(ledger.append(sampleLedgerEntry("eco", "c"), &error)) << error;
  loaded = RunLedger::load(path);
  ASSERT_EQ(loaded.entries.size(), 3u);
  EXPECT_EQ(loaded.skippedLines, 1);
  EXPECT_EQ(loaded.entries.back().kind, "eco");
  EXPECT_EQ(loaded.entries.back().design, "c");
}

// ---- Analytics: report diff ------------------------------------------------

TEST(Analytics, DiffOfIdenticalReportsIsClean) {
  const RunReport report = sampleReport();
  const ReportDiff diff = diffReports(report, report);
  EXPECT_TRUE(diff.fingerprintsIdentical);
  EXPECT_TRUE(diff.qorIdentical);
  EXPECT_TRUE(diff.configsMatch);
  for (const ReportDiff::Delta& d : diff.qor) {
    EXPECT_DOUBLE_EQ(d.delta(), 0.0) << d.name;
  }
  for (const ReportDiff::Delta& d : diff.phases) {
    EXPECT_DOUBLE_EQ(d.delta(), 0.0) << d.name;
  }
  const std::string text = formatReportDiff(diff, "a.json", "b.json");
  EXPECT_NE(text.find("fingerprints: identical"), std::string::npos) << text;
}

TEST(Analytics, DiffDetectsQorDivergence) {
  const RunReport a = sampleReport();
  RunReport b = sampleReport();
  b.router.vias += 7;
  const ReportDiff diff = diffReports(a, b);
  EXPECT_FALSE(diff.fingerprintsIdentical);
  EXPECT_FALSE(diff.qorIdentical);
  const auto vias = std::find_if(
      diff.qor.begin(), diff.qor.end(),
      [](const ReportDiff::Delta& d) { return d.name == "vias"; });
  ASSERT_NE(vias, diff.qor.end());
  EXPECT_DOUBLE_EQ(vias->delta(), 7.0);
  EXPECT_NE(formatReportDiff(diff, "a", "b").find("DIFFER"),
            std::string::npos);
}

TEST(Analytics, DiffAlignsIterationsAndTimelineBrackets) {
  RunReport a = sampleReport();
  RunReport b = sampleReport();
  // Both ran iteration 1, captured on both sides (a captured only
  // that one, b both), so brackets pair by iteration number, not by
  // position among the captures.  b ran one extra iteration; a's
  // missing side counts from zero.
  a.iterationStats.push_back(sampleTimelineRecord(1));
  a.iterationStats[1].overflowAfter = 4.0;
  b.iterationStats = {sampleTimelineRecord(0), sampleTimelineRecord(1)};
  TimelineRecord extra;
  extra.iteration = 2;
  extra.movedCells = 5;
  b.iterationStats.push_back(extra);

  const ReportDiff diff = diffReports(a, b);
  ASSERT_EQ(diff.iterations.size(), 3u);
  EXPECT_FALSE(diff.iterations[0].hasOverflow);
  EXPECT_TRUE(diff.iterations[1].hasOverflow);
  EXPECT_DOUBLE_EQ(diff.iterations[1].overflowAfterA, 4.0);
  EXPECT_DOUBLE_EQ(diff.iterations[1].overflowAfterB, 9.5);
  EXPECT_EQ(diff.iterations[1].movedCells, 0);
  EXPECT_EQ(diff.iterations[2].movedCells, 5);
  EXPECT_FALSE(diff.iterations[2].hasOverflow);
  // The structured JSON mirrors the struct.
  const Json json = diff.toJson();
  EXPECT_EQ(json.at("iterations").size(), 3u);
}

// ---- Analytics: ledger check -----------------------------------------------

TEST(Analytics, CheckLedgerFirstEntrySkips) {
  RunLedger::LoadResult loaded;
  loaded.entries.push_back(sampleLedgerEntry("run", "tiny"));
  const LedgerCheckResult result = checkLedger(loaded);
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_FALSE(result.series[0].checked);
  EXPECT_NE(result.format().find("SKIP"), std::string::npos);
}

TEST(Analytics, CheckLedgerGatesQorGrowthWorseOnly) {
  RunLedger::LoadResult loaded;
  RunLedgerEntry prev = sampleLedgerEntry("run", "tiny");
  prev.qor.wirelengthDbu = 1000;
  RunLedgerEntry improved = prev;
  improved.qor.wirelengthDbu = 900;  // improvements never fail
  loaded.entries = {prev, improved};
  EXPECT_TRUE(checkLedger(loaded).ok);

  RunLedgerEntry regressed = prev;
  regressed.qor.wirelengthDbu = 1030;  // +3% > the 2% band
  loaded.entries = {prev, regressed};
  const LedgerCheckResult result = checkLedger(loaded);
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_FALSE(result.series[0].failures.empty());
  EXPECT_NE(result.format().find("wirelength regressed"), std::string::npos);
}

TEST(Analytics, CheckLedgerNeverAllowsNewOpenNets) {
  RunLedger::LoadResult loaded;
  RunLedgerEntry prev = sampleLedgerEntry("run", "tiny");
  prev.qor.openNets = 0;
  RunLedgerEntry last = prev;
  last.qor.openNets = 1;
  loaded.entries = {prev, last};
  const LedgerCheckResult result = checkLedger(loaded);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.format().find("open nets regressed"), std::string::npos);
}

TEST(Analytics, CheckLedgerBenchDirectionHeuristic) {
  const auto benchEntry = [](double runMs, double speedup) {
    RunLedgerEntry entry = sampleLedgerEntry("bench", "BENCH_x");
    entry.metrics = Json::object();
    entry.metrics.set("run_ms", runMs);
    entry.metrics.set("speedup", speedup);
    entry.metrics.set("jobs", 100.0);  // undirected: never gated
    return entry;
  };
  // Latency more than doubled (tolPerfRel = 1.0) -> fail.
  RunLedger::LoadResult loaded;
  loaded.entries = {benchEntry(100.0, 2.0), benchEntry(250.0, 2.0)};
  EXPECT_FALSE(checkLedger(loaded).ok);
  // Speedup less than halved -> fail.
  loaded.entries = {benchEntry(100.0, 2.0), benchEntry(100.0, 0.9)};
  EXPECT_FALSE(checkLedger(loaded).ok);
  // Within both bands (and the undirected count swinging wildly) -> ok.
  loaded.entries = {benchEntry(100.0, 2.0), benchEntry(150.0, 1.5)};
  RunLedgerEntry noisy = benchEntry(150.0, 1.5);
  noisy.metrics.set("jobs", 1.0);
  loaded.entries.back() = noisy;
  EXPECT_TRUE(checkLedger(loaded).ok);
}

TEST(Analytics, CheckLedgerSkipDirtyFiltersEntries) {
  RunLedger::LoadResult loaded;
  RunLedgerEntry clean = sampleLedgerEntry("run", "tiny");
  clean.dirty = false;
  clean.qor.wirelengthDbu = 1000;
  RunLedgerEntry dirty = clean;
  dirty.dirty = true;
  dirty.qor.wirelengthDbu = 5000;  // would fail the band if compared
  loaded.entries = {clean, dirty};

  LedgerCheckOptions options;
  options.skipDirty = true;
  const LedgerCheckResult filtered = checkLedger(loaded, options);
  EXPECT_TRUE(filtered.ok);
  ASSERT_EQ(filtered.series.size(), 1u);
  EXPECT_FALSE(filtered.series[0].checked);  // dirty entry filtered out

  // Without the filter the regression is caught (with a dirty note).
  const LedgerCheckResult unfiltered = checkLedger(loaded);
  EXPECT_FALSE(unfiltered.ok);
  EXPECT_NE(unfiltered.format().find("dirty"), std::string::npos);
}

}  // namespace
}  // namespace crp::obs
