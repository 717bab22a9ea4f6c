// The metrics registry (obs/metrics.hpp): striped counter exactness
// under real concurrency, histogram bucket placement and snapshot
// merges, registry registration semantics, and both export formats
// (ordered JSON, Prometheus text exposition).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace antdense::obs {
namespace {

// --- Counter ----------------------------------------------------------

TEST(ObsCounter, SumsAcrossSlotsExactly) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.increment();
  EXPECT_EQ(c.value(), 4u);
}

TEST(ObsCounter, ConcurrentAddsLoseNothing) {
  // More threads than sink slots, so several threads share a slot and
  // the relaxed fetch_add path is genuinely contended.
  Counter c;
  constexpr int kThreads = 24;
  constexpr std::uint64_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        c.add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

// --- Histogram --------------------------------------------------------

TEST(ObsHistogram, PlacesObservationsInCorrectBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // boundary lands in its own bucket (le semantics)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow -> +Inf
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 1006.5);
}

TEST(ObsHistogram, RejectsUnsortedOrNonFiniteBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(ObsHistogram, SnapshotMergeAddsCountsAndSums) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.observe(0.5);
  a.observe(1.5);
  b.observe(1.5);
  b.observe(9.0);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 2u);
  EXPECT_EQ(merged.counts[2], 1u);
  EXPECT_DOUBLE_EQ(merged.sum, 12.5);
}

TEST(ObsHistogram, MergeRejectsMismatchedBounds) {
  Histogram a({1.0});
  Histogram b({2.0});
  HistogramSnapshot snap = a.snapshot();
  EXPECT_THROW(snap.merge(b.snapshot()), std::invalid_argument);
}

TEST(ObsHistogram, DefaultLatencyBoundsAreAscending) {
  const std::vector<double>& bounds = Histogram::default_latency_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ObsHistogram, ConcurrentObservationsLoseNothing) {
  Histogram h({0.5});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe(1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.counts[1], kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads * kPerThread));
}

// --- MetricsRegistry --------------------------------------------------

TEST(ObsRegistry, ReregistrationReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", {{"type", "run"}});
  Counter& b = reg.counter("requests_total", {{"type", "run"}});
  EXPECT_EQ(&a, &b);
  // Different labels -> different series under the same family.
  Counter& c = reg.counter("requests_total", {{"type", "sweep"}});
  EXPECT_NE(&a, &c);
}

TEST(ObsRegistry, KindMismatchAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("thing_total");
  EXPECT_THROW(reg.gauge("thing_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("thing_total"), std::invalid_argument);
  EXPECT_THROW(reg.counter("bad name"), std::invalid_argument);
  EXPECT_THROW(reg.counter("0leading"), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(ObsRegistry, JsonSnapshotKeepsRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("zzz_total").add(2);
  reg.gauge("aaa_level").set(-5);
  reg.histogram("lat_seconds", {1.0}).observe(0.5);
  const util::JsonValue doc = reg.to_json();
  const auto& entries = doc.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "zzz_total");
  EXPECT_EQ(entries[1].first, "aaa_level");
  EXPECT_EQ(entries[2].first, "lat_seconds");
  EXPECT_EQ(doc.find("zzz_total")->find("type")->as_string(), "counter");
  EXPECT_EQ(doc.find("zzz_total")->find("value")->as_uint(), 2u);
  EXPECT_EQ(doc.find("aaa_level")->find("value")->as_double(), -5.0);
  const util::JsonValue* hist = doc.find("lat_seconds");
  EXPECT_EQ(hist->find("count")->as_uint(), 1u);
  ASSERT_NE(hist->find("buckets"), nullptr);
  // Round-trips through the JSON parser (well-formed by construction).
  EXPECT_NO_THROW(util::JsonValue::parse(doc.dump()));
}

TEST(ObsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("hits_total", {{"tier", "memory"}}, "Cache hits").add(3);
  reg.counter("hits_total", {{"tier", "disk"}}).add(1);
  reg.gauge("depth", {}, "Queue depth").set(4);
  reg.histogram("lat_seconds", {1e-6, 1e-3}, {}, "Latency").observe(1e-4);
  const std::string text = reg.to_prometheus();

  // HELP/TYPE appear once per family, before its first series.
  EXPECT_NE(text.find("# HELP hits_total Cache hits\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hits_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE hits_total counter"),
            text.rfind("# TYPE hits_total counter"))
      << "TYPE must not repeat for the second labeled series";
  EXPECT_NE(text.find("hits_total{tier=\"memory\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("hits_total{tier=\"disk\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 4\n"), std::string::npos);

  // Histogram series: cumulative buckets with shortest-round-trip
  // bounds, then _sum and _count, and a final +Inf bucket == _count.
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 0.0001\n"), std::string::npos);
}

TEST(ObsRegistry, PrometheusFormatsLargeAndInfiniteValues) {
  // A bound past int64_t's range prints in exponent form (the integer
  // branch must check the range before it casts), and an infinite
  // observation reaches _sum as the exposition format's +Inf.
  MetricsRegistry reg;
  reg.histogram("big", {1.0, 1e19}, {}).observe(
      std::numeric_limits<double>::infinity());
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("big_bucket{le=\"1e+19\"} 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("big_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("big_sum +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("big_count 1\n"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshotSpellsNonFiniteSumsLikePrometheus) {
  // JSON has no infinity or NaN literal: a non-finite histogram sum is
  // written as the exposition format's string, and finite sums stay
  // numbers.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MetricsRegistry reg;
  reg.histogram("up", {1.0}).observe(kInf);
  reg.histogram("down", {1.0}).observe(-kInf);
  Histogram& both = reg.histogram("both", {1.0});
  both.observe(kInf);
  both.observe(std::numeric_limits<double>::quiet_NaN());
  reg.histogram("fine", {1.0}).observe(0.5);
  std::string text;
  ASSERT_NO_THROW(text = reg.to_json().dump(0));
  const util::JsonValue doc = util::JsonValue::parse(text);
  EXPECT_EQ(doc.find("up")->find("sum")->as_string(), "+Inf");
  EXPECT_EQ(doc.find("down")->find("sum")->as_string(), "-Inf");
  EXPECT_EQ(doc.find("both")->find("sum")->as_string(), "NaN");
  EXPECT_EQ(doc.find("both")->find("count")->as_uint(), 2u);
  EXPECT_EQ(doc.find("fine")->find("sum")->as_double(), 0.5);
}

TEST(ObsRegistry, FormatLabels) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"a", "x"}, {"b", "y"}}),
            "{a=\"x\",b=\"y\"}");
  // Label values are escaped, not trusted.
  EXPECT_EQ(format_labels({{"a", "he\"llo"}}), "{a=\"he\\\"llo\"}");
}

}  // namespace
}  // namespace antdense::obs
