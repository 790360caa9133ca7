// Tests for the observability subsystem (src/obs): the lock-free metrics
// registry, the dual-clock span tracer, the periodic exporter, and the
// concurrent-scrape contract on UpdateLedger (these tests run under the
// sanitizer CI legs; the ledger test is the TSan witness for the "live
// observer thread" promise in core/update_ledger.hpp).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/update_ledger.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define HETSGD_TEST_HAS_SOCKETS 1
#endif

namespace hetsgd {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(WallClockTest, Monotone) {
  const std::uint64_t a = obs::wall_now_ns();
  const std::uint64_t b = obs::wall_now_ns();
  EXPECT_GE(b, a);
  obs::WallStopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIters);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(HistogramTest, BucketsCoverObservations) {
  obs::Histogram h;
  h.observe(0.001);
  h.observe(1.0);
  h.observe(1000.0);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 1001.001, 1e-9);
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, 3u);
  // Bucket upper bounds are strictly increasing powers of two.
  for (int i = 1; i < obs::Histogram::kBuckets - 1; ++i) {
    EXPECT_LT(obs::Histogram::bucket_upper(i - 1),
              obs::Histogram::bucket_upper(i));
  }
}

TEST(MetricsRegistryTest, FindOrCreateIsStable) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a = reg.counter("obs_test_stable_counter");
  obs::Counter& b = reg.counter("obs_test_stable_counter");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = reg.gauge("obs_test_stable_gauge");
  obs::Gauge& g2 = reg.gauge("obs_test_stable_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistryTest, ConcurrentFindOrCreateAndSnapshot) {
  auto& reg = obs::MetricsRegistry::instance();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      reg.counter("obs_test_churn_" + std::to_string(i % 8)).inc();
      ++i;
    }
  });
  for (int i = 0; i < 50; ++i) {
    obs::MetricsSnapshot snap = reg.snapshot();
    (void)obs::MetricsRegistry::prometheus_text(snap);
    (void)obs::MetricsRegistry::jsonl_line(snap);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricsRegistryTest, PrometheusTextFormat) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("obs_test_prom_counter").inc(7);
  reg.gauge("obs_test_prom_gauge").set(1.25);
  reg.histogram("obs_test_prom_hist").observe(0.5);
  const std::string text =
      obs::MetricsRegistry::prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE obs_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_gauge 1.25"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramKeepsLabels) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.histogram("obs_test_prom_lhist{worker=\"3\"}").observe(2.0);
  const std::string text =
      obs::MetricsRegistry::prometheus_text(reg.snapshot());
  // The label block survives on every series, with le merged in on
  // _bucket lines — it must not collapse into an unlabeled series.
  EXPECT_NE(text.find("obs_test_prom_lhist_bucket{worker=\"3\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_lhist_sum{worker=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_lhist_count{worker=\"3\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("obs_test_prom_lhist_bucket{le="), std::string::npos);
  EXPECT_EQ(text.find("obs_test_prom_lhist_sum "), std::string::npos);
}

TEST(MetricsRegistryTest, JsonlLineIsOneLine) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("obs_test_jsonl_counter").inc();
  const std::string line = obs::MetricsRegistry::jsonl_line(reg.snapshot());
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one newline
  EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
  EXPECT_NE(line.find("obs_test_jsonl_counter"), std::string::npos);
}

#if !defined(HETSGD_TRACE_DISABLED)
TEST(TracerTest, MultiThreadSpansExportValidTrace) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 12);
  obs::Tracer::set_thread_name("obs-test-main");
  {
    HETSGD_TRACE_SCOPE("test", "outer");
    HETSGD_TRACE_SPAN(span, "test", "inner", 1.0, obs::batch_flow_id(0, 1));
    span.set_end_vt(2.0);
  }
  obs::trace_flow_begin("batch", obs::batch_flow_id(0, 1), 1.0);
  obs::trace_flow_step("batch", obs::batch_flow_id(0, 1), 1.5);
  obs::trace_flow_end("batch", obs::batch_flow_id(0, 1), 2.0);
  HETSGD_TRACE_INSTANT("test", "marker", 1.0);
  HETSGD_TRACE_COUNTER("test_counter", 42.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::Tracer::set_thread_name("obs-test-" + std::to_string(t));
      for (int i = 0; i < 100; ++i) {
        HETSGD_TRACE_SCOPE("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::string path = temp_path("obs_test_trace.json");
  std::string error;
  ASSERT_TRUE(tracer.stop_and_write(path, &error)) << error;
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_GE(tracer.collected(), 400u);

  const std::string json = read_file(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"obs-test-2\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"vt0\":1"), std::string::npos);
  // Balanced braces/brackets => structurally sound JSON (no parser here).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, ManyThreadsKeepMetadataWellFormed) {
  // Regression: with 10+ registered threads the thread_name metadata
  // line needs more than 64 chars (two tid digits), and truncation used
  // to eat the opening quote of the name value.
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 10);
  std::vector<std::thread> threads;
  for (int t = 0; t < 12; ++t) {
    threads.emplace_back([t] {
      obs::Tracer::set_thread_name("obs-many-" + std::to_string(t));
      HETSGD_TRACE_SCOPE("test", "many_span");
    });
  }
  for (auto& t : threads) t.join();
  const std::string path = temp_path("obs_test_trace_many.json");
  std::string error;
  ASSERT_TRUE(tracer.stop_and_write(path, &error)) << error;
  const std::string json = read_file(path);
  // Every metadata record, including two-digit tids, carries a properly
  // quoted name value.
  for (int tid = 1; tid <= 12; ++tid) {
    const std::string meta = "\"tid\":" + std::to_string(tid) +
                             ",\"args\":{\"name\":\"obs-many-";
    EXPECT_NE(json.find(meta), std::string::npos) << "tid " << tid;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TracerTest, RestartWhileProducersRecordIsSafe) {
  // Stress witness (ASan/TSan CI legs) for the stop->start contract:
  // producers racing record() against restart cycles must never touch a
  // freed ring — old buffers are retired to a graveyard, not freed.
  auto& tracer = obs::Tracer::instance();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        HETSGD_TRACE_SCOPE("test", "churn");
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    tracer.start(1 << 8);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tracer.stop();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
}

TEST(TracerTest, RestartAfterStopCollectsAgain) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 10);
  { HETSGD_TRACE_SCOPE("test", "first_run"); }
  tracer.stop();
  tracer.start(1 << 10);
  { HETSGD_TRACE_SCOPE("test", "second_run"); }
  const std::string path = temp_path("obs_test_trace2.json");
  std::string error;
  ASSERT_TRUE(tracer.stop_and_write(path, &error)) << error;
  const std::string json = read_file(path);
  EXPECT_NE(json.find("second_run"), std::string::npos);
  EXPECT_EQ(json.find("first_run"), std::string::npos);
}

TEST(TracerTest, NullNameSpanIsUntraced) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 10);
  { HETSGD_TRACE_SPAN(span, "test", nullptr); }
  tracer.stop();
  EXPECT_EQ(tracer.collected(), 0u);
}
#endif  // !HETSGD_TRACE_DISABLED

TEST(TracerTest, StopAndWriteWithoutStartWritesEmptyTrace) {
  const std::string path = temp_path("obs_test_empty_trace.json");
  std::string error;
  ASSERT_TRUE(obs::Tracer::instance().stop_and_write(path, &error)) << error;
  const std::string json = read_file(path);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(MetricsExporterTest, WritesJsonlSnapshots) {
  obs::MetricsRegistry::instance().counter("obs_test_export_counter").inc();
  obs::MetricsExporter::Options options;
  options.jsonl_path = temp_path("obs_test_metrics.jsonl");
  options.interval_ms = 5.0;
  obs::MetricsExporter exporter(options);
  std::atomic<int> hook_calls{0};
  exporter.set_collect_hook([&hook_calls] { hook_calls.fetch_add(1); });
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  while (exporter.snapshots_written() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exporter.stop();
  EXPECT_GE(exporter.snapshots_written(), 3u);
  EXPECT_GE(hook_calls.load(), 3);
  std::ifstream in(options.jsonl_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("obs_test_export_counter"), std::string::npos);
  }
  EXPECT_GE(lines, 3u);
}

#if defined(HETSGD_TEST_HAS_SOCKETS)
TEST(MetricsExporterTest, ServesPrometheusScrape) {
  obs::MetricsRegistry::instance().counter("obs_test_scrape_counter").inc(3);
  obs::MetricsExporter::Options options;
  options.interval_ms = 50.0;
  options.port = 0;  // ephemeral
  obs::MetricsExporter exporter(options);
  std::string error;
  if (!exporter.start(&error)) {
    GTEST_SKIP() << "cannot bind loopback socket: " << error;
  }
  const int port = exporter.scrape_port();
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  exporter.stop();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("obs_test_scrape_counter 3"), std::string::npos);
}
#endif  // HETSGD_TEST_HAS_SOCKETS

// The update_ledger.hpp contract: a scraper thread may call the locked
// snapshot accessors while the coordinator thread mutates. Run a writer at
// full speed against a reader doing exactly what the trainer's metrics
// collect hook does; TSan (the chaos CI leg builds this test with
// -fsanitize=thread) proves the interleaving clean.
TEST(UpdateLedgerScrapeTest, ConcurrentScrapeWhileReporting) {
  core::UpdateLedger ledger;
  ledger.register_worker(0, "cpu", backend::DeviceKind::kCpu, 56);
  ledger.register_worker(1, "gpu", backend::DeviceKind::kGpu, 1024);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    msg::ScheduleWork report;
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++n;
      report.worker = static_cast<msg::WorkerId>(n % 2);
      report.updates = n;
      report.busy_vtime = static_cast<double>(n) * 1e-4;
      report.clock_vtime = static_cast<double>(n) * 1e-3;
      report.examples = 64;
      report.staleness = 0.5;
      ledger.on_report(report);
      ledger.set_current_batch(report.worker, 128);
      if (n % 64 == 0) {
        core::FaultRecord fault;
        fault.worker = report.worker;
        fault.kind = core::FaultKind::kStall;
        fault.vtime = report.clock_vtime;
        ledger.record_fault(fault);
      }
    }
  });

  // Scrape until every accessor has demonstrably observed writer progress
  // (the loop must gate on ALL of them: the writer can burst thousands of
  // iterations inside one reader preemption, so a single observation
  // proves nothing about the others).
  std::uint64_t observed_updates = 0;
  std::size_t observed_faults = 0;
  while (observed_faults < 3 || observed_updates == 0) {
    for (const core::WorkerStats& s : ledger.all()) {
      observed_updates = std::max(observed_updates, s.updates);
    }
    observed_faults =
        std::max(observed_faults, ledger.fault_records().size());
    (void)ledger.stats(0);
    (void)ledger.total_updates();
    (void)ledger.min_clock();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(observed_updates, 0u);
  EXPECT_GE(ledger.fault_records().size(), observed_faults);
}

}  // namespace
}  // namespace hetsgd
