// perfbench: the end-to-end training benchmark binary (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// --trace 0 times untraced Trainer::run() passes over the workload and
// reports the end-to-end metrics. --trace 1 alternates traced and untraced
// passes, replays each layer at the workload's shapes, and reports the
// per-layer metrics. Every pass is one operation and is checked for
// correctness. The last line on stdout is the JSON result; the lines
// before it are a human-readable report.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace {

using perfbench::median;
using perfbench::Metrics;
using perfbench::Pass;
using perfbench::Setup;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Set-ups per process; setup_s / data.generate_s report their median.
constexpr int kSetups = 3;
// Timed passes per process even when one pass outlasts --seconds.
constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// Host CPU time stolen by the hypervisor and total, in jiffies, from the
// aggregate line of /proc/stat (zeros where it is unavailable).
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(stat >> label) || label != "cpu") return t;
  double field = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

const char* omp_threads() {
  const char* v = std::getenv("OMP_NUM_THREADS");
  return v != nullptr ? v : "unset";
}

// Counts passes and reports failed correctness checks on stderr.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void count(const Pass& pass) { count(pass.error); }
  void count(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
    }
  }
};

void print_spread(const char* name, const std::vector<double>& v,
                  const char* unit) {
  double lo = v.front();
  double hi = v.front();
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::printf("  %-16s median %-12.6g min %-12.6g max %-12.6g %s (n=%zu)\n",
              name, median(v), lo, hi, unit, v.size());
  std::printf("    samples:");
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

int run_end_to_end(const Workload& w, const Args& args, int threads) {
  Ledger ledger;
  std::vector<double> setup_s;
  Setup setup = perfbench::set_up(w, args.seed, threads, args.scratch);
  setup_s.push_back(setup.total_s);
  // The first pass in a process can run much slower (page faults, lazy
  // allocation): it is checked but never timed.
  const Pass warm = perfbench::run_pass(setup, w);
  ledger.count(warm);
  // High-water mark after exactly one set-up and one pass: repeats in the
  // same process keep raising it.
  const double rss_mb = peak_rss_mb();
  for (int i = 1; i < kSetups; ++i) {
    setup_s.push_back(
        perfbench::set_up(w, args.seed, threads, args.scratch).total_s);
  }

  // Timings are medians over every dataset of every pass; a pass is
  // `datasets` such units of equal work, so train_wall_s scales back up.
  std::vector<double> pass_wall, wall, rate, auc;
  const CpuTimes cpu0 = cpu_times();
  const auto start = Clock::now();
  while (pass_wall.size() < kMinPasses ||
         seconds_since(start) < args.seconds) {
    const Pass pass = perfbench::run_pass(setup, w);
    ledger.count(pass);
    pass_wall.push_back(pass.wall_s);
    for (std::size_t i = 0; i < pass.dataset_wall_s.size(); ++i) {
      wall.push_back(pass.dataset_wall_s[i] * w.datasets);
      rate.push_back(pass.dataset_examples[i] / pass.dataset_wall_s[i]);
    }
    auc.push_back(pass.loss_auc);
  }
  const CpuTimes cpu1 = cpu_times();

  std::printf("perfbench %s seed=%llu real_threads=%d OMP_NUM_THREADS=%s "
              "trace=0\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              threads, omp_threads());
  print_spread("pass_wall_s", pass_wall, "s");
  print_spread("train_wall_s", wall, "s");
  print_spread("examples_per_s", rate, "1/s");
  print_spread("loss_auc", auc, "ratio");
  print_spread("setup_s", setup_s, "s");
  std::printf("  first-run excess %+.1f%% (first pass %.4g s, not timed)\n",
              (warm.wall_s / median(pass_wall) - 1.0) * 100.0, warm.wall_s);
  std::printf("  peak_rss_mb      %.1f after one set-up and one pass, %.1f at "
              "exit\n",
              rss_mb, peak_rss_mb());
  if (cpu1.total > cpu0.total) {
    std::printf("  host steal       %.1f%% of CPU time during the timed "
                "passes\n",
                (cpu1.steal - cpu0.steal) / (cpu1.total - cpu0.total) * 100);
  }

  Metrics m;
  m.add("examples_per_s", median(rate), "1/s");
  m.add("train_wall_s", median(wall), "s");
  m.add("loss_auc", median(auc), "ratio");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", rss_mb, "MB");
  perfbench::print_result(ledger.failed == 0, ledger.attempted,
                          ledger.failed, m);
  return 0;
}

// Run counts and training state of one pass, summed or averaged over its
// algorithms' TrainingResults.
void add_core_metrics(const Pass& pass, Metrics& m) {
  double batches = 0, cpu_updates = 0, gpu_updates = 0, dispatched = 0,
         reclaimed = 0, checkpoints = 0;
  double cpu_util = 0, gpu_util = 0, staleness = 0;
  int cpu_workers = 0, gpu_workers = 0;
  double final_cpu_batch = 0, final_gpu_batch = 0;
  for (const auto& r : pass.results) {
    const bool reference =
        r.algorithm == hetsgd::core::Algorithm::kTensorFlow;
    // The reference reports no batches; each of its updates is one.
    if (reference) batches += static_cast<double>(r.gpu_updates);
    cpu_updates += static_cast<double>(r.cpu_updates);
    gpu_updates += static_cast<double>(r.gpu_updates);
    dispatched += static_cast<double>(r.examples_dispatched);
    reclaimed += static_cast<double>(r.examples_reclaimed);
    checkpoints += static_cast<double>(r.checkpoints_written);
    for (const auto& wk : r.workers) {
      batches += static_cast<double>(wk.batches);
      const auto batch = static_cast<double>(wk.final_batch);
      if (wk.kind == hetsgd::gpusim::DeviceKind::kCpu) {
        cpu_util += wk.mean_utilization;
        ++cpu_workers;
        final_cpu_batch = std::max(final_cpu_batch, batch);
      } else {
        gpu_util += wk.mean_utilization;
        staleness += wk.mean_staleness;
        ++gpu_workers;
        if (!reference) final_gpu_batch = std::max(final_gpu_batch, batch);
      }
    }
  }
  m.add("core.batches", batches, "count");
  m.add("core.cpu_updates", cpu_updates, "count");
  m.add("core.gpu_updates", gpu_updates, "count");
  m.add("core.examples_dispatched", dispatched, "count");
  m.add("core.reclaimed_ratio", dispatched > 0 ? reclaimed / dispatched : 0,
        "ratio");
  m.add("core.cpu_util", cpu_workers > 0 ? cpu_util / cpu_workers : 0,
        "ratio");
  m.add("core.gpu_util", gpu_workers > 0 ? gpu_util / gpu_workers : 0,
        "ratio");
  m.add("core.gpu_staleness_mean",
        gpu_workers > 0 ? staleness / gpu_workers : 0, "abs");
  m.add("core.final_cpu_batch", final_cpu_batch, "examples");
  m.add("core.final_gpu_batch", final_gpu_batch, "examples");
  m.add("core.checkpoints", checkpoints, "count");
}

int run_traced(const Workload& w, const Args& args, int threads) {
  Ledger ledger;
  std::vector<double> generate_s;
  Setup setup = perfbench::set_up(w, args.seed, threads, args.scratch);
  generate_s.push_back(setup.generate_s);
  for (int i = 1; i < kSetups; ++i) {
    generate_s.push_back(
        perfbench::set_up(w, args.seed, threads, args.scratch).generate_s);
  }
  // The same trainers with the program's span tracer on.
  Setup traced_setup;
  for (std::size_t i = 0; i < setup.trainers.size(); ++i) {
    hetsgd::core::TrainingConfig config = setup.trainers[i].config();
    config.obs.trace_out =
        args.scratch + "/trace-" + std::to_string(i) + ".json";
    traced_setup.trainers.emplace_back(setup.trainers[i].dataset(), config);
  }

  const Pass warm = perfbench::run_pass(setup, w);
  ledger.count(warm);
  // Half the time goes to interleaved untraced / traced passes, half to
  // the layer replays.
  std::vector<double> untraced, traced, vsim_rate;
  Pass last_untraced;
  const auto start = Clock::now();
  while (traced.size() < 2 || seconds_since(start) < args.seconds / 2) {
    last_untraced = perfbench::run_pass(setup, w);
    ledger.count(last_untraced);
    untraced.push_back(last_untraced.wall_s);
    vsim_rate.push_back(last_untraced.vtime / last_untraced.wall_s);
    const Pass traced_pass = perfbench::run_pass(traced_setup, w);
    ledger.count(traced_pass);
    traced.push_back(traced_pass.wall_s);
  }
  const double wall = median(untraced);

  Metrics m;
  m.add("data.generate_s", median(generate_s), "s");
  ledger.count(perfbench::replay_layers(
      w, setup.trainers.front(), last_untraced, wall, threads, args.scratch,
      args.seconds / 2, m));
  add_core_metrics(last_untraced, m);
  m.add("core.first_run_excess", warm.wall_s / wall - 1.0, "ratio");
  m.add("gpusim.vsim_per_s", median(vsim_rate), "vs/s");
  m.add("gpusim.vs_per_epoch", last_untraced.vtime / last_untraced.epochs,
        "vs");
  m.add("obs.trace_overhead", median(traced) / wall - 1.0, "ratio");

  std::printf("perfbench %s seed=%llu real_threads=%d OMP_NUM_THREADS=%s "
              "trace=1\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              threads, omp_threads());
  print_spread("untraced_wall_s", untraced, "s");
  print_spread("traced_wall_s", traced, "s");
  for (const auto& metric : m.all()) {
    std::printf("  %-42s %-14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  perfbench::print_result(ledger.failed == 0, ledger.attempted,
                          ledger.failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>]\n",
                 perfbench::workload_names().c_str());
    return 2;
  }
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (%s)\n",
                 args.workload.c_str(), perfbench::workload_names().c_str());
    return 2;
  }
  hetsgd::set_log_level(hetsgd::LogLevel::kWarn);
  const int threads = perfbench::bench_threads();
  return args.trace ? run_traced(*w, args, threads)
                    : run_end_to_end(*w, args, threads);
}
