// Table II — dataset characteristics: the paper's four evaluation sets
// and the synthetic stand-ins generated at the benchmark scale.
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "bench_common.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  double scale = 1.0;
  std::int64_t units = 64;
  CliParser cli("table2_datasets", "Table II: dataset summary");
  cli.add_double("scale", &scale, "multiplier on the bench dataset scales");
  cli.add_int("units", &units, "hidden units per layer");
  if (!cli.parse(argc, argv)) return 0;

  std::printf("TABLE II: Datasets (paper metadata vs generated stand-ins)\n");
  std::printf("%-11s | %9s %7s %8s %7s | %9s %7s %8s %9s %8s\n", "dataset",
              "paper N", "dim", "classes", "layers", "gen N", "dim",
              "classes", "density%%", "MB");
  CsvWriter csv(bench::result_path("table2_datasets.csv"),
                {"dataset", "paper_examples", "paper_dim", "paper_classes",
                 "hidden_layers", "gen_examples", "gen_dim", "gen_classes",
                 "gen_density", "gen_mbytes"});

  for (const auto& b : bench::evaluation_suite(scale, units)) {
    const auto info = data::paper_dataset_info(b.id);
    data::Dataset d = bench::build_dataset(b, 1);

    // Measure density of the generated set.
    std::uint64_t nonzero = 0;
    if (d.sparse()) {
      const tensor::CsrView rows = d.csr().view();
      for (tensor::Index p = 0; p < rows.nnz(); ++p) {
        if (rows.val()[p] != 0.0) ++nonzero;
      }
    } else {
      for (tensor::Index r = 0; r < d.example_count(); ++r) {
        const tensor::Scalar* row = d.features().row(r);
        for (tensor::Index c = 0; c < d.dim(); ++c) {
          if (row[c] != 0.0) ++nonzero;
        }
      }
    }
    const double density =
        100.0 * static_cast<double>(nonzero) /
        static_cast<double>(d.example_count() * d.dim());
    const double mbytes =
        static_cast<double>(d.feature_bytes()) / (1 << 20);

    std::printf("%-11s | %9lld %7lld %8d %7d | %9lld %7lld %8d %8.1f%% %8.1f\n",
                info.name, static_cast<long long>(info.examples),
                static_cast<long long>(info.dim), info.classes,
                info.hidden_layers, static_cast<long long>(d.example_count()),
                static_cast<long long>(d.dim()), d.num_classes(), density,
                mbytes);
    csv.row(std::vector<std::string>{
        info.name, std::to_string(info.examples), std::to_string(info.dim),
        std::to_string(info.classes), std::to_string(info.hidden_layers),
        std::to_string(d.example_count()), std::to_string(d.dim()),
        std::to_string(d.num_classes()), std::to_string(density),
        std::to_string(mbytes)});

    // Class balance sanity (min/max class share of the generated set).
    auto hist = d.class_histogram();
    std::uint64_t lo = hist[0], hi = hist[0];
    for (auto c : hist) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    std::printf("%-11s   class balance: min %llu / max %llu examples per "
                "class\n", "",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  }
  std::printf("\nresults: %s\n",
              bench::result_path("table2_datasets.csv").c_str());
  return 0;
}
