#include "data/libsvm_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

namespace {

struct SparseExample {
  double label = 0;
  std::vector<std::pair<Index, Scalar>> entries;
};

enum class ParseStatus { kOk, kSkip, kError };

std::string at_line(std::size_t line_no, const std::string& what) {
  return "line " + std::to_string(line_no) + ": " + what;
}

// Parses one "label idx:val idx:val ..." line. kSkip for blank or comment
// lines; kError (with a "line N: ..." message in *error) for malformed
// input. Never aborts — a bad dataset file is an input problem, not a bug.
ParseStatus parse_line(const std::string& line, std::size_t line_no,
                       SparseExample& out, std::string* error) {
  std::size_t pos = line.find_first_not_of(" \t\r");
  if (pos == std::string::npos || line[pos] == '#') return ParseStatus::kSkip;
  const char* s = line.c_str() + pos;
  char* end = nullptr;
  out.label = std::strtod(s, &end);
  if (end == s) {
    *error = at_line(line_no, "missing or non-numeric label");
    return ParseStatus::kError;
  }
  if (!std::isfinite(out.label)) {
    *error = at_line(line_no, "non-finite label");
    return ParseStatus::kError;
  }
  out.entries.clear();
  s = end;
  for (;;) {
    while (*s == ' ' || *s == '\t' || *s == '\r') ++s;
    if (*s == '\0' || *s == '\n' || *s == '#') break;
    long idx = std::strtol(s, &end, 10);
    if (end == s || *end != ':') {
      *error = at_line(line_no, "malformed pair (expected index:value)");
      return ParseStatus::kError;
    }
    if (idx < 1) {
      *error = at_line(line_no, "feature index " + std::to_string(idx) +
                                    " (indices are 1-based)");
      return ParseStatus::kError;
    }
    s = end + 1;
    double val = std::strtod(s, &end);
    if (end == s) {
      *error = at_line(line_no,
                       "missing value after index " + std::to_string(idx));
      return ParseStatus::kError;
    }
    if (!std::isfinite(val)) {
      *error = at_line(line_no, "non-finite value at index " +
                                    std::to_string(idx));
      return ParseStatus::kError;
    }
    s = end;
    out.entries.emplace_back(static_cast<Index>(idx - 1),
                             static_cast<Scalar>(val));
  }
  return ParseStatus::kOk;
}

std::optional<Dataset> build_dataset(std::istream& in,
                                     const LibsvmReadOptions& options,
                                     const std::string& default_name,
                                     std::string* error) {
  std::vector<SparseExample> examples;
  std::string line;
  std::size_t line_no = 0;
  std::size_t max_index_line = 0;
  Index max_index = -1;
  while (std::getline(in, line)) {
    ++line_no;
    SparseExample ex;
    const ParseStatus status = parse_line(line, line_no, ex, error);
    if (status == ParseStatus::kError) return std::nullopt;
    if (status == ParseStatus::kSkip) continue;
    for (const auto& [idx, val] : ex.entries) {
      if (idx > max_index) {
        max_index = idx;
        max_index_line = line_no;
      }
    }
    examples.push_back(std::move(ex));
    if (options.max_examples > 0 &&
        static_cast<Index>(examples.size()) >= options.max_examples) {
      break;
    }
  }
  if (examples.empty()) {
    *error = "no examples found";
    return std::nullopt;
  }

  Index dim = options.dim > 0 ? options.dim : max_index + 1;
  if (dim <= 0) {
    *error = "could not infer dimension (no features seen)";
    return std::nullopt;
  }
  if (dim > std::numeric_limits<tensor::ColIndex>::max()) {
    *error = "dimension " + std::to_string(dim) + " exceeds the column range";
    return std::nullopt;
  }
  if (max_index >= dim) {
    *error = at_line(max_index_line,
                     "feature index " + std::to_string(max_index + 1) +
                         " exceeds dimension " + std::to_string(dim));
    return std::nullopt;
  }

  // Remap raw labels to contiguous ids. Sorted (std::map) so the mapping is
  // deterministic regardless of example order: -1 -> 0, +1 -> 1, etc.
  std::map<long, std::int32_t> label_ids;
  for (const auto& ex : examples) {
    label_ids.emplace(static_cast<long>(ex.label), 0);
  }
  std::int32_t next_id = 0;
  for (auto& [raw, id] : label_ids) {
    id = next_id++;
  }

  // Rows go straight into CSR (sorted columns, a repeated index keeps its
  // last value, as a dense write would); make_dataset() densifies when the
  // file is too dense for the storage rule.
  tensor::CsrMatrix features(dim);
  std::vector<std::int32_t> labels;
  labels.reserve(examples.size());
  for (auto& ex : examples) {
    std::stable_sort(ex.entries.begin(), ex.entries.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i < ex.entries.size(); ++i) {
      const auto& [idx, val] = ex.entries[i];
      if (i + 1 < ex.entries.size() && ex.entries[i + 1].first == idx) {
        continue;  // overwritten by a later pair
      }
      features.add(static_cast<tensor::ColIndex>(idx), val);
    }
    features.end_row();
    labels.push_back(label_ids.at(static_cast<long>(ex.label)));
  }
  std::string name =
      options.dataset_name.empty() ? default_name : options.dataset_name;
  return make_dataset(std::move(name), std::move(features), std::move(labels),
                      next_id < 2 ? 2 : next_id);
}

}  // namespace

std::optional<Dataset> try_read_libsvm(const std::string& path,
                                       const LibsvmReadOptions& options,
                                       std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  std::ifstream in(path);
  if (!in.good()) {
    *err = "cannot open input file: " + path;
    return std::nullopt;
  }
  auto dataset = build_dataset(in, options, path, err);
  if (!dataset.has_value()) *err = path + ": " + *err;
  return dataset;
}

std::optional<Dataset> try_read_libsvm_string(const std::string& content,
                                              const LibsvmReadOptions& options,
                                              std::string* error) {
  std::string local;
  std::istringstream in(content);
  return build_dataset(in, options, "inline",
                       error != nullptr ? error : &local);
}

Dataset read_libsvm(const std::string& path, const LibsvmReadOptions& options) {
  std::string error;
  auto dataset = try_read_libsvm(path, options, &error);
  HETSGD_ASSERT(dataset.has_value(), ("libsvm: " + error).c_str());
  return std::move(*dataset);
}

Dataset read_libsvm_string(const std::string& content,
                           const LibsvmReadOptions& options) {
  std::string error;
  auto dataset = try_read_libsvm_string(content, options, &error);
  HETSGD_ASSERT(dataset.has_value(), ("libsvm: " + error).c_str());
  return std::move(*dataset);
}

void write_libsvm(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  HETSGD_ASSERT(out.good(), "libsvm: cannot open output file");
  const Index n = dataset.example_count();
  const Index d = dataset.dim();
  for (Index r = 0; r < n; ++r) {
    out << dataset.labels()[static_cast<std::size_t>(r)];
    if (dataset.sparse()) {
      const tensor::CsrView rows = dataset.csr().view();
      for (Index p = rows.row_ptr()[r]; p < rows.row_ptr()[r + 1]; ++p) {
        if (rows.val()[p] != Scalar{0}) {
          out << ' ' << (rows.col()[p] + 1) << ':' << rows.val()[p];
        }
      }
    } else {
      const Scalar* row = dataset.features().row(r);
      for (Index c = 0; c < d; ++c) {
        if (row[c] != Scalar{0}) {
          out << ' ' << (c + 1) << ':' << row[c];
        }
      }
    }
    out << '\n';
  }
  HETSGD_ASSERT(out.good(), "libsvm: write failed");
}

}  // namespace hetsgd::data
