// LIBSVM-format reader/writer.
//
// The paper's four datasets (covtype, w8a, delicious, real-sim) ship in
// LIBSVM sparse text format. The reader fills CSR rows directly and keeps
// them when the file is sparse enough for the storage rule
// (data::prefers_csr), densifying otherwise; the paper processed every
// dataset dense, and the virtual-time charges still do (DESIGN.md §15).
// When the real files are present they can be loaded directly; the
// synthetic generators stand in when they are not.
#pragma once

#include <optional>
#include <string>

#include "data/dataset.hpp"

namespace hetsgd::data {

struct LibsvmReadOptions {
  // Dimension override; 0 means infer from the max feature index seen.
  tensor::Index dim = 0;
  // Labels in the file may be {-1, +1}, {1..K}, or {0..K-1}; they are
  // remapped to contiguous [0, K) in order of first appearance unless the
  // file already uses that encoding.
  // Cap on examples read; 0 means all.
  tensor::Index max_examples = 0;
  std::string dataset_name;  // defaults to the file path
};

// Parses a LIBSVM file into a Dataset (CSR or dense by the storage rule). On malformed input (truncated
// pair, non-numeric index, index < 1, non-finite value, index beyond --dim)
// returns nullopt and sets *error to a "path: line N: ..." diagnostic.
std::optional<Dataset> try_read_libsvm(const std::string& path,
                                       const LibsvmReadOptions& options,
                                       std::string* error);

// Parses LIBSVM content from a string (unit tests). Same error contract as
// try_read_libsvm, with "line N: ..." diagnostics.
std::optional<Dataset> try_read_libsvm_string(const std::string& content,
                                              const LibsvmReadOptions& options,
                                              std::string* error);

// Aborting wrappers over the try_* readers for tools that have no recovery
// path: the parse diagnostic becomes the abort message.
Dataset read_libsvm(const std::string& path, const LibsvmReadOptions& options);
Dataset read_libsvm_string(const std::string& content,
                           const LibsvmReadOptions& options);

// Writes a dataset in LIBSVM format (omitting zeros). Round-trips with
// read_libsvm for finite data.
void write_libsvm(const Dataset& dataset, const std::string& path);

}  // namespace hetsgd::data
