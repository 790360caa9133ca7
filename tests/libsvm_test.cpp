#include "data/libsvm_io.hpp"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace hetsgd::data {
namespace {

TEST(Libsvm, ParsesBasicFile) {
  const std::string content =
      "+1 1:0.5 3:1.5\n"
      "-1 2:2.0\n";
  Dataset d = read_libsvm_string(content, {});
  EXPECT_EQ(d.example_count(), 2);
  EXPECT_EQ(d.dim(), 3);
  EXPECT_EQ(d.num_classes(), 2);
  // Sorted label mapping: -1 -> 0, +1 -> 1.
  EXPECT_EQ(d.labels()[0], 1);
  EXPECT_EQ(d.labels()[1], 0);
  EXPECT_DOUBLE_EQ(d.features()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.features()(0, 1), 0.0);  // densified zero
  EXPECT_DOUBLE_EQ(d.features()(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(d.features()(1, 1), 2.0);
}

TEST(Libsvm, SkipsBlankAndCommentLines) {
  const std::string content =
      "# a comment\n"
      "\n"
      "1 1:1\n"
      "   \n"
      "2 1:2\n";
  Dataset d = read_libsvm_string(content, {});
  EXPECT_EQ(d.example_count(), 2);
}

TEST(Libsvm, MulticlassLabelsRemapInSortedOrder) {
  const std::string content = "3 1:1\n1 1:1\n7 1:1\n1 1:1\n";
  Dataset d = read_libsvm_string(content, {});
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.labels()[0], 1);  // 3 -> 1
  EXPECT_EQ(d.labels()[1], 0);  // 1 -> 0
  EXPECT_EQ(d.labels()[2], 2);  // 7 -> 2
}

TEST(Libsvm, ZeroBasedLabelsPreserved) {
  const std::string content = "0 1:1\n1 1:1\n2 1:1\n";
  Dataset d = read_libsvm_string(content, {});
  EXPECT_EQ(d.labels()[0], 0);
  EXPECT_EQ(d.labels()[1], 1);
  EXPECT_EQ(d.labels()[2], 2);
}

TEST(Libsvm, DimOverride) {
  LibsvmReadOptions options;
  options.dim = 10;
  Dataset d = read_libsvm_string("1 2:1\n", options);
  EXPECT_EQ(d.dim(), 10);
}

TEST(Libsvm, DimOverrideTooSmallDies) {
  LibsvmReadOptions options;
  options.dim = 1;
  EXPECT_DEATH(read_libsvm_string("1 5:1\n", options), "exceeds");
}

TEST(Libsvm, MaxExamplesCap) {
  LibsvmReadOptions options;
  options.max_examples = 2;
  Dataset d = read_libsvm_string("1 1:1\n1 1:2\n1 1:3\n1 1:4\n", options);
  EXPECT_EQ(d.example_count(), 2);
}

TEST(Libsvm, DatasetNameOption) {
  LibsvmReadOptions options;
  options.dataset_name = "custom";
  Dataset d = read_libsvm_string("1 1:1\n", options);
  EXPECT_EQ(d.name(), "custom");
}

TEST(Libsvm, MalformedPairDies) {
  EXPECT_DEATH(read_libsvm_string("1 abc\n", {}), "malformed pair");
}

TEST(Libsvm, ZeroIndexDies) {
  EXPECT_DEATH(read_libsvm_string("1 0:5\n", {}), "1-based");
}

TEST(Libsvm, EmptyInputDies) {
  EXPECT_DEATH(read_libsvm_string("# nothing\n", {}), "no examples");
}

TEST(Libsvm, FloatLabelsAndValues) {
  Dataset d = read_libsvm_string("2.0 1:1e-3 2:-4.5\n1.0 1:2\n", {});
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_DOUBLE_EQ(d.features()(0, 0), 1e-3);
  EXPECT_DOUBLE_EQ(d.features()(0, 1), -4.5);
}

TEST(Libsvm, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_libsvm_rt.txt")
          .string();
  tensor::Matrix f{{0.5, 0.0, 1.25}, {0.0, 2.0, 0.0}};
  Dataset original("rt", std::move(f), {1, 0}, 2);
  write_libsvm(original, path);

  LibsvmReadOptions options;
  options.dim = 3;
  Dataset loaded = read_libsvm(path, options);
  EXPECT_EQ(loaded.example_count(), 2);
  EXPECT_EQ(loaded.dim(), 3);
  for (tensor::Index r = 0; r < 2; ++r) {
    EXPECT_EQ(loaded.labels()[static_cast<std::size_t>(r)],
              original.labels()[static_cast<std::size_t>(r)]);
    for (tensor::Index c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(loaded.features()(r, c), original.features()(r, c));
    }
  }
  std::remove(path.c_str());
}

TEST(Libsvm, SparseFileFillsCsrAndRoundTrips) {
  // 2 stored values per 40-wide row: 5% dense, CSR under the storage rule.
  // Indices may come unsorted; a repeated index keeps its last value.
  std::string content;
  for (int r = 0; r < 30; ++r) {
    const int a = 1 + (r * 7) % 40;
    const int b = 1 + (r * 13 + 5) % 40;
    content += std::to_string(r % 2) + " " + std::to_string(b) + ":" +
               std::to_string(r + 1) + ".5 " + std::to_string(a) + ":-" +
               std::to_string(r) + ".25\n";
  }
  content += "1 9:1 3:2 9:4\n";
  LibsvmReadOptions options;
  options.dim = 40;
  Dataset d = read_libsvm_string(content, options);
  ASSERT_TRUE(d.sparse());
  EXPECT_EQ(d.example_count(), 31);
  EXPECT_DOUBLE_EQ(d.feature(0, 5), 1.5);    // b = 6 for row 0
  EXPECT_DOUBLE_EQ(d.feature(0, 0), -0.25);  // a = 1 for row 0
  EXPECT_DOUBLE_EQ(d.feature(30, 8), 4.0);   // repeated index: last wins
  EXPECT_DOUBLE_EQ(d.feature(30, 2), 2.0);
  EXPECT_DOUBLE_EQ(d.feature(30, 0), 0.0);
  EXPECT_EQ(d.csr().view().at(30, 8), 4.0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_libsvm_csr.txt")
          .string();
  write_libsvm(d, path);
  Dataset loaded = read_libsvm(path, options);
  EXPECT_TRUE(loaded.sparse());
  ASSERT_EQ(loaded.example_count(), d.example_count());
  EXPECT_EQ(tensor::max_abs_diff(loaded.densified().view(),
                                 d.densified().view()),
            0.0);
  for (std::size_t i = 0; i < d.labels().size(); ++i) {
    EXPECT_EQ(loaded.labels()[i], d.labels()[i]);
  }
  std::remove(path.c_str());
}

TEST(Libsvm, DenseFileStaysDense) {
  Dataset d = read_libsvm_string("1 1:1 2:2\n0 1:3 2:4\n", {});
  EXPECT_FALSE(d.sparse());
  EXPECT_DOUBLE_EQ(d.features()(1, 1), 4.0);
}

TEST(Libsvm, MissingFileDies) {
  EXPECT_DEATH(read_libsvm("/nonexistent/path.libsvm", {}), "cannot open");
}

// --- try_* API: malformed input surfaces line-numbered diagnostics instead
// of aborting, so callers with a recovery path (resume, interactive tools)
// can report and continue.

TEST(Libsvm, TryReportsMalformedPairWithLineNumber) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n2 abc\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed pair"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsMissingLabel) {
  std::string error;
  auto d = try_read_libsvm_string("x 1:1\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("label"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsZeroIndex) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n1 1:1\n1 0:5\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("1-based"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsMissingValue) {
  std::string error;
  auto d = try_read_libsvm_string("1 2:\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("missing value"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsNonFiniteValue) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:nan\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsDimOverflowWithOffendingLine) {
  LibsvmReadOptions options;
  options.dim = 2;
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n1 5:1\n1 2:1\n", options, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(Libsvm, TryMissingFileReturnsError) {
  std::string error;
  auto d = try_read_libsvm("/nonexistent/path.libsvm", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(Libsvm, TryParsesGoodInput) {
  std::string error;
  auto d = try_read_libsvm_string("+1 1:0.5\n-1 1:1.0\n", {}, &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->example_count(), 2);
  EXPECT_TRUE(error.empty());
}

}  // namespace
}  // namespace hetsgd::data
