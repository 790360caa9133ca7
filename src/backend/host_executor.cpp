#include "backend/host_executor.hpp"

#include <algorithm>
#include <utility>

#include "common/macros.hpp"

namespace hetsgd::backend {

using tensor::Index;
using tensor::Scalar;

namespace {

// Evaluation chunk: bounds the forward scratch whatever the sample size.
constexpr Index kEvalChunk = 512;

// Gradients are Models too (nn::Gradient), so one pair serves both.
std::vector<const Scalar*> storage_of(const nn::Model& params) {
  std::vector<const Scalar*> out;
  out.reserve(2 * params.layer_count());
  for (std::size_t l = 0; l < params.layer_count(); ++l) {
    out.push_back(params.layer(l).weights.data());
    out.push_back(params.layer(l).bias.data());
  }
  return out;
}

bool aliases(const std::vector<const Scalar*>& storage,
             const nn::Model& params) {
  if (storage.size() != 2 * params.layer_count()) return false;
  for (std::size_t l = 0; l < params.layer_count(); ++l) {
    if (storage[2 * l] != params.layer(l).weights.data() ||
        storage[2 * l + 1] != params.layer(l).bias.data()) {
      return false;
    }
  }
  return true;
}

}  // namespace

HostExecutor::HostExecutor(DeviceSpec spec) : spec_(std::move(spec)) {}

MlpExecutor& HostExecutor::bind(nn::Model& model, nn::Gradient& grad,
                                Index batch) {
  if (exec_ && batch <= exec_->max_batch() &&
      aliases(model_storage_, model) && aliases(grad_storage_, grad)) {
    return *exec_;
  }
  return rebind(model, &grad, batch);
}

MlpExecutor& HostExecutor::bind(const nn::Model& model, Index batch) {
  if (exec_ && batch <= exec_->max_batch() &&
      aliases(model_storage_, model)) {
    return *exec_;
  }
  // Forward-only use: compute_loss() and download_logits() never write
  // the replica, so aliasing the const model is safe.
  return rebind(const_cast<nn::Model&>(model), nullptr, batch);
}

MlpExecutor& HostExecutor::rebind(nn::Model& model, nn::Gradient* grad,
                                  Index batch) {
  // Growth is one-way: a rebind for another model or a gradient keeps the
  // rows already held. A fresh backend per executor: the old one's slots
  // go with it.
  const Index rows = std::max({batch, capacity_rows(), Index{1}});
  release();
  backend_ = std::make_unique<CpuBackend>(spec_, CpuBackend::Mode::kZeroCopy);
  exec_ = std::make_unique<MlpExecutor>(*backend_, model.config(), rows);
  exec_->bind_shared_model(model);
  model_storage_ = storage_of(model);
  if (grad != nullptr) {
    exec_->bind_host_gradient(*grad);
    grad_storage_ = storage_of(*grad);
  }
  return *exec_;
}

MlpExecutor& HostExecutor::executor() {
  HETSGD_ASSERT(exec_ != nullptr, "host executor used before bind()");
  return *exec_;
}

double HostExecutor::mean_loss(const nn::Model& model,
                               const tensor::InputView& x,
                               std::span<const std::int32_t> labels) {
  const Index n = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == n,
                "label count != example count");
  MlpExecutor& exec = bind(model, std::min(kEvalChunk, n));
  double total = 0.0;
  for (Index begin = 0; begin < n; begin += kEvalChunk) {
    const Index count = std::min(kEvalChunk, n - begin);
    total += static_cast<double>(exec.compute_loss(
                 x.rows_view(begin, count),
                 labels.subspan(static_cast<std::size_t>(begin),
                                static_cast<std::size_t>(count)),
                 0.0, nullptr)) *
             static_cast<double>(count);
  }
  return total / static_cast<double>(n);
}

void HostExecutor::release() {
  exec_.reset();
  backend_.reset();
  model_storage_.clear();
  grad_storage_.clear();
}

Index HostExecutor::capacity_rows() const {
  return exec_ ? exec_->max_batch() : 0;
}

nn::ConfusionMatrix evaluate_classifier(const nn::Model& model,
                                        const tensor::InputView& x,
                                        std::span<const std::int32_t> labels,
                                        HostExecutor& host) {
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == x.rows(),
                "label count != example count");
  const Index classes = model.config().num_classes;
  nn::ConfusionMatrix cm(static_cast<std::int32_t>(classes));
  MlpExecutor& exec = host.bind(model, std::min(kEvalChunk, x.rows()));
  tensor::Matrix logits(std::min(kEvalChunk, x.rows()), classes);
  for (Index begin = 0; begin < x.rows(); begin += kEvalChunk) {
    const Index count = std::min(kEvalChunk, x.rows() - begin);
    const auto y = labels.subspan(static_cast<std::size_t>(begin),
                                  static_cast<std::size_t>(count));
    exec.compute_loss(x.rows_view(begin, count), y, 0.0, nullptr);
    auto out = logits.rows_view(0, count);
    exec.download_logits(out, 0.0);
    for (Index r = 0; r < count; ++r) {
      const Scalar* row = out.row(r);
      Index best = 0;
      for (Index c = 1; c < classes; ++c) {
        if (row[c] > row[best]) best = c;
      }
      cm.add(y[static_cast<std::size_t>(r)], static_cast<std::int32_t>(best));
    }
  }
  return cm;
}

}  // namespace hetsgd::backend
