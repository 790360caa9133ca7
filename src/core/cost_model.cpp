#include "core/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"
#include "nn/mlp.hpp"
#include "tensor/gemm.hpp"

namespace hetsgd::core {

using tensor::Index;

std::uint64_t model_bytes(const nn::MlpConfig& mlp) {
  return mlp.parameter_count() * sizeof(tensor::Scalar);
}

double cpu_batch_seconds(const backend::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index sub_batch,
                         int lanes) {
  HETSGD_ASSERT(sub_batch >= 1 && lanes >= 1, "bad cpu batch parameters");
  const auto& spec = perf.spec();
  const double per_thread_peak =
      spec.peak_flops / static_cast<double>(spec.lanes);
  const double flops = nn::training_flops(mlp, sub_batch);
  const double compute =
      flops / (per_thread_peak * perf.efficiency(static_cast<double>(sub_batch)));
  double update = spec.update_overhead_seconds;
  if (spec.update_bandwidth > 0.0) {
    // Read-modify-write of every parameter.
    update += 2.0 * static_cast<double>(model_bytes(mlp)) /
              spec.update_bandwidth;
  }
  // Lanes beyond the simulated hardware run in additional waves.
  const int waves = (lanes + spec.lanes - 1) / spec.lanes;
  return (compute + update) * static_cast<double>(waves);
}

double cpu_batch_intensity(int lanes, int host_threads,
                           tensor::Index sub_batch,
                           tensor::Index max_sub_batch) {
  HETSGD_ASSERT(host_threads >= lanes, "lanes exceed host threads");
  const double occupancy =
      static_cast<double>(lanes) / static_cast<double>(host_threads);
  // Empirical mild decrease with sub-batch size (Fig. 7: Adaptive's CPU
  // curve sits slightly below the others).
  double penalty = 0.0;
  if (max_sub_batch > 1 && sub_batch > 1) {
    penalty = 0.08 * std::log2(static_cast<double>(sub_batch)) /
              std::log2(static_cast<double>(max_sub_batch));
  }
  return occupancy * (0.93 - penalty);
}

double gpu_batch_seconds(const backend::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index batch,
                         double host_merge_bandwidth) {
  HETSGD_ASSERT(batch >= 1, "bad gpu batch size");
  const auto shapes = mlp.layer_shapes();
  const std::uint64_t mbytes = model_bytes(mlp);
  double t = 0.0;
  // Model upload and gradient download happen as per-layer weight + bias
  // copies, so each pays the link latency separately — on small models the
  // latencies dominate the parameter bytes. (This must track DeviceMlp's
  // actual charging: the coordinator's dispatch deadlines are multiples of
  // this estimate, and a systematic under-estimate reads healthy workers
  // as stragglers.)
  for (const auto& s : shapes) {
    const auto wbytes =
        static_cast<std::uint64_t>(s.out) * s.in * sizeof(tensor::Scalar);
    const auto bbytes = static_cast<std::uint64_t>(s.out) *
                        sizeof(tensor::Scalar);
    t += 2.0 * (perf.transfer_seconds(wbytes) + perf.transfer_seconds(bbytes));
  }
  // Batch (+labels) upload.
  t += perf.transfer_seconds(static_cast<std::uint64_t>(batch) *
                                 mlp.input_dim * sizeof(tensor::Scalar) +
                             static_cast<std::uint64_t>(batch) * 4);
  // Forward + backward GEMMs and element-wise kernels per layer.
  for (const auto& s : shapes) {
    t += perf.gemm_seconds(batch, s.out, s.in);      // forward
    t += perf.gemm_seconds(s.out, s.in, batch);      // dW
    t += perf.gemm_seconds(batch, s.in, s.out);      // delta propagation
    t += 3.0 * perf.elementwise_seconds(
                   static_cast<std::uint64_t>(batch) * s.out);
  }
  // Loss kernel + the loss scalar returning to the host + host-side merge
  // into the global model. (The gradient download is charged per layer
  // above, together with the model upload.)
  t += perf.elementwise_seconds(static_cast<std::uint64_t>(batch) *
                                mlp.num_classes * 6);
  t += perf.transfer_seconds(sizeof(tensor::Scalar));
  if (host_merge_bandwidth > 0.0) {
    t += 2.0 * static_cast<double>(mbytes) / host_merge_bandwidth;
  }
  return t;
}

double cpu_epoch_seconds(const backend::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index examples,
                         tensor::Index sub_batch, int lanes) {
  const double batch_cost = cpu_batch_seconds(perf, mlp, sub_batch, lanes);
  const Index per_batch = sub_batch * lanes;
  const double batches = std::ceil(static_cast<double>(examples) /
                                   static_cast<double>(per_batch));
  return batches * batch_cost;
}

double gpu_epoch_seconds(const backend::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index examples,
                         tensor::Index batch, double host_merge_bandwidth) {
  const double batch_cost =
      gpu_batch_seconds(perf, mlp, batch, host_merge_bandwidth);
  const double batches = std::ceil(static_cast<double>(examples) /
                                   static_cast<double>(batch));
  return batches * batch_cost;
}

}  // namespace hetsgd::core
