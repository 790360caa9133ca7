// Output-layer cost on a delicious-like workload.
//
// delicious is the paper's 983-class dataset. One mini-batch through the
// simulated V100 at that output width, next to the same network with a
// 64-way output, shows what the wide output layer adds to the device time
// of a batch. (TensorFlow's delicious slowdown in Fig. 5c, §VII-B, is
// modeled separately: the TF reference charges a per-class step overhead.)
#include <cstdio>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"

using namespace hetsgd;
using tensor::Index;

int main(int argc, char** argv) {
  CliParser cli("delicious_output_cost",
                "simulated-V100 cost of one batch with a 983-way output");
  if (!cli.parse(argc, argv)) return 0;

  const Index batch = 128;
  data::SyntheticSpec spec;
  spec.name = "delicious-mini";
  spec.examples = batch;
  spec.dim = 500;
  spec.classes = 983;
  spec.support = 48;
  spec.density = 0.12;
  spec.feature_noise = 0.8;
  const data::Dataset dataset = data::make_synthetic(spec);

  nn::MlpConfig mlp;
  mlp.input_dim = dataset.dim();
  mlp.hidden_layers = 3;
  mlp.hidden_units = 64;
  mlp.hidden_activation = nn::Activation::kTanh;
  Rng rng(99);
  backend::CpuBackend device(backend::v100_spec(),
                             backend::CpuBackend::Mode::kDevice);
  for (const Index classes : {Index{64}, Index{983}}) {
    mlp.num_classes = classes;
    backend::MlpExecutor device_mlp(device, mlp, batch);
    const nn::Model model(mlp, rng);
    const std::vector<std::int32_t> labels(static_cast<std::size_t>(batch),
                                           0);
    const double t0 = device_mlp.upload_model(model, device.synchronize(0.0));
    double done = t0;
    device_mlp.compute_gradient(dataset.batch(0, batch), labels, t0, &done);
    std::printf("simulated V100, one %lld-example batch with %lld-way "
                "output: %.3f ms of device time\n",
                static_cast<long long>(batch),
                static_cast<long long>(classes), (done - t0) * 1e3);
  }
  return 0;
}
