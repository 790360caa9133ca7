// Device-model vocabulary: device kinds, specs, the analytic perf model
// and virtual clocks.
//
// Code that reasons about modeled hardware — schedulers, cost models,
// benches — includes this header; what executes on a device is a Backend
// (backend/backend.hpp). The model lives in backend/perf_model.hpp and
// backend/virtual_clock.hpp.
#pragma once

#include "backend/perf_model.hpp"
#include "backend/virtual_clock.hpp"

namespace hetsgd {

// The model's former namespace, still spelled by callers outside src/.
namespace gpusim = backend;

}  // namespace hetsgd
