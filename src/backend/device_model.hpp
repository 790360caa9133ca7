// Device-model vocabulary re-exported through the backend seam.
//
// Code outside src/backend/ and src/gpusim/ that needs the modeled-hardware
// vocabulary — device kinds, specs, analytic perf models, virtual clocks —
// includes this header instead of gpusim directly (the gpusim-include lint
// rule, tools/lint/hetsgd_lint.py). gpusim holds only the *model*; what
// executes on a device is a Backend, which is exactly the split a real
// multi-device port needs: schedulers reason about specs, only backends
// touch devices.
#pragma once

#include "gpusim/perf_model.hpp"
#include "gpusim/virtual_clock.hpp"

namespace hetsgd::backend {

using gpusim::DeviceKind;
using gpusim::DeviceSpec;
using gpusim::PerfModel;
using gpusim::VirtualClock;
using gpusim::v100_spec;
using gpusim::xeon56_spec;
using gpusim::xeon_spec;

}  // namespace hetsgd::backend
