// Per-layer replays for the traced run.
//
// Each replay is a span the benchmark itself times around direct calls
// into one module's public functions, at the workload's exact shapes:
// data (shuffle), tensor (layer-0 GEMMs), nn (chunked loss evaluation),
// backend (the MlpExecutor round trip and a per-layer kernel split),
// concurrent (one Hogwild parallel_for), msg (actor round trip) and core
// (a full checkpoint save). Spans inside the program are not used.
#pragma once

#include <string>

#include "core/trainer.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {

// Replays every layer for about `budget_s` seconds in total and appends
// the per-layer metrics to `out`. `trainer` supplies the model shape and
// the dataset, `pass` a finished untraced pass (loss-evaluation count,
// checkpoint payload) and `train_wall_s` the untraced pass time the
// evaluation share is taken against. Returns an error, or empty when
// every replay worked.
std::string replay_layers(const Workload& w,
                          const hetsgd::core::Trainer& trainer,
                          const Pass& pass, double train_wall_s,
                          int threads, const std::string& scratch_dir,
                          double budget_s, Metrics& out);

}  // namespace perfbench
