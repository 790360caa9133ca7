// Elastic worker membership plan: a schedule of join/retire events in
// virtual time, parsed from the --elastic-plan flag.
//
// "Adaptive Elastic Training for Sparse Deep Learning" (arXiv:2110.07029)
// makes mid-run membership change the core mechanism; here it stresses
// the coordinator's recovery machinery: a retiring worker's in-flight
// batch must be reclaimed (preserving dispatched == reported + reclaimed)
// and a joining worker must be seeded with a cost-model-matched batch and
// an update-count baseline so Algorithm 2 treats it as a peer, not a
// straggler. The Trainer drives the plan from a small controller thread
// that watches the virtual frontier and calls Coordinator::join_worker /
// retire_worker at the scheduled times.
#pragma once

#include <string>
#include <vector>

#include "backend/device_model.hpp"
#include "msg/message.hpp"

namespace hetsgd {
class CliParser;
}

namespace hetsgd::core {

struct ElasticEvent {
  enum class Kind { kJoin, kRetire };
  Kind kind = Kind::kJoin;
  // kJoin: device kind of the new worker.
  backend::DeviceKind device = backend::DeviceKind::kGpu;
  // kRetire: the worker to retire.
  msg::WorkerId worker = -1;
  // Trigger: fires when the virtual frontier reaches at_vtime. Negative =
  // unresolved; at_fraction (of the time budget) is substituted by
  // resolve_times().
  double at_vtime = -1.0;
  double at_fraction = -1.0;
};

// A parsed --elastic-plan. Plain data, owned and driven by the Trainer;
// not internally synchronized (read-only after resolve_times).
struct ElasticPlan {
  // Parses a ';'-separated event list:
  //   join:kind=gpu,atfrac=0.3
  //   join:kind=cpu,at=0.8
  //   retire:worker=1,atfrac=0.6
  // Returns false and sets *error on a malformed spec.
  static bool parse(const std::string& spec, ElasticPlan* out,
                    std::string* error);

  // Resolves fraction triggers against the run's virtual-time budget and
  // sorts events by trigger time. Call once before the run starts.
  void resolve_times(double budget_vseconds);

  bool empty() const { return events.empty(); }

  std::vector<ElasticEvent> events;
};

// Registers --elastic-plan onto a CLI parser, writing into *plan.
void register_elastic_flags(CliParser& cli, std::string* plan);

}  // namespace hetsgd::core
