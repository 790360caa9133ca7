// Virtual (logical) time.
//
// Experiments in the paper plot loss against wall-clock seconds on a
// 56-thread Xeon + V100 testbed. Neither exists here, so every worker owns
// a VirtualClock advanced by the perf model's cost estimates; the
// coordinator schedules work in clock order and the benchmark time axis is
// virtual seconds. This makes runs deterministic and hardware-independent
// while leaving the actual SGD math (and its real thread-level races on the
// CPU path) untouched.
//
// Concurrency contract: a VirtualClock is confined to the thread of the
// worker (or stream) that owns it — unsynchronized by design. Clock values
// cross threads only as plain doubles inside messages, never as shared
// state.
#pragma once

#include "common/macros.hpp"

namespace hetsgd::backend {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(double start) : now_(start) {}

  double now() const { return now_; }

  // Advances by a non-negative duration and returns the new time.
  double advance(double seconds) {
    HETSGD_ASSERT(seconds >= 0.0, "clock cannot advance by negative time");
    now_ += seconds;
    return now_;
  }

  // Moves the clock forward to `t` if `t` is later (used when an operation
  // waits on another stream's completion). Never moves backwards.
  double advance_to(double t) {
    if (t > now_) now_ = t;
    return now_;
  }

  void reset(double t = 0.0) { now_ = t; }

 private:
  double now_ = 0.0;
};

}  // namespace hetsgd::backend
