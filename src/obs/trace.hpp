// Dual-clock span tracer.
//
// Each instrumented thread owns a lock-free SPSC ring of TraceEvents
// (producer: the thread; sole consumer: the tracer's flusher thread).
// Events carry BOTH clocks: wall nanoseconds from obs::wall_now_ns()
// and, where available, modeled virtual time, so a Perfetto timeline can
// be cross-referenced against the simulated schedule. Batch-id flow
// events ('s'/'t'/'f') correlate one batch's journey dispatch -> H2D ->
// kernel -> report -> ledger apply across threads.
//
// Cost model:
//  - HETSGD_TRACE=OFF (compile definition HETSGD_TRACE_DISABLED): every
//    macro and TraceSpan method is an empty inline -- zero code, zero
//    data, zero branches.
//  - Compiled in but not started: one relaxed atomic load per probe.
//  - Started: one wall_now_ns() read per edge plus an SPSC push. When a
//    ring fills the event is dropped and counted (never blocks).
//
// Thread-safety: rings are strictly single-producer/single-consumer.
// The owning thread is the producer; while the tracer is running the
// flusher thread is the only consumer; after stop() joins the flusher,
// the stopping thread takes over as (sole) consumer for the final
// drain -- the join provides the necessary happens-before edge.
#pragma once

#include <cstdint>
#include <string>

namespace hetsgd::obs {

// Sentinel for "no virtual-time stamp".
inline constexpr double kNoVt = -1.0;

// Stable flow id for one dispatched batch: workers and coordinator both
// know (worker, sequence), so either side can derive the same id
// without extra message plumbing.
inline constexpr std::uint64_t batch_flow_id(int worker,
                                             std::uint64_t sequence) {
  return (static_cast<std::uint64_t>(worker + 1) << 40) ^ sequence;
}

#if !defined(HETSGD_TRACE_DISABLED)

struct TraceEvent {
  const char* name = nullptr;  // static-lifetime strings only
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   // wall, obs::wall_now_ns() epoch
  std::uint64_t dur_ns = 0;  // 'X' spans only
  double vt0 = kNoVt;        // virtual time at begin (kNoVt = unset)
  double vt1 = kNoVt;        // virtual time at end
  std::uint64_t flow = 0;    // batch flow id, 0 = none
  double value = 0.0;        // 'C' counter samples
  std::int32_t tid = 0;      // track id, stamped by Tracer::record
  char phase = 'i';          // 'X','i','s','t','f','C'
};

class Tracer {
 public:
  static Tracer& instance();

  // Begins collection. Idempotent while running. `per_thread_capacity`
  // is rounded up to a power of two by the ring.
  void start(std::size_t per_thread_capacity = std::size_t{1} << 15);

  // Stops collection, joins the flusher, drains every ring and writes
  // Chrome trace_event JSON ("traceEvents" array, ts/dur in
  // microseconds, virtual times under args). Safe to call when never
  // started (writes an empty but valid trace). Returns false and fills
  // *error on I/O failure.
  bool stop_and_write(const std::string& path, std::string* error);

  // Stop without writing (tests / abandoning a trace).
  void stop();

  static bool enabled();

  // Records into the calling thread's ring; registers the thread on
  // first use. No-op when not enabled.
  static void record(const TraceEvent& event);

  // Names the calling thread's track in the exported trace.
  static void set_thread_name(const std::string& name);

  // Events discarded because a ring was full (since last start()).
  std::uint64_t dropped() const;
  // Events collected so far (flushed; excludes events still in rings).
  std::uint64_t collected() const;

 private:
  Tracer() = default;
};

// RAII span: records one 'X' complete event on destruction.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, double vt = kNoVt,
            std::uint64_t flow = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_end_vt(double vt) { vt1_ = vt; }
  void set_flow(std::uint64_t id) { flow_ = id; }

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  double vt0_;
  double vt1_;
  std::uint64_t flow_;
  bool active_ = false;
};

void trace_instant(const char* cat, const char* name, double vt = kNoVt,
                   std::uint64_t flow = 0);
void trace_flow_begin(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_flow_step(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_flow_end(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_counter(const char* name, double value);

#else  // HETSGD_TRACE_DISABLED: everything collapses to empty inlines.

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }
  void start(std::size_t = 0) {}
  bool stop_and_write(const std::string&, std::string*);
  void stop() {}
  static constexpr bool enabled() { return false; }
  static void set_thread_name(const std::string&) {}
  std::uint64_t dropped() const { return 0; }
  std::uint64_t collected() const { return 0; }
};

class TraceSpan {
 public:
  TraceSpan(const char*, const char*, double = kNoVt, std::uint64_t = 0) {}
  void set_end_vt(double) {}
  void set_flow(std::uint64_t) {}
};

inline void trace_instant(const char*, const char*, double = kNoVt,
                          std::uint64_t = 0) {}
inline void trace_flow_begin(const char*, std::uint64_t, double = kNoVt) {}
inline void trace_flow_step(const char*, std::uint64_t, double = kNoVt) {}
inline void trace_flow_end(const char*, std::uint64_t, double = kNoVt) {}
inline void trace_counter(const char*, double) {}

#endif  // HETSGD_TRACE_DISABLED

}  // namespace hetsgd::obs

// Instrumentation macros. `name`/`cat` must be string literals (the
// tracer stores the pointers, not copies).
#define HETSGD_TRACE_CONCAT2(a, b) a##b
#define HETSGD_TRACE_CONCAT(a, b) HETSGD_TRACE_CONCAT2(a, b)
// Span covering the rest of the enclosing scope.
#define HETSGD_TRACE_SCOPE(cat, name) \
  ::hetsgd::obs::TraceSpan HETSGD_TRACE_CONCAT(hetsgd_trace_span_, \
                                               __LINE__)(cat, name)
// Named span object, for setting vt/flow before it closes.
#define HETSGD_TRACE_SPAN(var, cat, name, ...) \
  ::hetsgd::obs::TraceSpan var(cat, name, ##__VA_ARGS__)
#define HETSGD_TRACE_INSTANT(...) ::hetsgd::obs::trace_instant(__VA_ARGS__)
#define HETSGD_TRACE_COUNTER(name, value) \
  ::hetsgd::obs::trace_counter(name, value)
