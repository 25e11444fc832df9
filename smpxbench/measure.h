// Measurement primitives of the smpxbench driver, kept free of smpx code so
// the self-test can check them in isolation:
//  - order statistics (quartiles, the "ten samples beyond" percentile rule);
//  - open-loop request timing (latency from the due time, generator
//    lateness, backlog growth);
//  - in-memory spans with per-layer self time.

#ifndef SMPXBENCH_MEASURE_H_
#define SMPXBENCH_MEASURE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace smpxbench {

// --- order statistics ------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest percentile not above `p` that still has at least ten samples
/// beyond it among `n` samples, floored at the median. A p99 therefore needs
/// at least 1000 samples; with fewer, a lower percentile is reported.
double SupportedPercentile(double p, size_t n);

/// Median over consecutive windows of `window` samples (in arrival order)
/// of each window's SupportedPercentile(p). A stall on the host then spoils
/// one window instead of the run's whole tail. With fewer than `window`
/// samples it is the plain supported percentile of all of them.
double MedianOfWindows(const std::vector<double>& ordered, size_t window,
                       double p);

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  size_t n = 0;
};
Quartiles Summarize(const std::vector<double>& values);

// --- open-loop timing ------------------------------------------------------

/// One request of an open-loop schedule, in seconds on one clock.
struct RequestTiming {
  double due = 0;   ///< when the schedule wanted it sent
  double sent = 0;  ///< when the generator actually sent it
  double done = 0;  ///< when the response completed
  double LatencyFromDue() const { return done - due; }
  double Lateness() const { return sent - due; }
};

/// Runs one connection's share of an open-loop schedule: request k is due
/// at `first_due_s + k * interval_s` seconds after `t0` (for due times below
/// `duration_s`) and is sent at its due time, or as soon as the previous
/// call returns when that ran past it. The generator sleeps until shortly
/// before the due time and spins the rest, so its own wake-up delay stays
/// out of the measured latency. `call(k)` performs request k. Returns
/// one timing per request, in seconds since `t0`.
std::vector<RequestTiming> OpenLoop(
    std::chrono::steady_clock::time_point t0, double first_due_s,
    double interval_s, double duration_s,
    const std::function<void(size_t)>& call);

/// True when the generator fell further behind over the run: the median
/// lateness of the last quarter of requests (by due time) exceeds that of
/// the first quarter by more than `tolerance_s`. A stalled responder or an
/// offered rate above capacity grows lateness linearly with time.
bool BacklogGrows(std::vector<RequestTiming> timings, double tolerance_s);

// --- spans -----------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< request id shared by one request's spans
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans in memory. Disabled tracers record nothing.
class Tracer {
 public:
  static int64_t NowNs();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call into a layer. The parent defaults to the
/// innermost open span of the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0,
             uint64_t parent = ~uint64_t{0});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;  // null when tracing is off
  Span span_;
};

/// Self time per span name, in seconds: each span's duration minus the part
/// of its interval covered by the union of its children's intervals.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans);

}  // namespace smpxbench

#endif  // SMPXBENCH_MEASURE_H_
