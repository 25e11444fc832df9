// Self-test of the smpxbench measurement math (measure.h): the percentile
// rule, due-time latency against a deliberately stalled fake responder,
// backlog-growth detection, and span self-time subtraction. Exits 1 on the
// first failed check.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "measure.h"

namespace smpxbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) failures++;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  Check(Near(Percentile(v, 50), 51, 1e-9), "median of 1..101 is 51");
  Check(Near(Percentile(v, 99), 100, 1e-9), "p99 of 1..101 is 100");
  Check(Near(Percentile({4, 2}, 50), 3, 1e-9), "median interpolates");
  Check(Percentile({}, 50) == 0, "empty percentile is 0");
  Quartiles q = Summarize(v);
  Check(Near(q.q1, 26, 1e-9) && Near(q.q3, 76, 1e-9) && q.n == 101,
        "quartiles of 1..101 are 26 / 76");
  // At least ten samples beyond the reported percentile.
  Check(Near(SupportedPercentile(99, 1000), 99, 1e-9), "p99 kept at n=1000");
  Check(Near(SupportedPercentile(99, 500), 98, 1e-9), "p99 -> p98 at n=500");
  Check(Near(SupportedPercentile(99, 10), 50, 1e-9), "floored at the median");
  // Windowed tail: one stalled window out of five does not move it.
  std::vector<double> ordered;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) {
      ordered.push_back(w == 2 && i >= 900 ? 1000.0 : (i % 100) * 0.01);
    }
  }
  Check(MedianOfWindows(ordered, 1000, 99) < 1.0,
        "windowed p99 ignores one stalled window");
  Check(Percentile(ordered, 99) > 100.0, "the pooled p99 does not");
  Check(Near(MedianOfWindows({1, 2, 3}, 1000, 50), 2, 1e-9),
        "too few samples: plain percentile");
  for (size_t n : {11, 20, 100, 999, 1000, 5000}) {
    double p = SupportedPercentile(99, n);
    double beyond = (1.0 - p / 100.0) * static_cast<double>(n);
    Check(p == 50 || beyond >= 10 - 1e-9, "ten samples beyond the percentile");
  }
}

// A fake responder that answers in `service_s`, except request `stall_at`,
// which it holds for `stall_s`.
std::vector<RequestTiming> Drive(double rate, double duration_s,
                                 double service_s, size_t stall_at,
                                 double stall_s) {
  auto t0 = std::chrono::steady_clock::now();
  return OpenLoop(t0, 0.0, 1.0 / rate, duration_s, [&](size_t k) {
    double wait = k == stall_at ? stall_s : service_s;
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  });
}

void TestStalledResponder() {
  // 500 requests/s for 0.4 s; request 20 stalls for 100 ms.
  std::vector<RequestTiming> t = Drive(500, 0.4, 0.0002, 20, 0.1);
  Check(t.size() == 200, "open loop issues every scheduled request");
  std::vector<double> from_due, service;
  for (const RequestTiming& r : t) {
    from_due.push_back(r.LatencyFromDue());
    service.push_back(r.done - r.sent);
  }
  // The requests queued behind the stall are charged the wait they spent
  // behind it; timing from the send would hide it.
  Check(t[21].Lateness() > 0.09, "request after the stall is sent late");
  Check(t[21].LatencyFromDue() > 0.09, "its latency counts from its due time");
  Check(Percentile(from_due, 90) > 0.02,
        "due-time p90 shows the stall (about 50 requests delayed)");
  Check(Percentile(service, 90) < 0.02,
        "send-time p90 would have hidden it");
  Check(t.back().Lateness() < 0.01, "generator catches up after the stall");
}

void TestBacklog() {
  // Synthetic: lateness grows linearly (offered rate above capacity).
  std::vector<RequestTiming> growing, steady;
  for (int k = 0; k < 400; ++k) {
    double due = k * 0.001;
    growing.push_back({due, due + k * 0.0002, due + k * 0.0002 + 0.001});
    steady.push_back({due, due + 0.0001 * (k % 3), due + 0.0005});
  }
  Check(BacklogGrows(growing, 0.005), "linearly growing lateness is a backlog");
  Check(!BacklogGrows(steady, 0.005), "bounded lateness is not a backlog");
  Check(!BacklogGrows({}, 0.005), "no requests, no backlog");
  // Live: a responder twice as slow as the schedule falls behind; a fast
  // one keeps up; a single stall early on recovers and is not a backlog.
  Check(BacklogGrows(Drive(500, 0.3, 0.004, ~size_t{0}, 0), 0.005),
        "slow responder grows a backlog");
  Check(!BacklogGrows(Drive(500, 0.3, 0.0002, ~size_t{0}, 0), 0.005),
        "fast responder does not");
  Check(!BacklogGrows(Drive(500, 0.4, 0.0002, 10, 0.05), 0.005),
        "a recovered stall does not");
}

void TestSelfTime() {
  auto span = [](uint64_t id, uint64_t parent, const char* name, int64_t a,
                 int64_t b) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = a;
    s.end_ns = b;
    return s;
  };
  // root [0,100]; children overlap ([10,30] and [20,40]) and one sticks out
  // of the parent ([90,120]); a grandchild sits inside the first child.
  std::vector<Span> spans = {
      span(1, 0, "root", 0, 100),    span(2, 1, "a", 10, 30),
      span(3, 1, "a", 20, 40),       span(4, 1, "b", 90, 120),
      span(5, 2, "c", 12, 18),
  };
  auto self = SelfTimes(spans);
  Check(Near(self["root"], 60e-9, 1e-15),
        "parent self = 100 - union(10..40, 90..100) = 60");
  Check(Near(self["a"], (20 - 6 + 20) * 1e-9, 1e-15),
        "child self subtracts its grandchild only");
  Check(Near(self["b"], 30e-9, 1e-15), "leaf self is its duration");
  Check(Near(self["c"], 6e-9, 1e-15), "grandchild self");

  // ScopedSpan nesting wires parents on one thread; disabled records none.
  Tracer tracer;
  {
    ScopedSpan off(&tracer, "off");
  }
  Check(tracer.spans().empty(), "disabled tracer records nothing");
  tracer.set_enabled(true);
  uint64_t outer_id = 0;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    outer_id = outer.id();
    ScopedSpan inner(&tracer, "inner", 7);
  }
  std::vector<Span> got = tracer.spans();
  bool nested = got.size() == 2 && got[0].name == "inner" &&
                got[0].parent == outer_id && got[1].parent == 0 &&
                got[0].request == 7;
  Check(nested, "scoped spans nest and carry the request id");
}

}  // namespace
}  // namespace smpxbench

int main() {
  smpxbench::TestPercentiles();
  smpxbench::TestStalledResponder();
  smpxbench::TestBacklog();
  smpxbench::TestSelfTime();
  std::printf("%s\n", smpxbench::failures == 0 ? "selftest passed"
                                               : "selftest FAILED");
  return smpxbench::failures == 0 ? 0 : 1;
}
