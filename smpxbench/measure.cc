#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <thread>
#include <unordered_map>
#include <utility>

namespace smpxbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double SupportedPercentile(double p, size_t n) {
  if (n == 0) return 50;
  double limit = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::max(50.0, std::min(p, limit));
}

double MedianOfWindows(const std::vector<double>& ordered, size_t window,
                       double p) {
  if (window == 0 || ordered.size() < window) {
    return Percentile(ordered, SupportedPercentile(p, ordered.size()));
  }
  std::vector<double> per_window;
  for (size_t i = 0; i + window <= ordered.size(); i += window) {
    std::vector<double> w(ordered.begin() + static_cast<std::ptrdiff_t>(i),
                          ordered.begin() + static_cast<std::ptrdiff_t>(i + window));
    per_window.push_back(Percentile(std::move(w), SupportedPercentile(p, window)));
  }
  return Percentile(std::move(per_window), 50);
}

Quartiles Summarize(const std::vector<double>& values) {
  Quartiles q;
  q.n = values.size();
  q.q1 = Percentile(values, 25);
  q.median = Percentile(values, 50);
  q.q3 = Percentile(values, 75);
  return q;
}

bool BacklogGrows(std::vector<RequestTiming> timings, double tolerance_s) {
  if (timings.size() < 8) return false;
  std::sort(timings.begin(), timings.end(),
            [](const RequestTiming& a, const RequestTiming& b) {
              return a.due < b.due;
            });
  size_t quarter = timings.size() / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(timings[i].Lateness());
    last.push_back(timings[timings.size() - 1 - i].Lateness());
  }
  return Percentile(last, 50) - Percentile(first, 50) > tolerance_s;
}

std::vector<RequestTiming> OpenLoop(std::chrono::steady_clock::time_point t0,
                                    double first_due_s, double interval_s,
                                    double duration_s,
                                    const std::function<void(size_t)>& call) {
  using Clock = std::chrono::steady_clock;
  auto since = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<RequestTiming> out;
  for (size_t k = 0;; ++k) {
    double due = first_due_s + interval_s * static_cast<double>(k);
    if (due >= duration_s) break;
    auto due_at = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due));
    std::this_thread::sleep_until(due_at - std::chrono::microseconds(200));
    while (Clock::now() < due_at) std::this_thread::yield();
    RequestTiming t;
    t.due = due;
    t.sent = since();
    call(k);
    t.done = since();
    out.push_back(t);
  }
  return out;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {
thread_local std::vector<uint64_t> open_spans;
}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = parent != ~uint64_t{0}
                     ? parent
                     : (open_spans.empty() ? 0 : open_spans.back());
  span_.request = request;
  span_.name = name;
  open_spans.push_back(span_.id);
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = Tracer::NowNs();
  open_spans.pop_back();
  tracer_->Record(std::move(span_));
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace smpxbench
