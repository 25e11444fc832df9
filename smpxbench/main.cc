// smpxbench: one seeded benchmark over the public calls of every smpx layer.
//
//   smpxbench --workload medline-bulk|xmark-tenants|medline-serve
//             --seed N --seconds S --trace 0|1 [--data DIR] [--smoke]
//
// Generates the workload's inputs from the seed, sets up (DTD parse, table
// and product compile, server start, cache fill with index builds) three
// times, then splits the measured seconds between three drivers over the
// workload's own documents:
//   engine  serial Prefilter::Run and ShardedRun passes, outputs compared;
//   batch   MultiQueryBatchRunStreaming over every document and query;
//   serve   an open-loop session generator against an in-process Server.
// Every output is checked (streaming digests); a mismatch fails the run.
// With --trace 1 the measured part runs twice, untraced then traced, and
// the per-layer metrics come from spans recorded around each layer call.
// The last stdout line is the result JSON; the line before it ("DETAIL")
// carries the host block and each metric's quartiles.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "baselines/sax_projector.h"
#include "core/prefilter.h"
#include "dtd/dtd.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "measure.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "paths/projection_path.h"
#include "query/multiquery.h"
#include "server/client.h"
#include "server/server.h"
#include "simd/simd.h"
#include "workloads.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

#ifndef SMPXBENCH_COMPILER
#define SMPXBENCH_COMPILER "unknown"
#endif
#ifndef SMPXBENCH_BUILD_TYPE
#define SMPXBENCH_BUILD_TYPE "unknown"
#endif

namespace smpxbench {
namespace {

using smpx::Status;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- small utilities ---------------------------------------------------------

/// Streaming digest of everything appended: bytes are hashed in fixed 4 KiB
/// blocks, so the value does not depend on how the producer split its
/// Append calls, and checking an output costs 4 KiB of memory.
class DigestSink : public smpx::OutputSink {
 public:
  Status Append(std::string_view data) override {
    bytes_written_ += data.size();
    while (!data.empty()) {
      size_t n = std::min(data.size(), kBlock - fill_);
      std::memcpy(buf_ + fill_, data.data(), n);
      fill_ += n;
      data.remove_prefix(n);
      if (fill_ == kBlock) {
        h_ = smpx::Hash64(std::string_view(buf_, kBlock), h_);
        fill_ = 0;
      }
    }
    return Status::Ok();
  }
  uint64_t digest() const {
    return smpx::Hash64(std::string_view(buf_, fill_), h_) ^ bytes_written_;
  }

 private:
  static constexpr size_t kBlock = 4096;
  char buf_[kBlock];
  size_t fill_ = 0;
  uint64_t h_ = 0x736d7078;
};

struct Usage {
  double cpu_s = 0;
  double minor_faults = 0;
};

Usage NowUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  return u;
}

double StatusKb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::atof(line.c_str() + klen + 1);
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- run-wide state ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_build/data";
  bool smoke = false;
};

/// Operation accounting for error_rate and the exit status.
struct Ops {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};      ///< errors and refusals
  std::atomic<uint64_t> mismatched{0};  ///< outputs that failed a check
  std::mutex mu;
  std::vector<std::string> notes;       ///< first few problems, guarded by mu

  void Fail(const std::string& what, bool mismatch) {
    (mismatch ? mismatched : failed).fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (notes.size() < 8) notes.push_back(what);
  }
};

struct Doc {
  std::string path;
  std::unique_ptr<smpx::MmapSource> source;
  std::string_view view() const { return source->Contiguous(); }
};

/// One setup's products: compiled tables, the product DFA, the running
/// server and its cached entries.
struct Setup {
  std::vector<smpx::core::Prefilter> singles;
  std::optional<smpx::query::MultiQuery> mq;
  std::unique_ptr<smpx::server::Server> server;
  std::string endpoint;
  /// Per WorkloadSpec::serve_pairs entry: the server's cached tables and
  /// IndexedDoc.
  std::vector<std::shared_ptr<const smpx::core::Prefilter>> server_tables;
  std::vector<std::shared_ptr<const smpx::server::IndexedDoc>> served;
  std::string socket_path;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    served.clear();
    server.reset();
    if (!socket_path.empty()) std::remove(socket_path.c_str());
  }
};

struct Context {
  Args args;
  WorkloadSpec spec;
  std::string dtd_text;
  std::vector<Doc> docs;
  int nproc = 1;
  Tracer tracer;
  Ops ops;
  std::unique_ptr<smpx::parallel::ThreadPool> pool;
  /// Serial reference digest per (doc, query), set by the first serial run.
  std::map<std::pair<size_t, size_t>, uint64_t> reference;
  std::mutex reference_mu;
};

// --- setup -------------------------------------------------------------------

bool RunSetup(Context* ctx, int round, Setup* s) {
  const WorkloadSpec& w = ctx->spec;
  Tracer* tr = &ctx->tracer;
  ScopedSpan root(tr, "bench.setup");

  std::optional<smpx::dtd::Dtd> dtd;
  {
    ScopedSpan span(tr, "dtd.parse");
    auto parsed = smpx::dtd::Dtd::Parse(ctx->dtd_text);
    if (!parsed.ok()) {
      ctx->ops.Fail("dtd parse: " + parsed.status().ToString(), false);
      return false;
    }
    dtd = std::move(*parsed);
  }
  std::vector<std::vector<smpx::paths::ProjectionPath>> all_paths;
  for (const Query& q : w.queries) {
    ScopedSpan span(tr, "core.compile");
    auto paths = smpx::paths::ProjectionPath::ParseList(q.paths);
    if (!paths.ok()) {
      ctx->ops.Fail(q.id + ": " + paths.status().ToString(), false);
      return false;
    }
    all_paths.push_back(*paths);
    auto pf = smpx::core::Prefilter::Compile(*dtd, std::move(*paths));
    if (!pf.ok()) {
      ctx->ops.Fail(q.id + ": " + pf.status().ToString(), false);
      return false;
    }
    s->singles.push_back(std::move(*pf));
  }
  {
    ScopedSpan span(tr, "query.compile");
    auto mq = smpx::query::MultiQuery::Compile(*dtd, all_paths);
    if (!mq.ok()) {
      ctx->ops.Fail("product compile: " + mq.status().ToString(), false);
      return false;
    }
    s->mq = std::move(*mq);
  }
  {
    ScopedSpan span(tr, "server.start");
    smpx::server::ServerOptions so;
    so.unix_path = ".bench_build/run/s" + std::to_string(getpid()) + "-" +
                   std::to_string(round) + ".sock";
    so.cache.max_tables = 64;
    so.cache.max_indexes = 256;
    so.cache.index_granularity = w.index_granularity;
    s->endpoint = "unix:" + so.unix_path;
    s->socket_path = so.unix_path;
    s->server = std::make_unique<smpx::server::Server>(so);
    Status st = s->server->Start();
    if (!st.ok()) {
      ctx->ops.Fail("server start: " + st.ToString(), false);
      return false;
    }
  }
  {
    ScopedSpan span(tr, "server.cache_fill");
    smpx::server::Cache& cache = s->server->cache();
    for (auto [d, q] : w.serve_pairs) {
      auto pf = cache.GetTables(ctx->dtd_text, w.queries[q].paths);
      if (!pf.ok()) {
        ctx->ops.Fail("cache tables: " + pf.status().ToString(), false);
        return false;
      }
      s->server_tables.push_back(*pf);
      auto entry = cache.GetIndexedDoc(**pf, w.docs[d]);
      if (!entry.ok()) {
        ctx->ops.Fail("cache index: " + entry.status().ToString(), false);
        return false;
      }
      s->served.push_back(*entry);
    }
  }
  return true;
}

size_t SmallestDoc(const Context& ctx) {
  size_t smallest = 0;
  for (size_t d = 1; d < ctx.docs.size(); ++d) {
    if (ctx.docs[d].view().size() < ctx.docs[smallest].view().size()) {
      smallest = d;
    }
  }
  return smallest;
}

// --- engine phase: serial and sharded passes --------------------------------

/// Shards per pool thread in the sharded passes. With the default (one
/// shard per thread) a pass has nproc - 1 boundaries, and whether speculation
/// succeeds at those few boundaries depends on the seeded content around
/// them: on a 4-vCPU AVX2 host, per-seed medians ranged 917-1969 MB/s on
/// medline-bulk. Sixteen shards on four threads average over fifteen
/// boundaries (1046-1173 MB/s on the same seeds).
constexpr size_t kShardsPerThread = 4;

struct EngineResult {
  std::vector<double> serial_mb_s, shard_mb_s;
  smpx::core::RunStats serial_stats;
  uint64_t shard_passes = 0;
  uint64_t doc_bytes_sharded = 0;
  smpx::parallel::ShardReport shard_sum;
  double shard_wall_s = 0, shard_cpu_s = 0, shard_faults = 0;
};

void AddReport(smpx::parallel::ShardReport* dst,
               const smpx::parallel::ShardReport& r) {
  dst->speculated += r.speculated;
  dst->accepted += r.accepted;
  dst->reruns += r.reruns;
  dst->serial_bytes += r.serial_bytes;
  dst->wave_bytes += r.wave_bytes;
  dst->killed += r.killed;
}

void RecordReference(Context* ctx, size_t d, size_t q, uint64_t digest,
                     const std::string& what) {
  std::lock_guard<std::mutex> lock(ctx->reference_mu);
  auto [it, inserted] = ctx->reference.emplace(std::make_pair(d, q), digest);
  if (!inserted && it->second != digest) {
    ctx->ops.Fail(what + " differs from the earlier serial run", true);
  }
}

uint64_t Reference(Context* ctx, size_t d, size_t q, bool* found) {
  std::lock_guard<std::mutex> lock(ctx->reference_mu);
  auto it = ctx->reference.find({d, q});
  *found = it != ctx->reference.end();
  return *found ? it->second : 0;
}

void EnginePhase(Context* ctx, const Setup& s, double budget_s,
                 std::mt19937_64* rng, EngineResult* r) {
  const WorkloadSpec& w = ctx->spec;
  const size_t nq = w.queries.size();
  // Pairs every check depends on come first, then seeded rounds over all
  // (document, query) pairs until the budget is spent.
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t d = 0; d < std::min(w.product_check_docs, ctx->docs.size());
       ++d) {
    for (size_t q = 0; q < nq; ++q) order.push_back({d, q});
  }
  std::vector<std::pair<size_t, size_t>> needed = w.serve_pairs;
  for (size_t q = 0; q < w.sax_checked.size(); ++q) {
    needed.push_back({SmallestDoc(*ctx), q});
  }
  for (const auto& pair : needed) {
    if (std::find(order.begin(), order.end(), pair) == order.end()) {
      order.push_back(pair);
    }
  }
  const size_t required = order.size();
  auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i >= order.size()) {
      std::vector<std::pair<size_t, size_t>> round;
      for (size_t d = 0; d < ctx->docs.size(); ++d) {
        for (size_t q = 0; q < nq; ++q) round.push_back({d, q});
      }
      std::shuffle(round.begin(), round.end(), *rng);
      order.insert(order.end(), round.begin(), round.end());
    }
    if (i >= required && Seconds(start, Clock::now()) >= budget_s) break;
    auto [d, q] = order[i];
    std::string_view doc = ctx->docs[d].view();
    const std::string what = w.queries[q].id + " on doc" + std::to_string(d);
    double mb = static_cast<double>(doc.size()) / 1e6;

    DigestSink serial_out;
    smpx::core::RunStats stats;
    ctx->ops.attempted++;
    auto a = Clock::now();
    Status st;
    {
      ScopedSpan span(&ctx->tracer, "core.engine");
      smpx::MemoryInputStream in(doc);
      st = s.singles[q].Run(&in, &serial_out, &stats);
    }
    auto b = Clock::now();
    if (!st.ok()) {
      ctx->ops.Fail("serial " + what + ": " + st.ToString(), false);
      continue;
    }
    r->serial_mb_s.push_back(mb / Seconds(a, b));
    smpx::parallel::MergeRunStats(&r->serial_stats, stats);
    RecordReference(ctx, d, q, serial_out.digest(), "serial " + what);

    DigestSink shard_out;
    smpx::parallel::ShardReport report;
    ctx->ops.attempted++;
    Usage u0 = NowUsage();
    a = Clock::now();
    {
      ScopedSpan span(&ctx->tracer, "parallel.shard");
      smpx::parallel::ShardOptions sopts;
      sopts.max_shards = kShardsPerThread * static_cast<size_t>(ctx->nproc);
      st = smpx::parallel::ShardedRun(s.singles[q].tables(), doc, &shard_out,
                                      nullptr, ctx->pool.get(), sopts, &report);
    }
    b = Clock::now();
    Usage u1 = NowUsage();
    if (!st.ok()) {
      ctx->ops.Fail("sharded " + what + ": " + st.ToString(), false);
      continue;
    }
    r->shard_mb_s.push_back(mb / Seconds(a, b));
    r->shard_passes++;
    r->doc_bytes_sharded += doc.size();
    AddReport(&r->shard_sum, report);
    r->shard_wall_s += Seconds(a, b);
    r->shard_cpu_s += u1.cpu_s - u0.cpu_s;
    r->shard_faults += u1.minor_faults - u0.minor_faults;
    if (shard_out.digest() != serial_out.digest()) {
      ctx->ops.Fail("sharded " + what + " differs from serial", true);
    }
  }
}

// --- batch phase: every document through the product DFA -------------------

struct BatchResult {
  std::vector<double> mb_s;
  uint64_t passes = 0;
  double wall_s = 0, cpu_s = 0, faults = 0;
};

void BatchPhase(Context* ctx, const Setup& s, double budget_s,
                BatchResult* r) {
  const smpx::query::MultiQuery& mq = *s.mq;
  std::vector<smpx::MemorySource> sources;
  uint64_t total = 0;
  for (const Doc& d : ctx->docs) {
    sources.emplace_back(d.view());
    total += d.view().size();
  }
  std::vector<const smpx::InputSource*> srcs;
  for (const auto& src : sources) srcs.push_back(&src);
  auto start = Clock::now();
  do {
    std::vector<std::vector<DigestSink>> sinks(ctx->docs.size());
    std::vector<std::vector<smpx::OutputSink*>> sink_ptrs(ctx->docs.size());
    for (size_t d = 0; d < ctx->docs.size(); ++d) {
      sinks[d].resize(static_cast<size_t>(mq.num_unique()));
      for (auto& sink : sinks[d]) sink_ptrs[d].push_back(&sink);
    }
    std::vector<smpx::core::RunStats> stats;
    ctx->ops.attempted += ctx->docs.size();
    Usage u0 = NowUsage();
    auto a = Clock::now();
    std::vector<Status> statuses;
    {
      ScopedSpan span(&ctx->tracer, "parallel.batch");
      statuses = smpx::parallel::MultiQueryBatchRunStreaming(
          mq.tables(), srcs, sink_ptrs, nullptr, &stats, ctx->pool.get());
    }
    auto b = Clock::now();
    Usage u1 = NowUsage();
    r->mb_s.push_back(static_cast<double>(total) / 1e6 / Seconds(a, b));
    r->passes++;
    r->wall_s += Seconds(a, b);
    r->cpu_s += u1.cpu_s - u0.cpu_s;
    r->faults += u1.minor_faults - u0.minor_faults;
    for (size_t d = 0; d < statuses.size(); ++d) {
      if (!statuses[d].ok()) {
        ctx->ops.Fail("batch doc" + std::to_string(d) + ": " +
                          statuses[d].ToString(),
                      false);
        continue;
      }
      for (int q = 0; q < mq.num_queries(); ++q) {
        bool found = false;
        uint64_t ref = Reference(ctx, d, static_cast<size_t>(q), &found);
        if (!found) continue;
        ctx->ops.attempted++;
        const DigestSink& got = sinks[d][static_cast<size_t>(mq.unique_of(q))];
        if (got.digest() != ref) {
          ctx->ops.Fail("product " + ctx->spec.queries[q].id + " on doc" +
                            std::to_string(d) + " differs from its single run",
                        true);
        }
      }
    }
  } while (Seconds(start, Clock::now()) < budget_s);
}

// --- serve phase: open-loop sessions against the in-process server ----------

enum class Kind { kSeek, kResume, kProject };

/// Cursor tails are taken per window of this many requests (ten beyond the
/// p99 in each), then the median over windows; see MedianOfWindows.
constexpr size_t kTailWindow = 1000;
/// Reference cursor rate, requests/s, on every workload.
constexpr double kRefRate = 2000;
/// Cursor p99 limit of serve_max_qps: well above a shared 4-vCPU host's
/// scheduling jitter, so the ladder finds the saturation knee, not noise.
constexpr double kP99LimitUs = 20000;
/// A session is one seek1 and 1..kMaxResumes resume1 follow-ups.
constexpr int kMaxResumes = 3;

struct Served {
  Kind kind = Kind::kSeek;
  size_t pair = 0;  ///< index into WorkloadSpec::serve_pairs
  uint64_t target = 0;
  std::string token_in;
  uint64_t request_id = 0;
  bool ok = false;
  uint64_t digest = 0;
  smpx::server::Trailer trailer;
  RequestTiming timing;
  double call_us = 0;
};

struct Rung {
  std::vector<Served> requests;
  uint64_t rejects = 0, retries = 0, errors = 0;
};

/// Drives `rate` requests/s for `duration_s` from `conns` connections. Each
/// connection owns an evenly spaced schedule (rate / conns apart, phase
/// shifted); a request waits for its due time, or for the previous request
/// on its connection when that ran late. With `projects`, one more
/// connection carries whole-document projects at WorkloadSpec::project_rate.
void RunRung(Context* ctx, const Setup& s, double rate, double duration_s,
             bool projects, uint64_t rung_seed, uint64_t parent_span,
             std::atomic<uint64_t>* next_request, Rung* out) {
  const WorkloadSpec& w = ctx->spec;
  const bool project_conn = projects && w.project_rate > 0;
  const int conns = std::max(1, ctx->nproc - (project_conn ? 1 : 0)) +
                    (project_conn ? 1 : 0);
  std::vector<std::vector<Served>> per_conn(static_cast<size_t>(conns));
  std::vector<uint64_t> rejects(conns, 0), retries(conns, 0), errors(conns, 0);
  auto t0 = Clock::now() + std::chrono::milliseconds(5);

  auto worker = [&](int c) {
    prctl(PR_SET_TIMERSLACK, 1UL);
    auto client = smpx::server::Client::Connect(s.endpoint);
    if (!client.ok()) {
      errors[c]++;
      ctx->ops.Fail("connect: " + client.status().ToString(), false);
      return;
    }
    bool is_project = project_conn && c == 0;
    int cursor_conns = project_conn ? conns - 1 : conns;
    double conn_rate = is_project ? w.project_rate : rate / cursor_conns;
    if (conn_rate <= 0) return;
    double interval = 1.0 / conn_rate;
    std::mt19937_64 rng(rung_seed * 1315423911ull + static_cast<uint64_t>(c));
    double first_due = interval * static_cast<double>(rng() % 1000) / 1000.0;
    std::string token;
    int resumes_left = 0;
    size_t pair = 0;
    std::vector<Served>& served = per_conn[c];
    auto call = [&](size_t) {
      Served req;
      req.request_id = next_request->fetch_add(1) + 1;
      if (is_project) {
        req.kind = Kind::kProject;
        pair = rng() % w.serve_pairs.size();
      } else if (resumes_left > 0 && !token.empty()) {
        req.kind = Kind::kResume;
        req.token_in = token;
        resumes_left--;
      } else {
        req.kind = Kind::kSeek;
        pair = rng() % w.serve_pairs.size();
        const auto& entries = s.served[pair]->index.entries();
        uint64_t records =
            entries.empty() ? 1 : entries.back().record_ordinal + 1;
        req.target = rng() % records;
        resumes_left = 1 + static_cast<int>(rng() % kMaxResumes);
      }
      req.pair = pair;
      auto [doc, table] = w.serve_pairs[pair];
      smpx::server::Request wire;
      wire.op = req.kind == Kind::kProject ? smpx::server::Op::kProject
                : req.kind == Kind::kSeek  ? smpx::server::Op::kSeek
                                           : smpx::server::Op::kResume;
      wire.dtd_text = ctx->dtd_text;
      wire.paths_text = w.queries[table].paths;
      wire.doc_path = w.docs[doc];
      if (req.kind == Kind::kSeek) {
        wire.target = req.target;
        wire.by_record = true;
      }
      if (req.kind != Kind::kProject) wire.count = 1;
      wire.token = req.token_in;

      ctx->ops.attempted++;
      std::optional<smpx::Result<smpx::server::Trailer>> trailer;
      DigestSink sink;
      auto a = Clock::now();
      {
        ScopedSpan span(&ctx->tracer, "server.call", req.request_id,
                        parent_span);
        for (int attempt = 0;; ++attempt) {
          sink = DigestSink();
          trailer.emplace(client->Call(wire, &sink));
          if (trailer->ok() || !client->last_error_retryable() ||
              attempt == 3) {
            break;
          }
          rejects[c]++;
          retries[c]++;
        }
      }
      req.call_us = Seconds(a, Clock::now()) * 1e6;
      if (!trailer->ok()) {
        errors[c]++;
        ctx->ops.Fail("request: " + trailer->status().ToString(), false);
        token.clear();
        resumes_left = 0;
      } else {
        req.ok = true;
        req.digest = sink.digest();
        req.trailer = **trailer;
        token = req.trailer.at_end ? std::string() : req.trailer.token;
      }
      served.push_back(std::move(req));
    };
    std::vector<RequestTiming> timings =
        OpenLoop(t0, first_due, interval, duration_s, call);
    for (size_t k = 0; k < timings.size(); ++k) served[k].timing = timings[k];
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  for (int c = 0; c < conns; ++c) {
    for (auto& r : per_conn[c]) out->requests.push_back(std::move(r));
    out->rejects += rejects[c];
    out->retries += retries[c];
    out->errors += errors[c];
  }
  std::sort(out->requests.begin(), out->requests.end(),
            [](const Served& a, const Served& b) {
              return a.timing.due < b.timing.due;
            });
}

/// Cursor (seek1 and resume1) latencies from the due time, in due order.
std::vector<double> CursorLatenciesUs(const Rung& rung) {
  std::vector<double> v;
  for (const Served& r : rung.requests) {
    if (r.kind != Kind::kProject) v.push_back(r.timing.LatencyFromDue() * 1e6);
  }
  return v;
}

bool RungPasses(const Rung& rung) {
  if (rung.errors > 0) return false;
  std::vector<double> lat = CursorLatenciesUs(rung);
  if (lat.empty()) return false;
  if (MedianOfWindows(lat, kTailWindow, 99) > kP99LimitUs) {
    return false;
  }
  std::vector<RequestTiming> timings;
  for (const Served& r : rung.requests) timings.push_back(r.timing);
  return !BacklogGrows(timings, kP99LimitUs * 1e-6);
}

struct ServeResult {
  Rung reference;
  std::vector<Rung> probes;
  double max_qps = 0;
};

void ServePhase(Context* ctx, const Setup& s, double budget_s,
                ServeResult* r) {
  std::atomic<uint64_t> next_request{0};
  uint64_t phase_span = 0;
  ScopedSpan span(&ctx->tracer, "bench.serve");
  phase_span = span.id();
  double ref_s = budget_s * 0.6;
  RunRung(ctx, s, kRefRate, ref_s, true, ctx->args.seed, phase_span,
          &next_request, &r->reference);

  // Highest passing rung of the ladder kRefRate x 1.06^(k - kRef), k in
  // [0, kMax], i.e. from kRefRate / 33 to kRefRate x 66. The reference run
  // is rung kRef; steps of 8, 16, 32, ... rungs go up from a passing rung
  // or down from a failing one until the verdict flips, then bisection.
  constexpr int kRef = 60, kMax = 132;
  const double probe_s = std::max(0.25, budget_s * 0.4 / 10);
  auto rate_of = [](int k) { return kRefRate * std::pow(1.06, k - kRef); };
  int probes = 0;
  // A failing rung is run once more and fails only if it fails again, so
  // one stall on a shared host does not end the search early.
  auto probe = [&](int k) {
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      Rung rung;
      RunRung(ctx, s, rate_of(k), probe_s, false,
              ctx->args.seed * 977 + static_cast<uint64_t>(k * 2 + attempt),
              phase_span, &next_request, &rung);
      ok = RungPasses(rung);
      std::vector<double> lat = CursorLatenciesUs(rung);
      std::fprintf(stderr, "smpxbench: probe %.0f/s: p50 %.0f us, p99 %.0f us, %s\n",
                   rate_of(k), Percentile(lat, 50),
                   MedianOfWindows(lat, kTailWindow, 99), ok ? "pass" : "fail");
      r->probes.push_back(std::move(rung));
    }
    probes++;
    return ok;
  };
  int lo = -1, hi = kMax + 1;
  if (RungPasses(r->reference)) {
    lo = kRef;
    for (int step = 8; lo < kMax; step *= 2) {
      int k = std::min(kMax, lo + step);
      if (!probe(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
  } else {
    hi = kRef;
    for (int step = 8; hi > 0; step *= 2) {
      int k = std::max(0, hi - step);
      if (probe(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  while (lo >= 0 && hi - lo > 1 && probes < 14) {
    int mid = (lo + hi) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  r->max_qps = lo >= 0 ? rate_of(lo) : 0;
}

// --- output checks after the measured phases ----------------------------------

struct ReplayResult {
  std::vector<double> open_us, next_us, overhead_us;
};

/// Replays one served request against the cached IndexedDoc the way the
/// server does (verify_document = false after the fill-time Matches check)
/// and compares bytes, record count, positions and token; a project response
/// is compared with the serial reference digest. With `out`, records the
/// replay's open and next times and the server overhead around them.
void CheckOne(Context* ctx, const Setup& s, const Served& req,
              ReplayResult* out) {
  ctx->ops.attempted++;
  if (req.kind == Kind::kProject) {
    bool found = false;
    auto [d, q] = ctx->spec.serve_pairs[req.pair];
    uint64_t ref = Reference(ctx, d, q, &found);
    if (!found || ref != req.digest) {
      ctx->ops.Fail("project differs from the serial run", true);
    }
    return;
  }
  const smpx::server::IndexedDoc& idoc = *s.served[req.pair];
  const smpx::core::RuntimeTables& tables = s.server_tables[req.pair]->tables();
  smpx::index::CursorOptions copts;
  copts.verify_document = false;
  auto a = Clock::now();
  std::optional<smpx::Result<smpx::index::Cursor>> opened;
  {
    ScopedSpan span(out ? &ctx->tracer : nullptr, "index.open",
                    req.request_id);
    opened.emplace(req.kind == Kind::kSeek
                       ? smpx::index::Cursor::OpenAtRecord(
                             idoc.index, tables, idoc.doc(), req.target, copts)
                       : smpx::index::Cursor::Restore(
                             idoc.index, tables, idoc.doc(), req.token_in,
                             copts));
  }
  auto b = Clock::now();
  if (!opened->ok()) {
    ctx->ops.Fail("offline cursor open: " + opened->status().ToString(), true);
    return;
  }
  smpx::index::Cursor* cur = &**opened;
  DigestSink sink;
  std::optional<smpx::Result<size_t>> next;
  {
    ScopedSpan span(out ? &ctx->tracer : nullptr, "index.next",
                    req.request_id);
    next.emplace(cur->Next(1, &sink));
  }
  auto c = Clock::now();
  const smpx::Result<size_t>& n = *next;
  const smpx::server::Trailer& t = req.trailer;
  bool same = n.ok() && *n == t.records && sink.digest() == req.digest &&
              cur->position() == t.position &&
              cur->output_position() == t.out_position &&
              cur->record_position() == t.record_position &&
              cur->at_end() == t.at_end &&
              (cur->at_end() || cur->SaveToken() == t.token);
  if (!same) {
    ctx->ops.Fail("served cursor differs from the offline cursor", true);
    return;
  }
  if (out != nullptr) {
    double open_us = Seconds(a, b) * 1e6, next_us = Seconds(b, c) * 1e6;
    out->open_us.push_back(open_us);
    out->next_us.push_back(next_us);
    out->overhead_us.push_back(req.call_us - open_us - next_us);
  }
}

/// Checks every served response. The reference rung is replayed on this
/// thread and timed (the index.* and server.overhead samples); the ladder
/// rungs are only checked, spread over nproc threads.
void CheckServed(Context* ctx, const Setup& s, const Rung& reference,
                 const std::vector<const Rung*>& others, ReplayResult* out) {
  for (const Served& req : reference.requests) {
    if (req.ok) CheckOne(ctx, s, req, out);
  }
  std::vector<const Served*> rest;
  for (const Rung* rung : others) {
    for (const Served& req : rung->requests) {
      if (req.ok) rest.push_back(&req);
    }
  }
  std::vector<std::thread> threads;
  const size_t n = static_cast<size_t>(ctx->nproc);
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < rest.size(); i += n) {
        CheckOne(ctx, s, *rest[i], nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
}

/// The XM catalog (or M1-M5) queries against the independent SAX projector
/// on the smallest document, through the serial reference digests.
void CheckSax(Context* ctx) {
  const WorkloadSpec& w = ctx->spec;
  const size_t smallest = SmallestDoc(*ctx);
  for (size_t q = 0; q < w.sax_checked.size(); ++q) {
    auto paths = smpx::paths::ProjectionPath::ParseList(w.sax_checked[q].paths);
    if (!paths.ok()) continue;
    smpx::baselines::SaxProjector projector(*paths);
    DigestSink sax;
    ctx->ops.attempted++;
    Status st = projector.Project(ctx->docs[smallest].view(), &sax);
    bool found = false;
    uint64_t ref = Reference(ctx, smallest, q, &found);
    if (!found) {
      ctx->ops.Fail("no serial reference for " + w.sax_checked[q].id, true);
    } else if (!st.ok() || ref != sax.digest()) {
      ctx->ops.Fail(w.sax_checked[q].id + " differs from SaxProjector", true);
    }
  }
}

// --- one measured pass over the workload --------------------------------------

struct Measured {
  EngineResult engine;
  BatchResult batch;
  ServeResult serve;
  double wall_s = 0;
};

void Measure(Context* ctx, const Setup& s, double seconds, Measured* m) {
  const WorkloadSpec& w = ctx->spec;
  std::mt19937_64 rng(ctx->args.seed ^ 0xB0B0);
  ScopedSpan root(&ctx->tracer, "bench.measure");
  auto a = Clock::now();
  {
    ScopedSpan span(&ctx->tracer, "bench.engine");
    EnginePhase(ctx, s, seconds * w.engine_share, &rng, &m->engine);
  }
  {
    ScopedSpan span(&ctx->tracer, "bench.batch");
    BatchPhase(ctx, s, seconds * w.batch_share, &m->batch);
  }
  ServePhase(ctx, s, seconds * w.serve_share, &m->serve);
  m->wall_s = Seconds(a, Clock::now());
}

// --- reporting ------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  Quartiles q;
};

Metric FromSamples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples) {
  return Metric{name, unit, Summarize(samples)};
}

Metric Scalar(const std::string& name, const std::string& unit, double v) {
  Quartiles q;
  q.q1 = q.median = q.q3 = v;
  q.n = 1;
  return Metric{name, unit, q};
}

/// A percentile metric: value at SupportedPercentile(p) of the samples.
Metric Tail(const std::string& name, const std::string& unit,
            const std::vector<double>& samples, double p) {
  Metric m = Scalar(name, unit,
                    Percentile(samples, SupportedPercentile(p, samples.size())));
  m.q.n = samples.size();
  return m;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The end-to-end metrics. `info` receives those reported in DETAIL only:
/// the serve latencies and serve_max_qps are measured but not gated,
/// because on a shared 4-vCPU host their run-to-run spreads over ten seeds
/// on some workload (cursor_p50_us 0.31 and project_p99_ms 0.25-0.99 on
/// xmark-tenants, cursor_p99_us 0.24-0.9, serve_max_qps 0.13-0.27) are
/// wider than a bound can be.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const Measured& m, double peak_rss_mb,
                             std::vector<Metric>* info) {
  std::vector<Metric> out;
  out.push_back(FromSamples("setup_s", "s", setup_s));
  out.push_back(FromSamples("serial_mb_s", "MB/s", m.engine.serial_mb_s));
  out.push_back(FromSamples("shard_mb_s", "MB/s", m.engine.shard_mb_s));
  out.push_back(FromSamples("batch_mb_s", "MB/s", m.batch.mb_s));
  std::vector<double> cursor = CursorLatenciesUs(m.serve.reference);
  info->push_back(FromSamples("cursor_p50_us", "us", cursor));
  Metric p99 = Scalar("cursor_p99_us", "us",
                      MedianOfWindows(cursor, kTailWindow, 99));
  p99.q.n = cursor.size();
  info->push_back(p99);
  std::vector<double> project;
  for (const Served& r : m.serve.reference.requests) {
    if (r.kind == Kind::kProject) {
      project.push_back(r.timing.LatencyFromDue() * 1e3);
    }
  }
  info->push_back(Tail("project_p99_ms", "ms", project, 99));
  info->push_back(Scalar("serve_max_qps", "1/s", m.serve.max_qps));
  out.push_back(Scalar("peak_rss_mb", "MB", peak_rss_mb));
  return out;
}

std::vector<Metric> PerLayer(Context* ctx, const Setup& s, int setups,
                             const Measured& untraced, const Measured& m,
                             const ReplayResult& replay, double boundary_s,
                             double index_build_s) {
  std::vector<Metric> out;
  auto add = [&](const std::string& n, const std::string& u, double v) {
    out.push_back(Scalar(n, u, v));
  };
  std::vector<Span> spans = ctx->tracer.spans();
  std::map<std::string, double> self = SelfTimes(spans);
  double k = setups;

  add("dtd.parse_s", "s", self["dtd.parse"] / k);
  add("core.compile_s", "s", self["core.compile"] / k);
  double states = 0;
  for (const auto& pf : s.singles) states += static_cast<double>(pf.num_states());
  add("core.states", "count", states);
  add("query.compile_s", "s", self["query.compile"] / k);
  add("query.unique_queries", "count", s.mq->num_unique());
  add("query.product_states", "count",
      static_cast<double>(s.mq->tables().states.size()));

  const smpx::core::RunStats& rs = m.engine.serial_stats;
  double in_mb = static_cast<double>(rs.input_bytes) / 1e6;
  add("core.engine.busy_s", "s", self["core.engine"]);
  add("core.engine.charcomp_pct", "%", rs.CharCompPct());
  add("core.engine.avg_shift", "chars", rs.AvgShift());
  add("core.engine.initial_jump_pct", "%", rs.InitialJumpPct());
  add("core.engine.match_ratio", "ratio",
      Ratio(static_cast<double>(rs.matches),
            static_cast<double>(rs.matches + rs.false_matches)));
  add("core.engine.bm_searches", "1/MB",
      Ratio(static_cast<double>(rs.bm_searches), in_mb));
  add("core.engine.cw_searches", "1/MB",
      Ratio(static_cast<double>(rs.cw_searches), in_mb));
  add("core.engine.output_ratio", "ratio",
      Ratio(static_cast<double>(rs.output_bytes),
            static_cast<double>(rs.input_bytes)));
  add("strmatch.comparisons_per_mb", "1/MB",
      Ratio(static_cast<double>(rs.search.comparisons), in_mb));

  const EngineResult& e = m.engine;
  double sharded = static_cast<double>(e.doc_bytes_sharded);
  double passes = static_cast<double>(e.shard_passes);
  add("parallel.boundary_scan_s", "s", boundary_s);
  add("parallel.shard.busy_s", "s", self["parallel.shard"]);
  add("parallel.shard.wave_ratio", "ratio",
      Ratio(static_cast<double>(e.shard_sum.wave_bytes), sharded));
  add("parallel.shard.serial_ratio", "ratio",
      Ratio(static_cast<double>(e.shard_sum.serial_bytes), sharded));
  add("parallel.shard.accept_ratio", "ratio",
      Ratio(static_cast<double>(e.shard_sum.accepted),
            static_cast<double>(e.shard_sum.speculated)));
  add("parallel.shard.reruns", "count/pass",
      Ratio(static_cast<double>(e.shard_sum.reruns), passes));
  add("parallel.shard.killed", "count/pass",
      Ratio(static_cast<double>(e.shard_sum.killed), passes));
  add("parallel.shard.cpu_util", "ratio",
      Ratio(e.shard_cpu_s, e.shard_wall_s * ctx->nproc));
  add("parallel.shard.minor_faults", "count/pass", Ratio(e.shard_faults, passes));

  const BatchResult& b = m.batch;
  add("parallel.batch.busy_s", "s", self["parallel.batch"]);
  add("parallel.batch.cpu_util", "ratio",
      Ratio(b.cpu_s, b.wall_s * ctx->nproc));
  add("parallel.batch.minor_faults", "count/pass",
      Ratio(b.faults, static_cast<double>(b.passes)));

  double entries = 0;
  for (const auto& idoc : s.served) {
    entries += static_cast<double>(idoc->index.entries().size());
  }
  add("index.build_s", "s", index_build_s);
  add("index.entries", "count", entries);
  out.push_back(FromSamples("index.open_p50_us", "us", replay.open_us));
  out.push_back(Tail("index.open_p99_us", "us", replay.open_us, 99));
  out.push_back(FromSamples("index.next_p50_us", "us", replay.next_us));

  out.push_back(FromSamples("server.overhead_p50_us", "us", replay.overhead_us));
  uint64_t rejects = m.serve.reference.rejects, retries = m.serve.reference.retries;
  for (const Rung& r : m.serve.probes) {
    rejects += r.rejects;
    retries += r.retries;
  }
  add("server.rejects", "count", static_cast<double>(rejects));
  add("server.retries", "count", static_cast<double>(retries));
  add("server.cache.tables", "count",
      static_cast<double>(s.server->cache().tables_count()));
  add("server.cache.indexes", "count",
      static_cast<double>(s.server->cache().indexes_count()));

  std::vector<double> late;
  for (const Served& r : m.serve.reference.requests) {
    late.push_back(r.timing.Lateness() * 1e3);
  }
  out.push_back(Tail("bench.gen.late_p99_ms", "ms", late, 99));

  // Tracing overhead on the workload's headline metric.
  double overhead = 0;
  const std::string& name = ctx->spec.name;
  if (name == "medline-bulk") {
    overhead = Ratio(Percentile(untraced.engine.serial_mb_s, 50),
                     Percentile(m.engine.serial_mb_s, 50)) - 1;
  } else if (name == "xmark-tenants") {
    overhead = Ratio(Percentile(untraced.batch.mb_s, 50),
                     Percentile(m.batch.mb_s, 50)) - 1;
  } else {
    overhead = Ratio(Percentile(CursorLatenciesUs(m.serve.reference), 50),
                     Percentile(CursorLatenciesUs(untraced.serve.reference),
                                50)) - 1;
  }
  add("bench.trace_overhead_pct", "%", 100 * overhead);
  // Driver overhead: time inside the engine and batch phases that no layer
  // span covers.
  double phase_wall = 0;
  for (const Span& sp : spans) {
    if (sp.name == "bench.engine" || sp.name == "bench.batch") {
      phase_wall += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
    }
  }
  add("bench.driver_pct", "%",
      100 * Ratio(self["bench.engine"] + self["bench.batch"], phase_wall));
  double attempted = static_cast<double>(ctx->ops.attempted.load());
  add("error_rate", "ratio",
      Ratio(static_cast<double>(ctx->ops.failed + ctx->ops.mismatched),
            attempted));
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Num(m.q.median) +
           ", \"unit\": \"" + m.unit + "\"";
    if (detail) {
      out += ", \"q1\": " + Num(m.q.q1) + ", \"q3\": " + Num(m.q.q3) +
             ", \"samples\": " + std::to_string(m.q.n);
    }
    out += "}";
  }
  return out + "}";
}

std::string HostJson(const Context& ctx) {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  bool pinned = CPU_COUNT(&set) < online;
  return std::string("{\"cpu\": \"") + JsonEscape(CpuModel()) +
         "\", \"nproc\": " + std::to_string(ctx.nproc) +
         ", \"online_cpus\": " + std::to_string(online) +
         ", \"isa\": \"" + smpx::simd::IsaName(smpx::simd::ActiveIsa()) +
         "\", \"compiler\": \"" + JsonEscape(SMPXBENCH_COMPILER) +
         "\", \"build_type\": \"" + SMPXBENCH_BUILD_TYPE +
         "\", \"pinned\": " + (pinned ? "true" : "false") + "}";
}

void WriteSpans(const Context& ctx, const std::string& path) {
  std::ofstream f(path);
  f << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& s : ctx.tracer.spans()) {
    f << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name << '\t'
      << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (k == "--workload") a->workload = val();
    else if (k == "--seed") a->seed = std::strtoull(val(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(val());
    else if (k == "--trace") a->trace = std::atoi(val());
    else if (k == "--data") a->data_dir = val();
    else if (k == "--smoke") a->smoke = true;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: smpxbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data DIR] [--smoke]\n");
    return 2;
  }
  const Args& args = ctx.args;
  ctx.nproc = Nproc();
  std::string error;
  auto g0 = Clock::now();
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/run", 0755);
  ctx.spec = MakeWorkload(args.workload, args.seed, args.data_dir, args.smoke,
                          &error);
  if (ctx.spec.name.empty()) {
    std::fprintf(stderr, "smpxbench: %s\n", error.c_str());
    return 2;
  }
  ctx.dtd_text = ctx.spec.medline ? smpx::xmlgen::MedlineDtdText()
                                  : smpx::xmlgen::XmarkDtdText();
  for (const std::string& path : ctx.spec.docs) {
    auto src = smpx::MmapSource::Open(path);
    if (!src.ok()) {
      std::fprintf(stderr, "smpxbench: %s\n", src.status().ToString().c_str());
      return 2;
    }
    ctx.docs.push_back(Doc{path, std::move(*src)});
  }
  ctx.pool = std::make_unique<smpx::parallel::ThreadPool>(ctx.nproc);
  uint64_t total_bytes = 0;
  for (const Doc& d : ctx.docs) total_bytes += d.view().size();
  std::fprintf(stderr, "smpxbench: %s seed %llu: %zu docs, %.1f MB, %zu queries "
               "(generated in %.2f s)\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               ctx.docs.size(), static_cast<double>(total_bytes) / 1e6,
               ctx.spec.queries.size(), Seconds(g0, Clock::now()));

  ResetPeakRss();
  double rss_base_kb = StatusKb("VmRSS");
  ctx.tracer.set_enabled(args.trace != 0);

  // Set up three times; the last setup is the one measured against.
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  constexpr int kSetups = 3;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup = std::make_unique<Setup>();
    auto a = Clock::now();
    if (!RunSetup(&ctx, i, setup.get())) {
      std::fprintf(stderr, "smpxbench: setup failed: %s\n",
                   ctx.ops.notes.empty() ? "" : ctx.ops.notes[0].c_str());
      return 1;
    }
    setup_s.push_back(Seconds(a, Clock::now()));
  }
  const Setup& s = *setup;
  const size_t tables_after_fill = s.server->cache().tables_count();
  const size_t indexes_after_fill = s.server->cache().indexes_count();

  // Warm-up, untimed: one serial pass per document maps its pages into this
  // process before anything is timed.
  for (const Doc& d : ctx.docs) {
    smpx::MemoryInputStream in(d.view());
    smpx::CountingSink sink;
    if (!s.singles[0].Run(&in, &sink).ok()) {
      ctx.ops.Fail("warm-up pass failed", false);
    }
  }

  Measured untraced, traced;
  Measured* m = &untraced;
  double seconds = args.seconds;
  if (args.trace != 0) {
    // Untraced half first, then the traced half the per-layer metrics use.
    ctx.tracer.set_enabled(false);
    Measure(&ctx, s, seconds / 2, &untraced);
    ctx.tracer.set_enabled(true);
    Measure(&ctx, s, seconds / 2, &traced);
    m = &traced;
  } else {
    Measure(&ctx, s, seconds, &untraced);
  }
  double peak_rss_mb = (StatusKb("VmHWM") - rss_base_kb) / 1024.0;

  // Checks over the outputs recorded during measurement.
  ReplayResult replay;
  std::vector<const Rung*> rungs;
  for (const Rung& r : m->serve.probes) rungs.push_back(&r);
  if (m != &untraced) {
    rungs.push_back(&untraced.serve.reference);
    for (const Rung& r : untraced.serve.probes) rungs.push_back(&r);
  }
  CheckServed(&ctx, s, m->serve.reference, rungs, &replay);
  CheckSax(&ctx);
  if (s.server->cache().tables_count() != tables_after_fill ||
      s.server->cache().indexes_count() != indexes_after_fill) {
    ctx.ops.Fail("server cache changed during the measured phase", true);
  }

  std::vector<Metric> metrics, info;
  if (args.trace != 0) {
    double boundary_s = 0, index_build_s = 0;
    {
      // Separately timed layer calls the measured drivers make internally.
      size_t largest = 0;
      for (size_t d = 1; d < ctx.docs.size(); ++d) {
        if (ctx.docs[d].view().size() > ctx.docs[largest].view().size()) {
          largest = d;
        }
      }
      std::vector<double> scans;
      for (int i = 0; i < 3; ++i) {
        auto a = Clock::now();
        auto cuts = smpx::parallel::FindTopLevelBoundariesParallel(
            ctx.docs[largest].view(), static_cast<size_t>(ctx.nproc),
            ctx.pool.get());
        scans.push_back(Seconds(a, Clock::now()));
        (void)cuts;
      }
      boundary_s = Percentile(scans, 50);
      smpx::index::BoundaryIndexOptions bopts;
      bopts.granularity_bytes = ctx.spec.index_granularity;
      for (size_t p = 0; p < ctx.spec.serve_pairs.size(); ++p) {
        size_t d = ctx.spec.serve_pairs[p].first;
        auto a = Clock::now();
        auto idx = smpx::index::BoundaryIndex::Build(
            s.server_tables[p]->tables(), ctx.docs[d].view(), ctx.pool.get(),
            bopts);
        index_build_s += Seconds(a, Clock::now());
        if (!idx.ok()) ctx.ops.Fail("index build failed", false);
      }
    }
    metrics = PerLayer(&ctx, s, kSetups, untraced, *m, replay, boundary_s,
                       index_build_s);
  } else {
    metrics = EndToEnd(setup_s, *m, peak_rss_mb, &info);
  }

  setup->server->Stop();

  // Results land next to the data (inside the checkout).
  std::string tag = args.workload + "-" + std::to_string(args.seed) + "-t" +
                    std::to_string(args.trace);
  if (args.trace != 0) WriteSpans(ctx, args.data_dir + "/spans-" + tag + ".tsv");
  for (const std::string& path : ctx.spec.docs) std::remove(path.c_str());
  std::remove((args.data_dir + "/" + args.workload + "-" +
               std::to_string(args.seed)).c_str());

  uint64_t attempted = ctx.ops.attempted.load();
  uint64_t failed = ctx.ops.failed.load() + ctx.ops.mismatched.load();
  bool correct = failed == 0;
  for (const std::string& note : ctx.ops.notes) {
    std::fprintf(stderr, "smpxbench: FAILED: %s\n", note.c_str());
  }
  for (const auto* list : {&metrics, &info}) {
    for (const Metric& mt : *list) {
      std::printf("%-32s %14.6g %-10s [q1 %.6g, q3 %.6g, n=%zu]%s\n",
                  mt.name.c_str(), mt.q.median, mt.unit.c_str(), mt.q.q1,
                  mt.q.q3, mt.q.n, list == &info ? " (not gated)" : "");
    }
  }
  std::printf("DETAIL {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"measured_wall_s\": %s, \"host\": %s, "
              "\"metrics\": %s, \"informational\": %s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace, Num(m->wall_s).c_str(),
              HostJson(ctx).c_str(), MetricsJson(metrics, true).c_str(),
              MetricsJson(info, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace smpxbench

int main(int argc, char** argv) { return smpxbench::Main(argc, argv); }
