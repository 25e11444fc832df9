#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <sys/stat.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpxbench {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// Selective leaf projections over the XMark DTD (the multi-tenant mix of
// bench/multiquery_scaling.cc): six regions x five item fields, person
// contact and address fields, and category names -- 39 queries.
std::vector<Query> TenantLeafMix() {
  std::vector<Query> mix;
  for (const char* region :
       {"africa", "asia", "australia", "europe", "namerica", "samerica"}) {
    for (const char* field :
         {"name", "location", "quantity", "payment", "shipping"}) {
      mix.push_back({std::string("T-") + region + "-" + field,
                     std::string("/site/regions/") + region + "/item/" +
                         field + "#"});
    }
  }
  for (const char* field : {"phone", "emailaddress", "homepage", "creditcard"}) {
    mix.push_back({std::string("T-person-") + field,
                   std::string("/site/people/person/") + field + "#"});
  }
  for (const char* field : {"city", "country", "street", "zipcode"}) {
    mix.push_back({std::string("T-address-") + field,
                   std::string("/site/people/person/address/") + field + "#"});
  }
  mix.push_back({"T-category-name", "/site/categories/category/name#"});
  return mix;
}

std::vector<Query> Catalog(const std::vector<smpx::bench::Workload>& w) {
  std::vector<Query> out;
  for (const auto& q : w) out.push_back({q.id, q.projection_paths});
  return out;
}

// Writes and syncs `data`: the page cache must not still be writing a fresh
// document back to disk while the first passes over it are timed.
bool WriteFile(const std::string& path, const std::string& data,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
            std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) *error = "cannot write " + path;
  return ok;
}

// Seeded document sizes spread evenly over [lo, hi]: document i gets the
// i-th of n evenly spaced sizes, jittered by up to +-2% from the seed. The
// size mix is thereby the same for every seed (a seed changes content, not
// how much work a pass does), so runs with different seeds stay comparable.
std::vector<uint64_t> Sizes(std::mt19937_64* rng, size_t n, uint64_t lo,
                            uint64_t hi) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < n; ++i) {
    double at = n == 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1);
    double jitter = 1.0 + 0.04 * (static_cast<double>((*rng)() % 1001) / 1000.0 - 0.5);
    out.push_back(static_cast<uint64_t>(
        (static_cast<double>(lo) + at * static_cast<double>(hi - lo)) * jitter));
  }
  return out;
}

}  // namespace

WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed,
                          const std::string& dir, bool smoke,
                          std::string* error) {
  WorkloadSpec w;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + name.size());
  std::vector<uint64_t> sizes;
  if (name == "medline-bulk") {
    // One document far larger than the per-core caches. A 320 MiB document
    // (above the 300 MiB LLC of the 4-vCPU test host, which other VMs
    // share) was tried first: its shard, batch and project spreads over ten
    // seeds exceeded every allowed bound, see README.md.
    w.medline = true;
    sizes = {smoke ? 8 * kMiB : 96 * kMiB};
    w.queries = Catalog(smpx::bench::MedlineWorkloads());
    w.engine_share = 0.60;
    w.batch_share = 0.20;
    w.serve_share = 0.20;
    w.serve_pairs = {{0, 0}};
    w.index_granularity = 256 << 10;
    w.project_rate = 2;
  } else if (name == "xmark-tenants") {
    // Many cache-resident documents, 57 queries in one product DFA.
    w.medline = false;
    sizes = smoke ? Sizes(&rng, 4, kMiB / 4, kMiB / 2)
                  : Sizes(&rng, 24, kMiB / 2, 4 * kMiB);
    std::shuffle(sizes.begin() + 2, sizes.end(), rng);
    w.queries = Catalog(smpx::bench::XmarkWorkloads());
    w.sax_checked = w.queries;
    for (Query& q : TenantLeafMix()) w.queries.push_back(std::move(q));
    w.product_check_docs = 2;
    w.engine_share = 0.20;
    w.batch_share = 0.60;
    w.serve_share = 0.20;
    w.serve_pairs = {{0, 0}, {1, w.queries.size() - 1}};
    w.index_granularity = 1;
    w.project_rate = 20;
  } else if (name == "medline-serve") {
    // A few documents served under M1-M5 from one in-process server.
    w.medline = true;
    sizes = smoke ? Sizes(&rng, 2, kMiB, 2 * kMiB)
                  : Sizes(&rng, 3, 4 * kMiB, 8 * kMiB);
    w.queries = Catalog(smpx::bench::MedlineWorkloads());
    w.sax_checked = w.queries;
    w.engine_share = 0.20;
    w.batch_share = 0.10;
    w.serve_share = 0.70;
    // M1-M5 tables over three documents, one index per (document, table).
    for (size_t q = 0; q < w.queries.size(); ++q) {
      w.serve_pairs.push_back({q % sizes.size(), q});
    }
    w.index_granularity = 1;
    w.project_rate = 40;
  } else {
    *error = "unknown workload '" + name + "'";
    return WorkloadSpec{};
  }

  std::string wdir = dir + "/" + name + "-" + std::to_string(seed);
  ::mkdir(dir.c_str(), 0755);
  ::mkdir(wdir.c_str(), 0755);
  for (size_t i = 0; i < sizes.size(); ++i) {
    uint64_t doc_seed = rng();
    std::string doc;
    if (w.medline) {
      smpx::xmlgen::MedlineOptions opts;
      opts.target_bytes = sizes[i];
      opts.seed = doc_seed;
      doc = smpx::xmlgen::GenerateMedline(opts);
    } else {
      smpx::xmlgen::XmarkOptions opts;
      opts.target_bytes = sizes[i];
      opts.seed = doc_seed;
      doc = smpx::xmlgen::GenerateXmark(opts);
    }
    std::string path = wdir + "/doc" + std::to_string(i) + ".xml";
    if (!WriteFile(path, doc, error)) return WorkloadSpec{};
    w.docs.push_back(path);
  }
  w.name = name;
  return w;
}

}  // namespace smpxbench
