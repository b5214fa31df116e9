#include "perfbench/workload.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kHotRead, "hot_read",
     "IqGet hit path (client -> transport -> cache -> lease): 100k keys fit "
     "in cache, Zipf 0.99, 5% writes; the store is touched only by writes "
     "and refills",
     /*keys=*/100'000, /*value_bytes=*/100, /*zipf_theta=*/0.99,
     /*write_fraction=*/0.05, /*capacity_mb=*/64, /*warm_keys=*/100'000,
     /*client_threads=*/4, /*recovery_threads=*/0},
    {WorkloadKind::kChurnWrite, "churn_write",
     "misses, evictions, Q-lease write sessions, IqSet fills and WAL "
     "appends: 100k keys, ~10x the 1 MiB per-instance capacity, Zipf 0.9, "
     "50% writes; store-bound",
     /*keys=*/100'000, /*value_bytes=*/100, /*zipf_theta=*/0.90,
     /*write_fraction=*/0.50, /*capacity_mb=*/1, /*warm_keys=*/20'000,
     /*client_threads=*/4, /*recovery_threads=*/0},
    {WorkloadKind::kCrashRecovery, "crash_recovery",
     "the paper's cycle: kill -9 a geminid, transient mode with dirty "
     "lists, restart on its WAL, recovery drain + working-set transfer "
     "until every fragment is normal",
     /*keys=*/100'000, /*value_bytes=*/100, /*zipf_theta=*/0.99,
     /*write_fraction=*/0.10, /*capacity_mb=*/64, /*warm_keys=*/100'000,
     /*client_threads=*/3, /*recovery_threads=*/1},
};

}  // namespace

bool LookupWorkload(std::string_view name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

std::string KeyName(uint64_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%08llu",
                static_cast<unsigned long long>(index));
  return buf;
}

void Payload(std::string_view key, uint64_t version, uint64_t seed,
             size_t bytes, std::string* out) {
  out->assign(key);
  out->push_back('#');
  out->append(std::to_string(version));
  out->push_back('#');
  uint64_t state = Mix64(seed ^ Mix64(version) ^ key.size());
  for (const char c : key) state = Mix64(state ^ static_cast<uint8_t>(c));
  while (out->size() < bytes) {
    out->push_back(static_cast<char>('a' + state % 26));
    state = Mix64(state + 1);
  }
}

ScrambledZipf::ScrambledZipf(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
  half_pow_theta_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ScrambledZipf::Rank(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < half_pow_theta_) return 1;
  const uint64_t r = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r < n_ ? r : n_ - 1;
}

uint64_t ScrambledZipf::KeyOfRank(uint64_t rank) const {
  return Mix64(rank + 0x9e3779b97f4a7c15ULL) % n_;
}

uint64_t ScrambledZipf::Next(std::mt19937_64& rng) const {
  return KeyOfRank(Rank(rng));
}

}  // namespace perfbench
