// Workload definitions and seeded input generation for the live-stack
// benchmark.
//
// Inputs are generated here, from the --seed argument alone, and never by
// the program under test: key choice is a scrambled Zipfian over a fixed key
// space, the read/write mix is a Bernoulli draw, and every record payload is
// a pure function of (key, version, seed). The last property is what lets
// the correctness audit check a read's payload exactly: whatever version a
// Read returns, its bytes must be Payload(key, version).
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace perfbench {

enum class WorkloadKind { kHotRead, kChurnWrite, kCrashRecovery };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kHotRead;
  const char* name = "";
  const char* why = "";
  size_t keys = 0;
  size_t value_bytes = 100;
  double zipf_theta = 0.99;
  double write_fraction = 0.05;
  /// Per-instance LRU budget handed to geminid --capacity-mb.
  uint64_t capacity_mb = 0;
  /// Keys read once through the client during set-up (hottest first).
  size_t warm_keys = 0;
  /// Closed-loop threads issuing GeminiClient ops.
  size_t client_threads = 4;
  /// Threads running RecoveryWorkers (crash_recovery only). Client and
  /// worker threads together never exceed the machine's 4 CPUs.
  size_t recovery_threads = 0;
};

/// The three workloads; returns false for an unknown name.
bool LookupWorkload(std::string_view name, WorkloadSpec* out);

/// "k00001234": fixed width so every key has the same wire size.
std::string KeyName(uint64_t index);

/// Deterministic record payload of `bytes` bytes for (key, version): the key
/// and version in clear text, then seed-derived filler.
void Payload(std::string_view key, uint64_t version, uint64_t seed,
             size_t bytes, std::string* out);

/// Zipfian ranks in [0, n) (Gray et al., as in YCSB), scrambled by a 64-bit
/// hash so the hot keys spread over every fragment instead of clustering at
/// the low indices. The hottest-first rank order is exposed so set-up can
/// warm the keys the workload will actually touch.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta);
  uint64_t Next(std::mt19937_64& rng) const;
  /// Key index of the rank-r hottest item.
  [[nodiscard]] uint64_t KeyOfRank(uint64_t rank) const;

 private:
  uint64_t Rank(std::mt19937_64& rng) const;

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double half_pow_theta_;
};

}  // namespace perfbench
