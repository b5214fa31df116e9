// perfbench: the live-stack benchmark. Spawns geminicoordd (gemini-ow) and
// two geminids (WAL data dirs, one event loop each), drives closed-loop
// GeminiClient Reads and Writes at them over TcpCacheBackend and
// RemoteCoordinator, against an in-process DataStore with a 500 us
// synthetic round trip, and audits every Read.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--spans-out FILE]
//
// A run sets the cluster up kSetups times (the last one is measured), warms
// it under load, then measures for S seconds. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exit status is 0 only when the run completed and every check passed.
// perfbench/README.md describes the workloads and what each metric means.
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "perfbench/cluster.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/client/gemini_client.h"
#include "src/cluster/remote_coordinator.h"
#include "src/common/clock.h"
#include "src/coordinator/configuration.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/transport/tcp_backend.h"

namespace perfbench {
namespace {

using gemini::Code;
using SteadyClock = std::chrono::steady_clock;

constexpr size_t kInstances = 2;
constexpr size_t kFragments = 16;
constexpr int kSetups = 3;
constexpr double kWarmSeconds = 1.0;
constexpr gemini::Duration kStoreLatencyUs = 500;
// crash_recovery cycle: steady load, kill, failover, a fixed transient
// phase after it, respawn, load until every fragment is normal again.
constexpr double kCycleSteadySeconds = 0.5;
constexpr double kTransientSeconds = 0.35;
// Steady phases are cut into windows of this length (crash_recovery: one
// window per cycle); latency and throughput figures come from the fast
// quartile of the windows (see EmitEndToEnd).
constexpr double kWindowSeconds = 1.0;
constexpr double kFastLatencyQuantile = 0.25;
constexpr double kFastRateQuantile = 0.75;
// How long a crash cycle waits for the cluster to be all normal before its
// kill (a stall of the machine can make the coordinator fail over a live
// instance; the recovery worker then brings it back).
constexpr double kSettleSeconds = 60.0;
constexpr double kTracedBaselineSeconds = 2.0;
constexpr size_t kProbeCycles = 5;
// A suspended write is retried (as an application would) until this much
// time has passed; past it the write counts as failed.
constexpr double kWriteDeadlineSeconds = 10.0;
constexpr size_t kWriteStripes = 4096;

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

float MicrosSince(SteadyClock::time_point t0) {
  return static_cast<float>(
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
          .count());
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// ---- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--bin-dir") {
      args->bin_dir = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds <= 0 || args->bin_dir.empty() || args->work_dir.empty()) {
    std::fprintf(stderr, "perfbench: --seconds, --bin-dir and --work-dir are "
                         "required\n");
    return false;
  }
  return true;
}

// ---- Correctness audit -------------------------------------------------------

/// Every violation found by any thread; a non-empty audit fails the run.
class Audit {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 10) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
  [[nodiscard]] uint64_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

// ---- Per-thread op accounting ---------------------------------------------

/// Measurement slots an op is attributed to, by the slot active when it
/// started. kNone ops (warm-up, gaps between cycles) are not recorded.
enum Slot : int {
  kNone = -1,
  kSteady = 0,        // e2e slot of hot_read/churn_write; untraced baseline
  kTracedSteady = 1,  // the same load with tracing on
  kWindow = 2,        // crash_recovery: kill -> every fragment normal
  kSlots = 3,
};

struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;  // kSuspended answers retried inside one write
  std::vector<float> latency_us;  // every attempted op, failed ones included
  std::vector<uint32_t> window;   // parallel to latency_us: window at start
};

struct SlotTally {
  OpTally read;
  OpTally write;
  uint64_t hits = 0;
  std::vector<uint64_t> completed;  // per window: ops that succeeded

  void Merge(const SlotTally& o) {
    for (auto [dst, src] : {std::pair{&read, &o.read}, {&write, &o.write}}) {
      dst->attempted += src->attempted;
      dst->failed += src->failed;
      dst->refused += src->refused;
      dst->latency_us.insert(dst->latency_us.end(), src->latency_us.begin(),
                             src->latency_us.end());
      dst->window.insert(dst->window.end(), src->window.begin(),
                         src->window.end());
    }
    hits += o.hits;
    if (completed.size() < o.completed.size()) {
      completed.resize(o.completed.size());
    }
    for (size_t w = 0; w < o.completed.size(); ++w) {
      completed[w] += o.completed[w];
    }
  }
};

struct ThreadTally {
  SlotTally slots[kSlots];
};

/// What one client op returned, for the tallies.
struct OpOutcome {
  float us = 0;          // time inside GeminiClient (write: incl. retries)
  bool hit = false;      // read served from the cache
  uint64_t refused = 0;  // kSuspended answers retried
};

std::atomic<int> g_slot{kNone};
// The measurement window of the active slot (index into its windows).
std::atomic<uint32_t> g_window{0};

/// Metric name -> (value, unit).
using MetricMap = std::map<std::string, std::pair<double, const char*>>;

// ---- The system under test -------------------------------------------------

struct Live {
  explicit Live(Cluster::Options options) : cluster(std::move(options)) {}

  Cluster cluster;
  gemini::DataStore store;
  std::unique_ptr<gemini::RemoteCoordinator> remote;
  ConfigPushLog pushes;
  std::vector<std::unique_ptr<gemini::TcpCacheBackend>> tcp;
  std::vector<std::unique_ptr<TracedBackend>> traced;
  std::unique_ptr<TracedCoordinator> traced_coord;
  std::vector<gemini::CacheBackend*> backends;  // what the client and workers use
  gemini::CoordinatorService* coord = nullptr;
  // One GeminiClient per benchmark thread, as each application thread would
  // own one. A client shared by threads is not safe in recovery mode:
  // GeminiClient::ReadRecovery reads and erases its cached DirtyList outside
  // its mutex, and a shared client crashed the driver with SIGSEGV there.
  std::vector<std::unique_ptr<gemini::GeminiClient>> clients;

  [[nodiscard]] gemini::GeminiClient::Stats ClientStats() const {
    gemini::GeminiClient::Stats sum;
    for (const auto& c : clients) {
      const gemini::GeminiClient::Stats s = c->stats();
      sum.reads += s.reads;
      sum.writes += s.writes;
      sum.cache_hits += s.cache_hits;
      sum.store_reads += s.store_reads;
      sum.suspended_writes += s.suspended_writes;
      sum.wst_copies += s.wst_copies;
      sum.dirty_hits += s.dirty_hits;
    }
    return sum;
  }
};

bool AllNormal(const gemini::ConfigurationPtr& config) {
  if (config == nullptr || config->num_fragments() != kFragments) return false;
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    const gemini::FragmentAssignment& a = config->fragment(f);
    if (a.mode != gemini::FragmentMode::kNormal ||
        a.primary == gemini::kInvalidInstance) {
      return false;
    }
  }
  return true;
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        zipf_(spec.keys, spec.zipf_theta),
        write_locks_(kWriteStripes),
        acked_(spec.keys),
        has_multi_(spec.keys) {}

  int Run();

 private:
  /// Spawns a fresh cluster into live_, seeds the store and warms the cache.
  bool SetUp(double* seconds, std::string* error);
  bool WarmCache();

  void LoadLoop(size_t tid, ThreadTally* tally);
  /// One audited client op on key index `k`; false if the op failed.
  bool DoRead(gemini::GeminiClient& client, gemini::Session& session,
              uint64_t k, std::string* scratch, OpOutcome* out);
  bool DoWrite(gemini::GeminiClient& client, gemini::Session& session,
               uint64_t k, std::string* scratch, OpOutcome* out);
  /// The version whose payload a record at `version` of key `k` carries.
  gemini::Version PayloadVersion(uint64_t k, gemini::Version version);
  void WorkerLoop();

  void StartLoad();
  void StopLoad();
  /// Runs the load in `slot` for `seconds`, in windows of kWindowSeconds;
  /// returns the wall time.
  double Measure(Slot slot, double seconds);
  /// Waits until every fragment is normal; false after kSettleSeconds.
  bool WaitAllNormal();
  /// crash_recovery: cycles under load until `seconds` have passed.
  bool CrashCycles(double seconds);
  /// hot_read/churn_write: after the load stops, kProbeCycles kill/restart
  /// cycles with one recovery worker and no foreground load, which give
  /// recovery_s and the persist.replay_* figures for this workload's WAL.
  bool RestartProbe();
  /// kill -9 `victim`, wait for failover plus `transient_s`, respawn it on
  /// its data dir and wait until every fragment is normal, checking each of
  /// its fragments' mode cycle.
  bool CrashCycle(size_t victim, double transient_s, bool under_load);
  /// Checks, on the pushed configurations since `pushes_before`, that every
  /// fragment in `owned` went normal -> transient -> recovery -> normal.
  bool CheckModeCycle(const gemini::ConfigurationPtr& before,
                      const std::vector<gemini::FragmentId>& owned,
                      size_t pushes_before);

  /// kStats of daemon `d`: geminid d, or geminicoordd for d == kInstances.
  bool ScrapeDaemon(size_t d, Counters* out);
  /// Start, extend (before a kill) and end the traced phase's counter deltas.
  void ScrapeBegin();
  void ScrapeFold(size_t d);
  void ScrapeEnd();

  /// Prints the report and the JSON result line; true if the run passed.
  bool Emit(bool completed);
  void EmitEndToEnd(MetricMap* m);
  void EmitPerLayer(MetricMap* m);

  const Args args_;
  const WorkloadSpec spec_;
  const ScrambledZipf zipf_;
  std::vector<std::mutex> write_locks_;
  // Per key, the version of the last write whose Write() has returned: the
  // floor a read that starts afterwards must see (read-after-write). The
  // store's own VersionOf() also counts writes still in flight, which a
  // concurrent read may legitimately miss.
  std::vector<std::atomic<gemini::Version>> acked_;
  // Writes that created more than one store version: per key, the
  // [first, last] version ranges that all carry the payload of `first`.
  std::vector<std::atomic<bool>> has_multi_;
  std::mutex multi_mu_;
  std::unordered_map<uint64_t, std::vector<std::pair<gemini::Version,
                                                     gemini::Version>>>
      multi_ranges_;  // guarded by multi_mu_
  std::atomic<uint64_t> multi_version_writes_{0};
  Audit audit_;
  std::unique_ptr<Live> live_;

  std::atomic<bool> stop_load_{false};
  std::vector<std::thread> threads_;
  std::vector<ThreadTally> tallies_;
  double slot_seconds_[kSlots] = {0, 0, 0};
  std::vector<double> window_seconds_[kSlots];  // per window of each slot

  // Recovery worker counters, published by the worker thread after each
  // TryAdoptFragment (and the Steps it led to).
  struct WorkerCounters {
    gemini::RecoveryWorker::Stats stats;
    uint64_t adopt_calls = 0;
    uint64_t adopts = 0;
    int64_t busy_ns = 0;  // inside Step
  };
  WorkerCounters WorkerNow() {
    std::lock_guard<std::mutex> lock(worker_mu_);
    return worker_;
  }
  std::mutex worker_mu_;
  WorkerCounters worker_;  // guarded by worker_mu_

  // Results.
  std::vector<double> setup_s_;
  std::vector<double> recovery_s_;
  std::vector<double> failover_ms_;
  std::vector<double> replay_ms_;
  std::vector<double> restored_entries_;
  size_t cycles_ = 0;
  size_t kills_ = 0;
  // Failovers the coordinator made that no kill caused, on the measured
  // cluster (a stall of the machine); reported, not failed.
  uint64_t unplanned_failovers_ = 0;

  // Per-layer deltas over the traced phase.
  std::vector<CounterDelta> daemon_delta_;  // geminids, then geminicoordd
  double traced_seconds_ = 0;
  gemini::GeminiClient::Stats client_begin_, client_end_;
  gemini::DataStore::Stats store_begin_, store_end_;
  gemini::RemoteCoordinator::Stats remote_begin_, remote_end_;
  WorkerCounters worker_begin_, worker_end_;
};

// ---- Set-up ------------------------------------------------------------------

bool Bench::SetUp(double* seconds, std::string* error) {
  const auto t0 = SteadyClock::now();
  Cluster::Options copts;
  copts.bin_dir = args_.bin_dir;
  copts.work_dir = args_.work_dir;
  copts.instances = kInstances;
  copts.fragments = kFragments;
  copts.capacity_mb = spec_.capacity_mb;
  live_ = std::make_unique<Live>(copts);
  Live& live = *live_;
  if (!live.cluster.Start(error)) return false;

  live.remote = std::make_unique<gemini::RemoteCoordinator>(
      "127.0.0.1", live.cluster.coord_port(),
      gemini::RemoteCoordinator::Options());
  live.coord = live.remote.get();
  if (!live.pushes.Start(live.cluster.coord_port())) {
    *error = "cannot subscribe to configuration pushes";
    return false;
  }
  for (size_t i = 0; i < kInstances; ++i) {
    live.tcp.push_back(std::make_unique<gemini::TcpCacheBackend>(
        "127.0.0.1", live.cluster.port(i), static_cast<gemini::InstanceId>(i)));
    live.backends.push_back(live.tcp.back().get());
  }
  if (args_.trace) {
    for (size_t i = 0; i < kInstances; ++i) {
      live.traced.push_back(std::make_unique<TracedBackend>(live.tcp[i].get()));
      live.backends[i] = live.traced.back().get();
    }
    live.traced_coord = std::make_unique<TracedCoordinator>(live.remote.get());
    live.coord = live.traced_coord.get();
  }
  while (true) {
    (void)live.remote->Refresh();
    if (AllNormal(live.remote->GetConfiguration())) break;
    if (SecondsSince(t0) > 30) {
      *error = "cluster never converged at bootstrap";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string payload;
  for (size_t k = 0; k < spec_.keys; ++k) {
    const std::string key = KeyName(k);
    Payload(key, 1, args_.seed, spec_.value_bytes, &payload);
    live.store.Put(key, payload);  // a fresh record is version 1
    acked_[k].store(1, std::memory_order_relaxed);
  }

  gemini::GeminiClient::Options opts;
  opts.follow_config_pushes = true;
  for (size_t t = 0; t < spec_.client_threads + spec_.recovery_threads; ++t) {
    live.clients.push_back(std::make_unique<gemini::GeminiClient>(
        &gemini::SystemClock::Global(), live.coord, live.backends, &live.store,
        opts));
  }
  if (!WarmCache()) {
    *error = "cache warm-up saw failed reads";
    return false;
  }
  *seconds = SecondsSince(t0);
  return true;
}

/// Reads the warm key set once through the client, hottest first, split
/// over every benchmark thread. The store has no synthetic latency yet.
bool Bench::WarmCache() {
  const size_t threads = spec_.client_threads + spec_.recovery_threads;
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      gemini::Session session;
      std::string scratch;
      OpOutcome out;
      for (size_t r = t; r < spec_.warm_keys; r += threads) {
        const uint64_t k =
            spec_.warm_keys >= spec_.keys ? r : zipf_.KeyOfRank(r);
        if (!DoRead(*live_->clients[t], session, k, &scratch, &out)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return failed.load() == 0;
}

// ---- Client ops ----------------------------------------------------------------

bool Bench::DoRead(gemini::GeminiClient& client, gemini::Session& session,
                   uint64_t k, std::string* scratch, OpOutcome* out) {
  const std::string key = KeyName(k);
  const gemini::Version floor = acked_[k].load(std::memory_order_acquire);
  const auto t0 = SteadyClock::now();
  gemini::Result<gemini::GeminiClient::ReadResult> r = [&] {
    ScopedSpan span(SpanKind::kClientRead, /*new_op=*/true);
    return client.Read(session, key);
  }();
  out->us = MicrosSince(t0);
  if (!r.ok()) return false;
  out->hit = r->cache_hit;
  const gemini::Version version = r->value.version;
  if (version < floor) {
    audit_.Fail("stale read of " + key + ": version " +
                std::to_string(version) + " < " + std::to_string(floor) +
                " acknowledged before the read");
  }
  Payload(key, PayloadVersion(k, version), args_.seed, spec_.value_bytes,
          scratch);
  if (r->value.data != *scratch) {
    // A write that is still running may be creating more than one version
    // with one payload; wait for it to record that before judging.
    std::lock_guard<std::mutex> lock(write_locks_[k % write_locks_.size()]);
    Payload(key, PayloadVersion(k, version), args_.seed, spec_.value_bytes,
            scratch);
    if (r->value.data != *scratch) {
      audit_.Fail("payload of " + key + " at version " +
                  std::to_string(version) + " differs from the store's");
    }
  }
  return true;
}

gemini::Version Bench::PayloadVersion(uint64_t k, gemini::Version version) {
  if (!has_multi_[k].load(std::memory_order_acquire)) return version;
  std::lock_guard<std::mutex> lock(multi_mu_);
  for (const auto& [first, last] : multi_ranges_[k]) {
    if (first <= version && version <= last) return first;
  }
  return version;
}

bool Bench::DoWrite(gemini::GeminiClient& client, gemini::Session& session,
                    uint64_t k, std::string* scratch, OpOutcome* out) {
  const std::string key = KeyName(k);
  // One writer per key at a time, so the writer knows which versions its
  // write creates and can give them that payload.
  std::unique_lock<std::mutex> lock(write_locks_[k % write_locks_.size()]);
  const auto t0 = SteadyClock::now();
  ScopedSpan span(SpanKind::kClientWrite, /*new_op=*/true);
  while (true) {
    const gemini::Version v = live_->store.VersionOf(key);
    Payload(key, v + 1, args_.seed, spec_.value_bytes, scratch);
    const gemini::Status s = client.Write(session, key, *scratch);
    // GeminiClient re-runs a whole write when the configuration changes
    // under it, so one Write() may create several store versions; all of
    // them carry this payload.
    const gemini::Version now = live_->store.VersionOf(key);
    if (now > v + 1) {
      {
        std::lock_guard<std::mutex> multi(multi_mu_);
        multi_ranges_[k].emplace_back(v + 1, now);
      }
      has_multi_[k].store(true, std::memory_order_release);
      multi_version_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    if (s.code() == Code::kSuspended &&
        SecondsSince(t0) < kWriteDeadlineSeconds) {
      ++out->refused;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lock.lock();
      continue;
    }
    out->us = MicrosSince(t0);
    if (!s.ok()) return false;
    if (now <= v) {
      audit_.Fail("write of " + key + " was acknowledged but not applied");
    }
    acked_[k].store(now, std::memory_order_release);
    return true;
  }
}

void Bench::LoadLoop(size_t tid, ThreadTally* tally) {
  std::mt19937_64 rng(args_.seed * 0x9e3779b97f4a7c15ULL + tid + 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  gemini::GeminiClient& client = *live_->clients[tid];
  gemini::Session session;
  std::string scratch;
  while (!stop_load_.load(std::memory_order_acquire)) {
    const int slot = g_slot.load(std::memory_order_acquire);
    const uint32_t window = g_window.load(std::memory_order_acquire);
    const uint64_t k = zipf_.Next(rng);
    const bool write = coin(rng) < spec_.write_fraction;
    OpOutcome out;
    const bool ok = write ? DoWrite(client, session, k, &scratch, &out)
                          : DoRead(client, session, k, &scratch, &out);
    if (slot == kNone) continue;
    SlotTally& st = tally->slots[slot];
    OpTally& op = write ? st.write : st.read;
    ++op.attempted;
    op.failed += ok ? 0 : 1;
    op.refused += out.refused;
    op.latency_us.push_back(out.us);
    op.window.push_back(window);
    if (ok && out.hit) ++st.hits;
    if (ok) {
      if (st.completed.size() <= window) st.completed.resize(window + 1);
      ++st.completed[window];
    }
  }
}

void Bench::WorkerLoop() {
  gemini::RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;  // gemini-ow: workers stream the WST
  wopts.wst_page_keys = 2048;
  wopts.wst_bytes_per_sec = 32ull << 20;
  gemini::RecoveryWorker worker(&gemini::SystemClock::Global(), live_->coord,
                                live_->backends, wopts);
  gemini::Session session;
  while (!stop_load_.load(std::memory_order_acquire)) {
    std::optional<gemini::FragmentId> adopted;
    {
      ScopedSpan span(SpanKind::kRecoveryAdopt, /*new_op=*/true);
      adopted = worker.TryAdoptFragment(session);
    }
    int64_t busy = 0;
    if (adopted.has_value()) {
      bool done = false;
      while (!done) {
        const auto t0 = SteadyClock::now();
        {
          ScopedSpan span(SpanKind::kRecoveryStep, /*new_op=*/true);
          done = worker.Step(session);
        }
        busy += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - t0)
                    .count();
      }
    }
    {
      std::lock_guard<std::mutex> lock(worker_mu_);
      worker_.stats = worker.stats();
      ++worker_.adopt_calls;
      worker_.adopts += adopted.has_value() ? 1 : 0;
      worker_.busy_ns += busy;
    }
    if (!adopted.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void Bench::StartLoad() {
  stop_load_.store(false);
  tallies_.assign(spec_.client_threads, ThreadTally());
  for (size_t t = 0; t < spec_.client_threads; ++t) {
    threads_.emplace_back([this, t] { LoadLoop(t, &tallies_[t]); });
  }
  for (size_t t = 0; t < spec_.recovery_threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void Bench::StopLoad() {
  g_slot.store(kNone, std::memory_order_release);
  stop_load_.store(true, std::memory_order_release);
  for (auto& th : threads_) th.join();
  threads_.clear();
}

double Bench::Measure(Slot slot, double seconds) {
  auto after = [](SteadyClock::time_point t, double s) {
    return t + std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(s));
  };
  std::vector<double>& windows = window_seconds_[slot];
  const auto t0 = SteadyClock::now();
  const auto stop = after(t0, seconds);
  g_window.store(static_cast<uint32_t>(windows.size()),
                 std::memory_order_release);
  g_slot.store(slot, std::memory_order_release);
  for (auto start = t0; start < stop;) {
    std::this_thread::sleep_until(std::min(after(start, kWindowSeconds), stop));
    const auto now = SteadyClock::now();
    windows.push_back(std::chrono::duration<double>(now - start).count());
    g_window.store(static_cast<uint32_t>(windows.size()),
                   std::memory_order_release);
    start = now;
  }
  g_slot.store(kNone, std::memory_order_release);
  const double wall = SecondsSince(t0);
  slot_seconds_[slot] += wall;
  return wall;
}

bool Bench::WaitAllNormal() {
  const auto t0 = SteadyClock::now();
  while (!AllNormal(live_->remote->GetConfiguration())) {
    if (SecondsSince(t0) > kSettleSeconds) return false;
    (void)live_->remote->Refresh();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---- kStats scraping -----------------------------------------------------------

bool Bench::ScrapeDaemon(size_t d, Counters* out) {
  const bool coordd = d == kInstances;
  const bool ok =
      coordd ? ScrapeStats(live_->cluster.coord_port(),
                           gemini::wire::kAnyInstance, out)
             : ScrapeStats(live_->cluster.port(d),
                           static_cast<gemini::InstanceId>(d), out);
  if (!ok) audit_.Fail("kStats scrape of daemon " + std::to_string(d) + " failed");
  return ok;
}

void Bench::ScrapeBegin() {
  daemon_delta_.assign(kInstances + 1, CounterDelta());
  for (size_t d = 0; d <= kInstances; ++d) {
    Counters c;
    if (ScrapeDaemon(d, &c)) daemon_delta_[d].Begin(c);
  }
  client_begin_ = live_->ClientStats();
  store_begin_ = live_->store.stats();
  remote_begin_ = live_->remote->stats();
  worker_begin_ = WorkerNow();
}

void Bench::ScrapeFold(size_t d) {
  Counters c;
  if (ScrapeDaemon(d, &c)) daemon_delta_[d].Fold(c);
}

void Bench::ScrapeEnd() {
  if (daemon_delta_.empty()) return;
  for (size_t d = 0; d <= kInstances; ++d) ScrapeFold(d);
  client_end_ = live_->ClientStats();
  store_end_ = live_->store.stats();
  remote_end_ = live_->remote->stats();
  worker_end_ = WorkerNow();
}

// ---- Crash cycles --------------------------------------------------------------

bool Bench::CrashCycles(double seconds) {
  const auto start = SteadyClock::now();
  size_t victim = 0;
  while (cycles_ == 0 || SecondsSince(start) < seconds) {
    Measure(args_.trace ? kTracedSteady : kSteady, kCycleSteadySeconds);
    if (!CrashCycle(victim, kTransientSeconds, /*under_load=*/true)) {
      return false;
    }
    ++cycles_;
    victim = (victim + 1) % kInstances;
  }
  return true;
}

bool Bench::RestartProbe() {
  StopLoad();
  stop_load_.store(false);
  threads_.emplace_back([this] { WorkerLoop(); });
  bool ok = true;
  for (size_t i = 0; ok && i < kProbeCycles; ++i) {
    ok = CrashCycle(i % kInstances, 0, /*under_load=*/false);
  }
  StopLoad();
  return ok;
}

bool Bench::CrashCycle(size_t victim, double transient_s, bool under_load) {
  gemini::RemoteCoordinator& remote = *live_->remote;
  if (!WaitAllNormal()) {
    audit_.Fail("cluster not normal before a kill");
    return false;
  }
  // Fragments the victim is primary for must each go normal -> transient ->
  // recovery -> normal in the coordinator's configurations.
  const gemini::ConfigurationPtr before = remote.GetConfiguration();
  std::vector<gemini::FragmentId> owned;
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    if (before->fragment(f).primary == victim) owned.push_back(f);
  }
  if (owned.empty()) {
    audit_.Fail("victim owns no fragment");
    return false;
  }
  const size_t pushes_before = live_->pushes.size();

  const bool traced = daemon_delta_.size() > victim && Tracer::enabled();
  if (traced) ScrapeFold(victim);
  if (under_load) {
    // Each cycle is one measurement window of the kWindow slot.
    g_window.store(static_cast<uint32_t>(window_seconds_[kWindow].size()),
                   std::memory_order_release);
    g_slot.store(kWindow, std::memory_order_release);
  }
  const auto t_kill = SteadyClock::now();
  live_->cluster.Kill(victim);
  ++kills_;
  if (traced) daemon_delta_[victim].Restarted();

  // Failover, then a transient phase of `transient_s` before the respawn.
  double failover_ms = -1;
  while (failover_ms < 0 ||
         SecondsSince(t_kill) < failover_ms / 1e3 + transient_s) {
    if (failover_ms < 0 && remote.latest_id() > before->id()) {
      failover_ms = SecondsSince(t_kill) * 1e3;
    }
    if (SecondsSince(t_kill) > 30) {
      audit_.Fail("coordinator never failed over the killed instance");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  failover_ms_.push_back(failover_ms);

  const auto t_respawn = SteadyClock::now();
  std::string error;
  if (!live_->cluster.Respawn(victim, &error)) {
    audit_.Fail("respawn failed: " + error);
    return false;
  }
  bool scraped = false;
  while (true) {
    // The victim's replay figures. Its connection may still be failing
    // fast (circuit breaker) from the outage, so keep asking while waiting.
    if (!scraped) {
      Counters after;
      scraped = ScrapeStats(live_->cluster.port(victim),
                            static_cast<gemini::InstanceId>(victim), &after);
      if (scraped) {
        replay_ms_.push_back(
            static_cast<double>(after["persist.replay_micros"]) / 1e3);
        restored_entries_.push_back(
            static_cast<double>(after["persist.restored_entries"]));
      }
    }
    const gemini::ConfigurationPtr config = remote.GetConfiguration();
    if (AllNormal(config) && scraped) break;
    if (SecondsSince(t_respawn) > 60) {
      audit_.Fail("fragments never all returned to normal");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g_slot.store(kNone, std::memory_order_release);
  recovery_s_.push_back(SecondsSince(t_respawn));
  if (under_load) {
    slot_seconds_[kWindow] += SecondsSince(t_kill);
    window_seconds_[kWindow].push_back(SecondsSince(t_kill));
  }

  return CheckModeCycle(before, owned, pushes_before);
}

bool Bench::CheckModeCycle(const gemini::ConfigurationPtr& before,
                           const std::vector<gemini::FragmentId>& owned,
                           size_t pushes_before) {
  // The push carrying the all-normal configuration may reach the log a
  // moment after the client adopted it.
  std::vector<gemini::ConfigurationPtr> log;
  const auto t0 = SteadyClock::now();
  while (true) {
    log = live_->pushes.Since(pushes_before);
    if (!log.empty() && AllNormal(log.back())) break;
    if (SecondsSince(t0) > 5) {
      audit_.Fail("no all-normal configuration was pushed after recovery");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  log.insert(log.begin(), before);
  const gemini::FragmentMode want[] = {
      gemini::FragmentMode::kNormal, gemini::FragmentMode::kTransient,
      gemini::FragmentMode::kRecovery, gemini::FragmentMode::kNormal};
  for (const gemini::FragmentId f : owned) {
    size_t matched = 0;
    std::string path;
    for (const gemini::ConfigurationPtr& config : log) {
      if (config->num_fragments() != kFragments) continue;
      const gemini::FragmentMode m = config->fragment(f).mode;
      if (matched < std::size(want) && m == want[matched]) ++matched;
      path += std::string(gemini::FragmentModeName(m)) + " ";
    }
    if (matched != std::size(want)) {
      audit_.Fail("fragment " + std::to_string(f) +
                  " did not go normal->transient->recovery->normal (saw " +
                  path + ")");
    }
  }
  return true;
}

// ---- The run -------------------------------------------------------------------

int Bench::Run() {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "client_threads=%zu recovery_threads=%zu\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0, spec_.client_threads,
              spec_.recovery_threads);
  std::printf("  why: %s\n", spec_.why);

  // Set up kSetups times; the last cluster is the one measured.
  for (int i = 0; i < kSetups; ++i) {
    live_.reset();
    double seconds = 0;
    std::string error;
    if (!SetUp(&seconds, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s_.push_back(seconds);
  }
  if (audit_.failures() != 0) return 1;

  live_->store.set_synthetic_latency(kStoreLatencyUs);
  StartLoad();
  SleepSeconds(kWarmSeconds);  // connections, allocator, LRU settle

  bool completed = true;
  if (spec_.kind == WorkloadKind::kCrashRecovery) {
    if (args_.trace) {
      Measure(kSteady, kTracedBaselineSeconds);
      Tracer::SetEnabled(true);
      ScrapeBegin();
    }
    const auto t0 = SteadyClock::now();
    completed = CrashCycles(args_.seconds);
    if (args_.trace) {
      traced_seconds_ = SecondsSince(t0);
      ScrapeEnd();
      Tracer::SetEnabled(false);
    }
  } else if (args_.trace) {
    Measure(kSteady, args_.seconds / 2);
    Tracer::SetEnabled(true);
    ScrapeBegin();
    traced_seconds_ = Measure(kTracedSteady, args_.seconds / 2);
    ScrapeEnd();
    Tracer::SetEnabled(false);
  } else {
    Measure(kSteady, args_.seconds);
  }
  if (completed && spec_.kind != WorkloadKind::kCrashRecovery) {
    completed = RestartProbe();
  }
  StopLoad();
  Counters coordd;
  if (ScrapeStats(live_->cluster.coord_port(), gemini::wire::kAnyInstance,
                  &coordd)) {
    const uint64_t failovers = coordd["cluster.failures_detected"];
    unplanned_failovers_ = failovers > kills_ ? failovers - kills_ : 0;
  }

  const bool ok = Emit(completed);
  live_.reset();
  return ok ? 0 : 1;
}

// ---- Reporting -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of `v`, interpolating between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank index (1-based) of the q-quantile of n samples.
size_t Rank(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

/// The q-quantile (nearest rank) of a non-empty `v`; reorders `v`.
double Percentile(std::vector<float>& v, double q) {
  const size_t rank = Rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

SlotTally MergedSlot(const std::vector<ThreadTally>& tallies, int slot) {
  SlotTally out;
  for (const ThreadTally& t : tallies) out.Merge(t.slots[slot]);
  return out;
}

void PrintOps(const char* what, const OpTally& op) {
  std::printf("  %-6s attempted %llu, failed %llu (%.4f%%), suspended-and-"
              "retried %llu\n",
              what, static_cast<unsigned long long>(op.attempted),
              static_cast<unsigned long long>(op.failed),
              100.0 * Ratio(static_cast<double>(op.failed),
                            static_cast<double>(op.attempted)),
              static_cast<unsigned long long>(op.refused));
}

void Bench::EmitEndToEnd(MetricMap* m) {
  const int slot =
      spec_.kind == WorkloadKind::kCrashRecovery ? kWindow : kSteady;
  SlotTally st = MergedSlot(tallies_, slot);
  const double seconds = slot_seconds_[slot];
  const std::vector<double>& windows = window_seconds_[slot];
  const uint64_t reads_ok = st.read.attempted - st.read.failed;
  const uint64_t writes_ok = st.write.attempted - st.write.failed;
  std::printf("  end-to-end over %.3f s in %zu windows (%s):\n", seconds,
              windows.size(),
              slot == kWindow ? "one per kill -> all-normal cycle"
                              : "of 1 s");
  for (auto [what, v] : {std::pair{"read", &st.read.latency_us},
                         {"write", &st.write.latency_us}}) {
    std::vector<float> sorted = *v;
    std::sort(sorted.begin(), sorted.end());
    std::printf("  %-5s latency ladder (us):", what);
    for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
      if (sorted.empty()) break;
      std::printf(" p%g=%.0f", q * 100, sorted[Rank(sorted.size(), q) - 1]);
    }
    std::printf("\n");
  }
  // Each figure is taken per window and reported from the fast quartile of
  // the windows: the lower quartile of the windows' latencies, the upper
  // quartile of their throughputs. Other tenants of a shared machine only
  // ever slow a window down, and their slow stretches last seconds, longer
  // than a median over the windows can absorb. A window's percentile counts
  // only with at least ten samples beyond it, and a figure needs such a
  // percentile in at least half the windows.
  auto latency = [&](const char* name, const OpTally& op, double q) {
    std::vector<std::vector<float>> per_window(windows.size());
    for (size_t i = 0; i < op.latency_us.size(); ++i) {
      if (op.window[i] < windows.size()) {
        per_window[op.window[i]].push_back(op.latency_us[i]);
      }
    }
    std::vector<double> values;
    size_t samples = 0, beyond = 0;
    for (std::vector<float>& v : per_window) {
      const size_t n = v.size();
      if (n == 0 || n - Rank(n, q) < 10) continue;
      values.push_back(Percentile(v, q));
      samples += n;
      beyond += n - Rank(n, q);
    }
    if (values.empty() || 2 * values.size() < windows.size()) {
      audit_.Fail(std::string(name) + " has fewer than ten samples beyond it" +
                  " in " + std::to_string(windows.size() - values.size()) +
                  " of " + std::to_string(windows.size()) + " windows");
      return;
    }
    const double p = Quantile(values, kFastLatencyQuantile);
    (*m)[name] = {p, "us"};
    std::printf("  %-14s %12.3f us   (lower quartile of %zu windows; n=%zu, "
                "%zu beyond)\n",
                name, p, values.size(), samples, beyond);
  };
  latency("read_p50_us", st.read, 0.50);
  latency("write_p50_us", st.write, 0.50);
  // The p99s are only in the ladders above, not in the result: they follow
  // the shared disk's fsync tail (each write waits for two eager fsyncs, and
  // a read on churn_write waits for writes' leases). Over ten seeds the read
  // p99 spread 51% on churn_write, the write p99 15-35% on hot_read.
  std::vector<double> rates;
  for (size_t w = 0; w < windows.size(); ++w) {
    const uint64_t done = w < st.completed.size() ? st.completed[w] : 0;
    rates.push_back(Ratio(static_cast<double>(done), windows[w]));
  }
  const double ops = Quantile(rates, kFastRateQuantile);
  (*m)["ops_per_s"] = {ops, "ops/s"};
  std::printf("  ops/s per window:");
  for (const double r : rates) std::printf(" %.0f", r);
  std::printf("\n");
  std::printf("  %-14s %12.1f ops/s (upper quartile of %zu windows; %llu "
              "ops, %zu client threads)\n",
              "ops_per_s", ops, rates.size(),
              static_cast<unsigned long long>(reads_ok + writes_ok),
              spec_.client_threads);
  const double hit = Ratio(static_cast<double>(st.hits),
                           static_cast<double>(reads_ok));
  (*m)["hit_ratio"] = {hit, "fraction"};
  std::printf("  %-14s %12.4f       (%llu hits / %llu reads)\n", "hit_ratio",
              hit, static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(reads_ok));
  // A mean, not a median: the coordinator acts on heartbeat ticks, so cycle
  // times fall into modes ~50 ms apart and a median flips between them.
  const double recovery_s = Mean(recovery_s_);
  (*m)["recovery_s"] = {recovery_s, "s"};
  std::printf("  %-14s %12.4f s     (mean of %zu cycles, respawn -> all "
              "fragments normal, %s)\n",
              "recovery_s", recovery_s, recovery_s_.size(),
              spec_.kind == WorkloadKind::kCrashRecovery
                  ? "under load"
                  : "after the load stopped");
  (*m)["setup_s"] = {Median(setup_s_), "s"};
  std::printf("  %-14s %12.4f s     (median of %zu set-ups)\n", "setup_s",
              Median(setup_s_), setup_s_.size());
}

void Bench::EmitPerLayer(MetricMap* m) {
  const std::vector<Span> spans = Tracer::Collect();
  if (!args_.spans_out.empty() && !Tracer::WriteCsv(spans, args_.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args_.spans_out.c_str());
  }

  // Spans per kind and self time per layer.
  constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
  std::vector<std::vector<float>> dur_us(kKinds);
  std::vector<double> busy_ms(kKinds, 0);
  std::map<Layer, double> self_ms;
  uint64_t client_ops = 0, client_backend_calls = 0;
  uint64_t lease_calls = 0, backoffs = 0;
  std::unordered_set<uint64_t> client_op_ids;
  for (const Span& s : spans) {
    const size_t k = static_cast<size_t>(s.kind);
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    dur_us[k].push_back(static_cast<float>(d / 1e3));
    busy_ms[k] += d / 1e6;
    self_ms[LayerOf(s.kind)] += static_cast<double>(s.self_ns) / 1e6;
    if (s.kind == SpanKind::kClientRead || s.kind == SpanKind::kClientWrite) {
      ++client_ops;
      client_op_ids.insert(s.op_id);
    }
    if (s.kind == SpanKind::kIqGet || s.kind == SpanKind::kQareg ||
        s.kind == SpanKind::kAcquireRed) {
      ++lease_calls;
      backoffs += s.backoff ? 1 : 0;
    }
  }
  for (const Span& s : spans) {
    if (LayerOf(s.kind) == Layer::kBackend && client_op_ids.count(s.op_id)) {
      ++client_backend_calls;
    }
  }
  const SpanKind named[] = {
      SpanKind::kIqGet,  SpanKind::kIqSet,          SpanKind::kQareg,
      SpanKind::kDar,    SpanKind::kGet,            SpanKind::kMultiGet,
      SpanKind::kSet,    SpanKind::kAppend,         SpanKind::kWorkingSetScan,
      SpanKind::kAcquireRed};
  for (const SpanKind kind : named) {
    const size_t k = static_cast<size_t>(kind);
    const std::string base = std::string("backend.") + SpanKindName(kind);
    (*m)[base + ".calls"] = {static_cast<double>(dur_us[k].size()), "count"};
    std::vector<float> d = dur_us[k];
    (*m)[base + ".p50_us"] = {d.empty() ? 0.0 : Percentile(d, 0.5), "us"};
    (*m)[base + ".busy_ms"] = {busy_ms[k], "ms"};
  }
  (*m)["backend.other.calls"] = {
      static_cast<double>(dur_us[static_cast<size_t>(SpanKind::kBackendOther)].size()),
      "count"};
  (*m)["backend.calls_per_client_op"] = {
      Ratio(static_cast<double>(client_backend_calls),
            static_cast<double>(client_ops)),
      "ratio"};
  (*m)["backend.backoff_ratio"] = {
      Ratio(static_cast<double>(backoffs), static_cast<double>(lease_calls)),
      "ratio"};
  (*m)["client.self_ms"] = {self_ms[Layer::kClient], "ms"};
  (*m)["backend.self_ms"] = {self_ms[Layer::kBackend], "ms"};
  (*m)["coord.self_ms"] = {self_ms[Layer::kCoord], "ms"};
  (*m)["recovery.self_ms"] = {self_ms[Layer::kRecovery], "ms"};
  (*m)["coord.get_configuration.calls"] = {
      static_cast<double>(
          dur_us[static_cast<size_t>(SpanKind::kCoordGetConfiguration)].size()),
      "count"};
  (*m)["trace.spans"] = {static_cast<double>(spans.size()), "count"};

  // GeminiClient, DataStore, RemoteCoordinator.
  const double reads =
      static_cast<double>(client_end_.reads - client_begin_.reads);
  // Write() calls that were not refused with kSuspended (a refused call
  // touches neither the store nor the WAL).
  const double writes =
      static_cast<double>((client_end_.writes - client_begin_.writes) -
                          (client_end_.suspended_writes -
                           client_begin_.suspended_writes));
  (*m)["client.store_reads_per_read"] = {
      Ratio(static_cast<double>(client_end_.store_reads -
                                client_begin_.store_reads),
            reads),
      "ratio"};
  auto count = [&](const char* name, uint64_t end, uint64_t begin) {
    (*m)[name] = {static_cast<double>(end - begin), "count"};
  };
  count("client.suspended_writes", client_end_.suspended_writes,
        client_begin_.suspended_writes);
  count("client.dirty_hits", client_end_.dirty_hits, client_begin_.dirty_hits);
  (*m)["store.queries_per_read"] = {
      Ratio(static_cast<double>(store_end_.queries - store_begin_.queries),
            reads),
      "ratio"};
  (*m)["store.updates_per_write"] = {
      Ratio(static_cast<double>(store_end_.updates - store_begin_.updates),
            writes),
      "ratio"};
  count("coord.endpoint_switches", remote_end_.endpoint_switches,
        remote_begin_.endpoint_switches);
  count("coord.not_master_bounces", remote_end_.not_master_bounces,
        remote_begin_.not_master_bounces);
  (*m)["cluster.config_changes"] = {
      static_cast<double>(live_->traced_coord->config_changes()), "count"};
  (*m)["cluster.failover_ms"] = {Median(failover_ms_), "ms"};

  // Daemon counters (kStats deltas over the traced phase).
  auto sum = [&](const char* name) {
    double total = 0;
    for (size_t d = 0; d < kInstances; ++d) {
      total += static_cast<double>(daemon_delta_[d].Get(name));
    }
    return total;
  };
  const double client_ops_done = reads + writes;
  (*m)["transport.frames_per_flush"] = {
      Ratio(sum("transport.frames_flushed"), sum("transport.flush_calls")),
      "ratio"};
  (*m)["transport.sendmsg_per_client_op"] = {
      Ratio(sum("transport.sendmsg_calls"), client_ops_done), "ratio"};
  const double hits = sum("cache.hits"), misses = sum("cache.misses");
  (*m)["cache.server_hit_ratio"] = {Ratio(hits, hits + misses), "fraction"};
  (*m)["cache.evictions"] = {sum("cache.evictions"), "count"};
  (*m)["cache.config_discards"] = {sum("cache.config_discards"), "count"};
  (*m)["persist.wal_bytes_per_write"] = {
      Ratio(sum("persist.appended_bytes"), writes), "B/write"};
  (*m)["persist.journal_commits_per_s"] = {
      Ratio(sum("persist.journal_commits"), traced_seconds_), "1/s"};
  (*m)["persist.replay_ms"] = {Median(replay_ms_), "ms"};
  (*m)["persist.restored_entries"] = {Median(restored_entries_), "count"};
  (*m)["coordd.frames_handled"] = {
      static_cast<double>(daemon_delta_[kInstances].Get("server.frames_handled")),
      "count"};

  // Recovery workers.
  const auto& wb = worker_begin_;
  const auto& we = worker_end_;
  const double adopts = static_cast<double>(we.adopts - wb.adopts);
  const double recovered = static_cast<double>(
      we.stats.fragments_recovered - wb.stats.fragments_recovered);
  const double wst_done =
      static_cast<double>(we.stats.wst_completed - wb.stats.wst_completed);
  (*m)["recovery.busy_ms"] = {static_cast<double>(we.busy_ns - wb.busy_ns) / 1e6,
                              "ms"};
  count("recovery.adopt_calls", we.adopt_calls, wb.adopt_calls);
  (*m)["recovery.adopts"] = {adopts, "count"};
  (*m)["recovery.fragments_recovered"] = {recovered, "count"};
  count("recovery.fragments_abandoned", we.stats.fragments_abandoned,
        wb.stats.fragments_abandoned);
  (*m)["recovery.useful_adopt_ratio"] = {Ratio(recovered + wst_done, adopts),
                                         "ratio"};
  count("recovery.keys_overwritten", we.stats.keys_overwritten,
        wb.stats.keys_overwritten);
  count("recovery.wst_keys_copied", we.stats.wst_keys_copied,
        wb.stats.wst_keys_copied);
  count("recovery.wst_keys_skipped", we.stats.wst_keys_skipped,
        wb.stats.wst_keys_skipped);
  count("recovery.redlease_conflicts", we.stats.redlease_conflicts,
        wb.stats.redlease_conflicts);

  // Tracing overhead: the same load untraced, then traced.
  auto ops_per_s = [&](int slot) {
    const SlotTally st = MergedSlot(tallies_, slot);
    return Ratio(static_cast<double>(st.read.attempted - st.read.failed +
                                     st.write.attempted - st.write.failed),
                 slot_seconds_[slot]);
  };
  const double untraced_ops = ops_per_s(kSteady);
  const double traced_ops = ops_per_s(kTracedSteady);
  (*m)["trace.overhead_ratio"] = {Ratio(untraced_ops, traced_ops), "ratio"};

  std::printf("  per-layer over the traced %.3f s (%zu spans, %.0f client ops"
              " traced):\n",
              traced_seconds_, spans.size(), client_ops_done);
  std::printf("    tracing overhead: %.1f ops/s untraced vs %.1f ops/s traced "
              "(ratio %.4f)\n",
              untraced_ops, traced_ops, Ratio(untraced_ops, traced_ops));
  std::printf("    bases: %.0f reads, %.0f writes, %.0f server lookups, "
              "%.0f flushes, %.0f lease-taking calls, %.0f adopts\n",
              reads, writes, hits + misses, sum("transport.flush_calls"),
              static_cast<double>(lease_calls), adopts);
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

bool Bench::Emit(bool completed) {
  struct utsname u;
  ::uname(&u);
  std::printf("  machine: nproc=%u kernel=%s io_backend=%s store_rtt=%lldus "
              "wal=on (both geminids)\n",
              std::thread::hardware_concurrency(), u.release,
              live_->cluster.io_backend().c_str(),
              static_cast<long long>(kStoreLatencyUs));
  std::printf("  crash cycles: %zu under load, %zu in total (failover "
              "median %.1f ms, victim replay median %.1f ms)\n",
              cycles_, recovery_s_.size(), Median(failover_ms_),
              Median(replay_ms_));
  std::printf("  unplanned failovers (no kill caused them): %llu\n",
              static_cast<unsigned long long>(unplanned_failovers_));

  uint64_t attempted = 0, failed = 0;
  for (int slot = 0; slot < kSlots; ++slot) {
    const SlotTally st = MergedSlot(tallies_, slot);
    if (st.read.attempted + st.write.attempted == 0) continue;
    static const char* kNames[] = {"steady", "traced", "crash-window"};
    std::printf("  [%s slot, %.3f s]\n", kNames[slot], slot_seconds_[slot]);
    PrintOps("read", st.read);
    PrintOps("write", st.write);
    attempted += st.read.attempted + st.write.attempted;
    failed += st.read.failed + st.write.failed;
  }
  std::printf("  writes that created more than one store version: %llu\n",
              static_cast<unsigned long long>(multi_version_writes_.load()));
  std::printf("  failed share: %llu / %llu = %.6f\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));

  MetricMap m;
  if (args_.trace) {
    EmitPerLayer(&m);
  } else {
    EmitEndToEnd(&m);
  }
  const bool ok = completed && audit_.failures() == 0 && attempted > 0;
  std::printf("  audit: %llu violation(s)\n",
              static_cast<unsigned long long>(audit_.failures()));

  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(value.first) +
            ", \"unit\": \"" + value.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok;
}

void OnSignal(int sig) {
  KillAllChildren();
  ::_exit(128 + sig);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGHUP, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::atexit(KillAllChildren);

  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Bench bench(args, spec);
  return bench.Run();
}
