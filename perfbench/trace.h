// Tracing for the benchmark's traced run, recorded entirely from outside
// the program: decorators around each layer's public interface.
//
//  - TracedBackend wraps a CacheBackend (here a TcpCacheBackend, so a span
//    covers client-side encoding, the loopback round trip, and the server's
//    cache + lease work).
//  - TracedCoordinator wraps a CoordinatorService (the RemoteCoordinator).
//  - The driver opens root spans around GeminiClient::Read/Write and around
//    RecoveryWorker::TryAdoptFragment/Step with ScopedOp.
//
// Every span carries the id of the client op (or recovery call) that caused
// it and the id of its parent span. Spans go to a per-thread buffer, so
// recording takes no lock; nothing is written until the run ends. A span's
// self time is its duration minus the time covered by its children, so the
// client layer's self time is what GeminiClient spends outside the cache
// and coordinator calls — chiefly the data store round trips, which have no
// interface to wrap.
//
// Tracing is off until Tracer::SetEnabled(true); a disabled span costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/coordinator/coordinator_service.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  // Root spans opened by the driver.
  kClientRead,
  kClientWrite,
  kRecoveryAdopt,
  kRecoveryStep,
  // CacheBackend calls.
  kIqGet,
  kIqSet,
  kQareg,
  kDar,
  kGet,
  kMultiGet,
  kSet,
  kAppend,
  kWorkingSetScan,
  kAcquireRed,
  kBackendOther,  // every other CacheBackend op
  // CoordinatorService calls.
  kCoordGetConfiguration,
  kCoordLatestId,
  kCoordOther,
  kCount,
};

const char* SpanKindName(SpanKind kind);

enum class Layer : uint8_t { kClient, kRecovery, kBackend, kCoord };
Layer LayerOf(SpanKind kind);

struct Span {
  uint64_t op_id = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
  SpanKind kind = SpanKind::kCount;
  bool backoff = false;  // the call answered kBackoff
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Every span recorded so far, from all threads. Call only once the
  /// recording threads have stopped.
  static std::vector<Span> Collect();
  /// Writes the spans as CSV (op_id,id,parent,kind,start_ns,end_ns,self_ns).
  static bool WriteCsv(const std::vector<Span>& spans, const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// Opens a span on construction and closes it on destruction. With
/// `new_op`, the span starts a new client op (or recovery call) id on this
/// thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, bool new_op = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_backoff() { backoff_ = true; }

 private:
  bool active_ = false;
  bool backoff_ = false;
};

/// CacheBackend decorator: one span per call.
class TracedBackend final : public gemini::CacheBackend {
 public:
  explicit TracedBackend(gemini::CacheBackend* inner) : inner_(inner) {}

  [[nodiscard]] gemini::InstanceId id() const override { return inner_->id(); }
  gemini::Result<gemini::CacheValue> Get(const gemini::OpContext& ctx,
                                         std::string_view key) override;
  std::vector<gemini::Result<gemini::CacheValue>> MultiGet(
      const std::vector<gemini::GetRequest>& reqs) override;
  gemini::Result<gemini::IqGetResult> IqGet(const gemini::OpContext& ctx,
                                            std::string_view key) override;
  gemini::Status IqSet(const gemini::OpContext& ctx, std::string_view key,
                       gemini::CacheValue value,
                       gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> Qareg(const gemini::OpContext& ctx,
                                           std::string_view key) override;
  gemini::Status Dar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::LeaseToken token) override;
  gemini::Status Rar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value,
                     gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> ISet(const gemini::OpContext& ctx,
                                          std::string_view key) override;
  gemini::Status IDelete(const gemini::OpContext& ctx, std::string_view key,
                         gemini::LeaseToken token) override;
  gemini::Status Delete(const gemini::OpContext& ctx,
                        std::string_view key) override;
  gemini::Status Set(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value) override;
  std::vector<gemini::Status> MultiSet(
      std::vector<gemini::SetRequest> reqs) override;
  std::vector<gemini::Status> MultiDelete(
      const std::vector<gemini::DeleteRequest>& reqs) override;
  gemini::Status Cas(const gemini::OpContext& ctx, std::string_view key,
                     gemini::Version expected,
                     gemini::CacheValue value) override;
  gemini::Status WriteBackInstall(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::CacheValue value,
                                  gemini::LeaseToken token) override;
  gemini::Status Append(const gemini::OpContext& ctx, std::string_view key,
                        std::string_view data) override;
  gemini::Result<gemini::WorkingSetPage> WorkingSetScan(
      const gemini::OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
      uint32_t max_keys) override;
  gemini::Result<gemini::LeaseToken> AcquireRed(std::string_view key) override;
  gemini::Status ReleaseRed(std::string_view key,
                            gemini::LeaseToken token) override;
  gemini::Status RenewRed(std::string_view key,
                          gemini::LeaseToken token) override;

 private:
  gemini::CacheBackend* inner_;
};

/// CoordinatorService decorator: one span per call, plus the number of
/// distinct configuration ids handed out while tracing was on.
class TracedCoordinator final : public gemini::CoordinatorService {
 public:
  explicit TracedCoordinator(gemini::CoordinatorService* inner)
      : inner_(inner) {}

  [[nodiscard]] gemini::ConfigurationPtr GetConfiguration() const override;
  [[nodiscard]] gemini::ConfigId latest_id() const override;
  void OnDirtyListProcessed(gemini::FragmentId fragment) override;
  void OnWorkingSetTransferTerminated(gemini::FragmentId fragment) override;
  void OnDirtyListUnavailable(gemini::FragmentId fragment) override;
  [[nodiscard]] bool DirtyProcessed(gemini::FragmentId fragment) const override;

  [[nodiscard]] uint64_t config_changes() const {
    return config_changes_.load(std::memory_order_relaxed);
  }

 private:
  gemini::CoordinatorService* inner_;
  mutable std::atomic<gemini::ConfigId> last_seen_{0};
  mutable std::atomic<uint64_t> config_changes_{0};
};

}  // namespace perfbench
