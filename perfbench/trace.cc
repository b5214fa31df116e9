#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

using gemini::Code;

struct ThreadBuffer {
  uint64_t thread_no = 0;
  uint64_t op_id = 0;
  std::vector<Span> spans;
  struct Open {
    size_t index;
    int64_t child_ns;
  };
  std::vector<Open> stack;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu
std::atomic<uint64_t> g_next_op{1};
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread_no = g_buffers.size();
    t_buffer->spans.reserve(1 << 16);
  }
  return *t_buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `call` under a span of `kind`, flagging a kBackoff answer.
template <typename Call>
auto Traced(SpanKind kind, Call&& call) {
  ScopedSpan span(kind);
  auto result = call();
  if (result.code() == Code::kBackoff) span.set_backoff();
  return result;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRead: return "client.read";
    case SpanKind::kClientWrite: return "client.write";
    case SpanKind::kRecoveryAdopt: return "recovery.adopt";
    case SpanKind::kRecoveryStep: return "recovery.step";
    case SpanKind::kIqGet: return "iqget";
    case SpanKind::kIqSet: return "iqset";
    case SpanKind::kQareg: return "qareg";
    case SpanKind::kDar: return "dar";
    case SpanKind::kGet: return "get";
    case SpanKind::kMultiGet: return "multiget";
    case SpanKind::kSet: return "set";
    case SpanKind::kAppend: return "append";
    case SpanKind::kWorkingSetScan: return "working_set_scan";
    case SpanKind::kAcquireRed: return "acquire_red";
    case SpanKind::kBackendOther: return "other";
    case SpanKind::kCoordGetConfiguration: return "coord.get_configuration";
    case SpanKind::kCoordLatestId: return "coord.latest_id";
    case SpanKind::kCoordOther: return "coord.other";
    case SpanKind::kCount: break;
  }
  return "?";
}

Layer LayerOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRead:
    case SpanKind::kClientWrite:
      return Layer::kClient;
    case SpanKind::kRecoveryAdopt:
    case SpanKind::kRecoveryStep:
      return Layer::kRecovery;
    case SpanKind::kCoordGetConfiguration:
    case SpanKind::kCoordLatestId:
    case SpanKind::kCoordOther:
      return Layer::kCoord;
    default:
      return Layer::kBackend;
  }
}

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> out;
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

bool Tracer::WriteCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op_id,id,parent,kind,start_ns,end_ns,self_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.op_id),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, bool new_op) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buf = Buffer();
  // A child span needs an open root on this thread; calls made outside a
  // traced op (e.g. the op began before tracing was switched on) are not
  // recorded, so every recorded span belongs to exactly one op.
  if (!new_op && buf.stack.empty()) return;
  if (new_op) buf.op_id = g_next_op.fetch_add(1, std::memory_order_relaxed);
  Span span;
  span.op_id = buf.op_id;
  span.id = (buf.thread_no << 40) | (buf.spans.size() + 1);
  span.parent = buf.stack.empty() ? 0 : buf.spans[buf.stack.back().index].id;
  span.kind = kind;
  span.start_ns = NowNs();
  buf.stack.push_back({buf.spans.size(), 0});
  buf.spans.push_back(span);
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadBuffer& buf = Buffer();
  const ThreadBuffer::Open open = buf.stack.back();
  buf.stack.pop_back();
  Span& span = buf.spans[open.index];
  span.end_ns = NowNs();
  const int64_t duration = span.end_ns - span.start_ns;
  span.self_ns = duration - open.child_ns;
  span.backoff = backoff_;
  if (!buf.stack.empty()) buf.stack.back().child_ns += duration;
}

// ---- TracedBackend ----------------------------------------------------------

gemini::Result<gemini::CacheValue> TracedBackend::Get(
    const gemini::OpContext& ctx, std::string_view key) {
  return Traced(SpanKind::kGet, [&] { return inner_->Get(ctx, key); });
}

std::vector<gemini::Result<gemini::CacheValue>> TracedBackend::MultiGet(
    const std::vector<gemini::GetRequest>& reqs) {
  ScopedSpan span(SpanKind::kMultiGet);
  return inner_->MultiGet(reqs);
}

gemini::Result<gemini::IqGetResult> TracedBackend::IqGet(
    const gemini::OpContext& ctx, std::string_view key) {
  return Traced(SpanKind::kIqGet, [&] { return inner_->IqGet(ctx, key); });
}

gemini::Status TracedBackend::IqSet(const gemini::OpContext& ctx,
                                    std::string_view key,
                                    gemini::CacheValue value,
                                    gemini::LeaseToken token) {
  return Traced(SpanKind::kIqSet, [&] {
    return inner_->IqSet(ctx, key, std::move(value), token);
  });
}

gemini::Result<gemini::LeaseToken> TracedBackend::Qareg(
    const gemini::OpContext& ctx, std::string_view key) {
  return Traced(SpanKind::kQareg, [&] { return inner_->Qareg(ctx, key); });
}

gemini::Status TracedBackend::Dar(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::LeaseToken token) {
  return Traced(SpanKind::kDar, [&] { return inner_->Dar(ctx, key, token); });
}

gemini::Status TracedBackend::Rar(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::CacheValue value,
                                  gemini::LeaseToken token) {
  return Traced(SpanKind::kBackendOther, [&] {
    return inner_->Rar(ctx, key, std::move(value), token);
  });
}

gemini::Result<gemini::LeaseToken> TracedBackend::ISet(
    const gemini::OpContext& ctx, std::string_view key) {
  return Traced(SpanKind::kBackendOther,
                [&] { return inner_->ISet(ctx, key); });
}

gemini::Status TracedBackend::IDelete(const gemini::OpContext& ctx,
                                      std::string_view key,
                                      gemini::LeaseToken token) {
  return Traced(SpanKind::kBackendOther,
                [&] { return inner_->IDelete(ctx, key, token); });
}

gemini::Status TracedBackend::Delete(const gemini::OpContext& ctx,
                                     std::string_view key) {
  return Traced(SpanKind::kBackendOther,
                [&] { return inner_->Delete(ctx, key); });
}

gemini::Status TracedBackend::Set(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::CacheValue value) {
  return Traced(SpanKind::kSet,
                [&] { return inner_->Set(ctx, key, std::move(value)); });
}

std::vector<gemini::Status> TracedBackend::MultiSet(
    std::vector<gemini::SetRequest> reqs) {
  ScopedSpan span(SpanKind::kBackendOther);
  return inner_->MultiSet(std::move(reqs));
}

std::vector<gemini::Status> TracedBackend::MultiDelete(
    const std::vector<gemini::DeleteRequest>& reqs) {
  ScopedSpan span(SpanKind::kBackendOther);
  return inner_->MultiDelete(reqs);
}

gemini::Status TracedBackend::Cas(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::Version expected,
                                  gemini::CacheValue value) {
  return Traced(SpanKind::kBackendOther, [&] {
    return inner_->Cas(ctx, key, expected, std::move(value));
  });
}

gemini::Status TracedBackend::WriteBackInstall(const gemini::OpContext& ctx,
                                               std::string_view key,
                                               gemini::CacheValue value,
                                               gemini::LeaseToken token) {
  return Traced(SpanKind::kBackendOther, [&] {
    return inner_->WriteBackInstall(ctx, key, std::move(value), token);
  });
}

gemini::Status TracedBackend::Append(const gemini::OpContext& ctx,
                                     std::string_view key,
                                     std::string_view data) {
  return Traced(SpanKind::kAppend,
                [&] { return inner_->Append(ctx, key, data); });
}

gemini::Result<gemini::WorkingSetPage> TracedBackend::WorkingSetScan(
    const gemini::OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
    uint32_t max_keys) {
  return Traced(SpanKind::kWorkingSetScan, [&] {
    return inner_->WorkingSetScan(ctx, num_fragments, cursor, max_keys);
  });
}

gemini::Result<gemini::LeaseToken> TracedBackend::AcquireRed(
    std::string_view key) {
  return Traced(SpanKind::kAcquireRed,
                [&] { return inner_->AcquireRed(key); });
}

gemini::Status TracedBackend::ReleaseRed(std::string_view key,
                                         gemini::LeaseToken token) {
  return Traced(SpanKind::kBackendOther,
                [&] { return inner_->ReleaseRed(key, token); });
}

gemini::Status TracedBackend::RenewRed(std::string_view key,
                                       gemini::LeaseToken token) {
  return Traced(SpanKind::kBackendOther,
                [&] { return inner_->RenewRed(key, token); });
}

// ---- TracedCoordinator ------------------------------------------------------

gemini::ConfigurationPtr TracedCoordinator::GetConfiguration() const {
  ScopedSpan span(SpanKind::kCoordGetConfiguration);
  gemini::ConfigurationPtr config = inner_->GetConfiguration();
  if (config != nullptr && Tracer::enabled()) {
    const gemini::ConfigId seen =
        last_seen_.exchange(config->id(), std::memory_order_relaxed);
    if (seen != 0 && seen != config->id()) {
      config_changes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return config;
}

gemini::ConfigId TracedCoordinator::latest_id() const {
  ScopedSpan span(SpanKind::kCoordLatestId);
  return inner_->latest_id();
}

void TracedCoordinator::OnDirtyListProcessed(gemini::FragmentId fragment) {
  ScopedSpan span(SpanKind::kCoordOther);
  inner_->OnDirtyListProcessed(fragment);
}

void TracedCoordinator::OnWorkingSetTransferTerminated(
    gemini::FragmentId fragment) {
  ScopedSpan span(SpanKind::kCoordOther);
  inner_->OnWorkingSetTransferTerminated(fragment);
}

void TracedCoordinator::OnDirtyListUnavailable(gemini::FragmentId fragment) {
  ScopedSpan span(SpanKind::kCoordOther);
  inner_->OnDirtyListUnavailable(fragment);
}

bool TracedCoordinator::DirtyProcessed(gemini::FragmentId fragment) const {
  ScopedSpan span(SpanKind::kCoordOther);
  return inner_->DirtyProcessed(fragment);
}

}  // namespace perfbench
