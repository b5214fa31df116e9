#include "perfbench/cluster.h"

#include <fcntl.h>
#include <ftw.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Heartbeats every 50 ms and six missed beats fail an instance over, so a
// kill is noticed in about 300-350 ms. Fewer beats made a stall of a shared
// machine (a geminid or the coordinator descheduled for 150 ms) read as a
// crash.
constexpr const char* kHeartbeatMs = "50";
constexpr const char* kMissThreshold = "6";

// Live child pids; 0 = free slot. Plain atomics so a signal handler can walk
// the table.
constexpr size_t kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  // More children than slots: the table is sized far above the three
  // daemons a cluster runs, so this is a bug; refuse to leak the child.
  ::kill(pid, SIGKILL);
  std::fprintf(stderr, "perfbench: child table full\n");
  std::abort();
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

int RemoveVisit(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  if (!dir.empty()) ::nftw(dir.c_str(), RemoveVisit, 16, FTW_DEPTH | FTW_PHYS);
}

/// Forks and execs `path args...` with stdout on a pipe. The child dies with
/// this process.
bool Spawn(const std::string& path, const std::vector<std::string>& args,
           pid_t* pid_out, int* fd_out) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipefd[1], STDOUT_FILENO);
    std::vector<std::string> owned = args;
    std::vector<char*> argv;
    std::string bin = path;
    argv.push_back(bin.data());
    for (auto& a : owned) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  Register(pid);
  ::close(pipefd[1]);
  *pid_out = pid;
  *fd_out = pipefd[0];
  return true;
}

/// Reads the child's stdout until a line containing `needle` arrives, stores
/// that line in `line`, and returns the port printed after "127.0.0.1:" on
/// it; 0 on timeout or EOF.
uint16_t AwaitBanner(int fd, const char* needle, std::chrono::seconds timeout,
                     std::string* line) {
  std::string out;
  const auto deadline = SteadyClock::now() + timeout;
  while (true) {
    const size_t at = out.find(needle);
    const size_t eol =
        at == std::string::npos ? std::string::npos : out.find('\n', at);
    if (eol != std::string::npos) {
      const size_t bol = out.rfind('\n', at);
      *line = out.substr(bol == std::string::npos ? 0 : bol + 1,
                         eol - (bol == std::string::npos ? 0 : bol + 1));
      const std::string marker = "127.0.0.1:";
      const size_t p = line->find(marker);
      if (p == std::string::npos) return 0;
      return static_cast<uint16_t>(
          std::atoi(line->c_str() + p + marker.size()));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    if (left.count() <= 0) return 0;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return 0;
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return 0;
    out.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
}

bool ScrapeStats(uint16_t port, gemini::InstanceId instance, Counters* out) {
  gemini::TcpConnection::Options copts;
  copts.connect_timeout = gemini::Millis(500);
  copts.io_timeout = gemini::Seconds(2);
  auto conn =
      gemini::TcpConnection::Acquire("127.0.0.1", port, instance, copts);
  std::string resp;
  if (!conn->Transact(gemini::wire::Op::kStats, "", &resp).ok()) return false;
  gemini::wire::Reader r(resp);
  uint32_t count = 0;
  if (!r.GetU32(&count)) return false;
  out->clear();
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    uint64_t value = 0;
    if (!r.GetBlob(&name) || !r.GetU64(&value)) return false;
    (*out)[std::string(name)] = value;
  }
  return true;
}

bool ConfigPushLog::Start(uint16_t port) {
  conn_ = gemini::TcpConnection::Acquire("127.0.0.1", port,
                                         gemini::wire::kAnyInstance,
                                         gemini::TcpConnection::Options());
  std::weak_ptr<State> weak = state_;
  conn_->AddPushHandler([weak](uint8_t tag, const std::string& body) {
    if (tag != gemini::wire::kPushConfigTag) return;
    const std::shared_ptr<State> state = weak.lock();
    if (state == nullptr) return;
    gemini::wire::Reader r(body);
    std::string_view blob;
    if (!r.GetBlob(&blob)) return;
    auto config = gemini::Configuration::Deserialize(blob);
    if (!config.has_value()) return;
    std::lock_guard<std::mutex> lock(state->mu);
    state->configs.push_back(
        std::make_shared<const gemini::Configuration>(std::move(*config)));
  });
  std::string body;
  gemini::wire::PutU64(body, 0);
  std::string resp;
  return conn_->Transact(gemini::wire::Op::kCoordConfigWatch, body, &resp)
      .ok();
}

size_t ConfigPushLog::size() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->configs.size();
}

std::vector<gemini::ConfigurationPtr> ConfigPushLog::Since(size_t from) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (from >= state_->configs.size()) return {};
  return {state_->configs.begin() + static_cast<long>(from),
          state_->configs.end()};
}

void CounterDelta::Begin(const Counters& now) {
  base_ = now;
  acc_.clear();
}

void CounterDelta::Fold(const Counters& now) {
  for (const auto& [name, value] : now) {
    const auto it = base_.find(name);
    const uint64_t base = it == base_.end() ? 0 : it->second;
    if (value >= base) acc_[name] += value - base;
  }
  base_ = now;
}

uint64_t CounterDelta::Get(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second;
}

Cluster::Cluster(Options options) : options_(std::move(options)) {
  nodes_.resize(options_.instances);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].data_dir = options_.work_dir + "/node_" + std::to_string(i);
  }
}

Cluster::~Cluster() { Stop(); }

bool Cluster::Start(std::string* error) {
  for (Proc& node : nodes_) RemoveTree(node.data_dir);
  if (!Spawn(options_.bin_dir + "/geminicoordd",
             {"--port", "0", "--cluster-size",
              std::to_string(options_.instances), "--fragments",
              std::to_string(options_.fragments), "--heartbeat-interval-ms",
              kHeartbeatMs, "--miss-threshold", kMissThreshold,
              "--lease-ttl-ms", "3000", "--policy", "gemini-ow", "--threads",
              "1"},
             &coord_.pid, &coord_.stdout_fd)) {
    *error = "cannot spawn geminicoordd";
    return false;
  }
  std::string banner;
  coord_.port = AwaitBanner(coord_.stdout_fd, "coordinating",
                            std::chrono::seconds(20), &banner);
  if (coord_.port == 0) {
    *error = "geminicoordd printed no banner";
    return false;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!SpawnNode(i, error)) return false;
  }
  return true;
}

bool Cluster::SpawnNode(size_t i, std::string* error) {
  Proc& node = nodes_[i];
  const std::vector<std::string> args = {
      "--port", std::to_string(node.port),
      "--instance", std::to_string(i),
      "--data-dir", node.data_dir,
      "--capacity-mb", std::to_string(options_.capacity_mb),
      "--threads", "1",
      "--coordinator", "127.0.0.1:" + std::to_string(coord_.port),
      "--heartbeat-interval-ms", kHeartbeatMs};
  if (!Spawn(options_.bin_dir + "/geminid", args, &node.pid,
             &node.stdout_fd)) {
    *error = "cannot spawn geminid " + std::to_string(i);
    return false;
  }
  std::string banner;
  const uint16_t port = AwaitBanner(node.stdout_fd, "serving on",
                                    std::chrono::seconds(60), &banner);
  const std::string marker = "(io backend: ";
  const size_t at = banner.find(marker);
  if (at != std::string::npos) {
    io_backend_ = banner.substr(at + marker.size());
    io_backend_ = io_backend_.substr(0, io_backend_.find(')'));
  }
  if (port == 0) {
    *error = "geminid " + std::to_string(i) + " printed no banner";
    return false;
  }
  node.port = port;
  return true;
}

void Cluster::Kill(size_t i) { Reap(nodes_[i], SIGKILL); }

bool Cluster::Respawn(size_t i, std::string* error) {
  return SpawnNode(i, error);
}

void Cluster::Reap(Proc& proc, int first_signal) {
  if (proc.pid > 0) {
    ::kill(proc.pid, first_signal);
    const auto deadline = SteadyClock::now() + std::chrono::seconds(3);
    int status = 0;
    while (::waitpid(proc.pid, &status, WNOHANG) == 0) {
      if (SteadyClock::now() > deadline) {
        ::kill(proc.pid, SIGKILL);
        ::waitpid(proc.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Unregister(proc.pid);
    proc.pid = -1;
  }
  if (proc.stdout_fd >= 0) {
    ::close(proc.stdout_fd);
    proc.stdout_fd = -1;
  }
}

void Cluster::Stop() {
  // The coordinator goes first, so it never fails over a geminid that is
  // merely shutting down.
  Reap(coord_, SIGTERM);
  for (Proc& node : nodes_) Reap(node, SIGTERM);
  for (Proc& node : nodes_) RemoveTree(node.data_dir);
}

}  // namespace perfbench
