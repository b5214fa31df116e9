// A live Gemini cluster for the benchmark: one geminicoordd and N geminids,
// each geminid on its own WAL data dir, spawned from the binaries built
// beside the benchmark.
//
// Process hygiene is the point of this class. Every child is registered in a
// process-wide table the moment it is forked; Stop() (also run by the
// destructor) sends SIGTERM, escalates to SIGKILL after a grace period,
// reaps every child and removes the data dirs, so a failed repetition leaves
// no port, WAL or process behind. Children also die with the benchmark
// (PR_SET_PDEATHSIG), and KillAllChildren() is async-signal-safe for the
// driver's signal handlers.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/coordinator/configuration.h"

namespace gemini {
class TcpConnection;
}  // namespace gemini

namespace perfbench {

/// SIGKILLs and reaps every child still registered. Safe from a signal
/// handler.
void KillAllChildren();

/// Counters from one daemon's kStats reply, by name.
using Counters = std::map<std::string, uint64_t>;

/// One kStats round trip to 127.0.0.1:`port`. For a geminid, pass the
/// instance id so the connection is bound to it and cache.* and persist.*
/// appear; for geminicoordd pass kAnyInstance. False if the daemon did not
/// answer.
bool ScrapeStats(uint16_t port, gemini::InstanceId instance, Counters* out);

/// Accumulates a daemon's counter deltas across a measured phase, including
/// phases in which the daemon was killed and restarted (its counters then
/// start again from zero).
class CounterDelta {
 public:
  /// Starts the phase at `now`.
  void Begin(const Counters& now);
  /// Adds the growth since the last Begin/Fold and moves the base to `now`.
  void Fold(const Counters& now);
  /// The daemon restarted: its next reading counts from zero.
  void Restarted() { base_.clear(); }
  [[nodiscard]] uint64_t Get(const std::string& name) const;

 private:
  Counters base_;
  Counters acc_;
};

/// Every configuration geminicoordd publishes, in publish order, as pushed
/// to a kCoordConfigWatch subscriber. Polling the client's cached
/// configuration could miss a short-lived mode; the push stream cannot.
class ConfigPushLog {
 public:
  /// Subscribes to the coordinator at 127.0.0.1:`port`.
  bool Start(uint16_t port);
  [[nodiscard]] size_t size() const;
  /// The configurations logged at positions [from, size()).
  [[nodiscard]] std::vector<gemini::ConfigurationPtr> Since(size_t from) const;

 private:
  struct State {
    mutable std::mutex mu;
    std::vector<gemini::ConfigurationPtr> configs;  // guarded by mu
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::shared_ptr<gemini::TcpConnection> conn_;
};

class Cluster {
 public:
  struct Options {
    std::string bin_dir;   // holds geminid and geminicoordd
    std::string work_dir;  // data dirs are created under it
    size_t instances = 2;
    size_t fragments = 16;
    uint64_t capacity_mb = 0;
  };

  explicit Cluster(Options options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns the coordinator and every geminid; false (with `error` set) if a
  /// daemon did not come up.
  bool Start(std::string* error);
  /// kill -9 instance `i` and reap it. Its data dir stays.
  void Kill(size_t i);
  /// Restarts instance `i` on its old port and data dir; returns once it
  /// has replayed its WAL and printed its serving banner.
  bool Respawn(size_t i, std::string* error);
  /// Terminates and reaps every daemon and removes the data dirs.
  void Stop();

  [[nodiscard]] uint16_t coord_port() const { return coord_.port; }
  [[nodiscard]] uint16_t port(size_t i) const { return nodes_[i].port; }
  /// Event backend the geminids reported in their banner.
  [[nodiscard]] const std::string& io_backend() const { return io_backend_; }

 private:
  struct Proc {
    pid_t pid = -1;
    int stdout_fd = -1;
    uint16_t port = 0;
    std::string data_dir;
  };

  bool SpawnNode(size_t i, std::string* error);
  static void Reap(Proc& proc, int first_signal);

  Options options_;
  Proc coord_;
  std::vector<Proc> nodes_;
  std::string io_backend_ = "unknown";
};

}  // namespace perfbench
