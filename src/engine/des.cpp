#include "engine/des.h"

#include <algorithm>

namespace idf {

namespace {

/// The virtual clocks of one stage simulation.
class StageClocks {
 public:
  explicit StageClocks(const ClusterConfig& config)
      : config_(config),
        core_free_(config.total_executors() * config.cores_per_executor, 0.0),
        nic_in_free_(config.num_workers, 0.0),
        nic_out_free_(config.num_workers, 0.0) {}

  /// Places `task` and returns the time it finishes.
  double PlaceTask(const SimTask& task, double* network_seconds) {
    ExecutorId target = task.preferred != kAnyExecutor &&
                                task.preferred < config_.total_executors()
                            ? task.preferred
                            : LeastLoadedExecutor();
    // Delay scheduling: if the preferred executor is backlogged more than a
    // locality timeout versus the least-loaded one, surrender locality
    // (Spark's spark.locality.wait behaviour, §III-D).
    constexpr double kLocalityWait = 3e-3;
    if (task.preferred != kAnyExecutor) {
      const ExecutorId alt = LeastLoadedExecutor();
      if (core_free_[BestCore(target)] >
          core_free_[BestCore(alt)] + kLocalityWait) {
        target = alt;
      }
    }

    const uint32_t core = BestCore(target);
    const uint32_t dst_worker = config_.WorkerOf(target);
    const double start = core_free_[core];

    // Fetch inputs not local to the chosen executor. Fetches are issued in
    // parallel (shuffle clients pipeline); each cross-worker transfer
    // serializes its bytes on the source out-queue and the destination
    // in-queue, and the task starts computing once the slowest input has
    // arrived. Propagation latency delays the reader, not the queues.
    double inputs_ready = start;
    double intra_ser = 0;  // same-worker copies serialize on memory bw
    for (const SimRead& read : task.reads) {
      if (read.source == target || read.bytes == 0) continue;
      const bool has_source = read.source != kAnyExecutor;
      const bool cross_worker =
          !has_source || config_.WorkerOf(read.source) != dst_worker;
      const double ser = SerializationCost(read.bytes, cross_worker);
      if (cross_worker) {
        const uint32_t src_worker =
            has_source ? config_.WorkerOf(read.source) : dst_worker;
        double& out_q = nic_out_free_[src_worker];
        double& in_q = nic_in_free_[dst_worker];
        const double begin = std::max(out_q, in_q);
        out_q = begin + ser;
        in_q = begin + ser;
        const double completion = begin + ser + config_.network.latency_s;
        inputs_ready = std::max(inputs_ready, completion);
        *network_seconds += ser + config_.network.latency_s;
      } else {
        intra_ser += ser;
        *network_seconds += ser;
      }
    }
    inputs_ready = std::max(inputs_ready, start + intra_ser);

    const double end =
        inputs_ready + task.compute_seconds * config_.NumaFactor();
    core_free_[core] = end;
    return end;
  }

 private:
  uint32_t CoreBase(ExecutorId e) const {
    return e * config_.cores_per_executor;
  }

  /// Earliest-free core of an executor.
  uint32_t BestCore(ExecutorId e) const {
    uint32_t best = CoreBase(e);
    for (uint32_t c = CoreBase(e); c < CoreBase(e) + config_.cores_per_executor;
         ++c) {
      if (core_free_[c] < core_free_[best]) best = c;
    }
    return best;
  }

  ExecutorId LeastLoadedExecutor() const {
    ExecutorId best = 0;
    double best_time = core_free_[BestCore(0)];
    for (ExecutorId e = 1; e < config_.total_executors(); ++e) {
      const double t = core_free_[BestCore(e)];
      if (t < best_time) {
        best_time = t;
        best = e;
      }
    }
    return best;
  }

  double SerializationCost(uint64_t bytes, bool cross_worker) const {
    const NetworkConfig& net = config_.network;
    const double bw =
        cross_worker ? net.bandwidth_bytes_per_s : net.intra_worker_bandwidth;
    return static_cast<double>(bytes) / bw;
  }

  const ClusterConfig& config_;
  std::vector<double> core_free_;
  std::vector<double> nic_in_free_;
  std::vector<double> nic_out_free_;
};

}  // namespace

SimOutcome SimulateStage(const ClusterConfig& config,
                         const std::vector<SimTask>& tasks) {
  StageClocks clocks(config);
  SimOutcome outcome;
  for (const SimTask& task : tasks) {
    outcome.makespan_seconds = std::max(
        outcome.makespan_seconds,
        clocks.PlaceTask(task, &outcome.network_seconds));
  }
  return outcome;
}

}  // namespace idf
