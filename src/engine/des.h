// Discrete-event simulation of stage execution on the configured cluster.
//
// Real task work is executed and timed on the host; SimulateStage answers
// "how long would this stage have taken on W workers x E executors x C
// cores, with the given NIC model?" — producing the cluster-scale numbers
// for the scalability (Fig. 6), NUMA (Fig. 4), and join (Fig. 7) figures.
//
// Model:
//  - each executor has `cores` slots, each with its own virtual free-time;
//  - each worker has one NIC with separate in/out serialization queues;
//  - a task is placed on its preferred executor (data locality / delay
//    scheduling) unless that executor is so backlogged that moving it to the
//    least-loaded executor wins even after paying to fetch its inputs;
//  - remote reads charge latency + bytes/bandwidth on the source worker's
//    out-queue and the destination worker's in-queue (same-worker transfers
//    use the faster intra-worker path and skip the NIC);
//  - task compute time is multiplied by the topology's NUMA factor.
//
// A stage is simulated on its own: every core and NIC clock starts at zero,
// so its makespan depends only on its own tasks, never on earlier stages or
// on other queries sharing the cluster.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/topology.h"

namespace idf {

struct SimRead {
  ExecutorId source = kAnyExecutor;  // kAnyExecutor => already local
  uint64_t bytes = 0;
};

struct SimTask {
  double compute_seconds = 0;
  ExecutorId preferred = kAnyExecutor;
  std::vector<SimRead> reads;
};

struct SimOutcome {
  double makespan_seconds = 0;
  double network_seconds = 0;  // total serialized transfer time
};

/// Simulates one stage on `config`'s topology. Tasks are assigned in index
/// order (Spark launches tasks in partition order).
SimOutcome SimulateStage(const ClusterConfig& config,
                         const std::vector<SimTask>& tasks);

}  // namespace idf
