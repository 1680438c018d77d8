// Hash-partitioned shuffle — the data-movement primitive behind index
// creation, appends, and indexed joins (§III-C "Scheduling Physical
// Operators": rows are hash-partitioned on the indexed key and shuffled to
// their indexed partitions), as well as the vanilla shuffled-hash and
// sort-merge joins and the two-phase aggregates.
//
// One transport (docs/SHUFFLE.md): map tasks push buffers as they seal
// (ShuffleWriter -> PushMapOutput) into per-reduce-partition channels;
// reduce tasks pull them concurrently, in (map task id, seal sequence)
// order, through a RoutedBufferStream (PullNext). A byte-bounded
// backpressure window keeps routed-but-unconsumed bytes from blowing the
// memory governor's budget, with one carve-out — the smallest unfinished
// map task is always admitted — that makes the window deadlock-free (the
// map every consumer could be waiting on can never block on the window
// itself).
//
// Byte counts and source executors feed the network model.
#pragma once

#include <cstdint>
#include <cstring>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "engine/topology.h"

namespace idf {

/// Deterministic hash partitioner (§III-C: "hash partitioning ensures better
/// load balancing when the key ranges are not known a-priori"). Partitioning
/// must be stable across runs: it is part of the lineage.
inline uint32_t HashPartition(uint64_t key_code, uint32_t num_partitions) {
  IDF_CHECK(num_partitions > 0);
  return static_cast<uint32_t>(Mix64(key_code) % num_partitions);
}

/// Backpressure window for shuffles: a quarter of the memory governor's
/// budget capped at 64 MB, else 64 MB.
uint64_t ShuffleWindowBytes();

/// The Status a shuffle producer/consumer unblocks with when the shuffle
/// was aborted (a peer task failed and the stage is being cancelled). Merge
/// logic prefers the root-cause failure over these secondary statuses.
inline Status ShuffleAbortedStatus() {
  return Status::Unavailable("shuffle aborted");
}
inline bool IsShuffleAborted(const Status& status) {
  return !status.ok() && status.message() == "shuffle aborted";
}

/// One map task's output for one reduce partition: concatenated encoded rows.
struct ShuffleBuffer {
  std::vector<uint8_t> bytes;
  uint32_t num_rows = 0;
  ExecutorId source = kAnyExecutor;

  void Reserve(size_t capacity) { bytes.reserve(capacity); }

  void AppendRow(const uint8_t* row, uint32_t len) {
    bytes.insert(bytes.end(), row, row + len);
    ++num_rows;
  }
};

/// Iterates the encoded rows in a shuffle buffer. Rows are self-delimiting
/// (their first 4 bytes hold the row size).
class ShuffleBufferReader {
 public:
  explicit ShuffleBufferReader(const ShuffleBuffer& buffer)
      : buffer_(buffer) {}

  bool HasNext() const { return cursor_ < buffer_.bytes.size(); }

  /// Returns a pointer to the next encoded row and advances.
  const uint8_t* Next() {
    IDF_CHECK(HasNext());
    const uint8_t* row = buffer_.bytes.data() + cursor_;
    uint32_t size;
    std::memcpy(&size, row, sizeof(size));
    IDF_CHECK_MSG(size >= 16 && cursor_ + size <= buffer_.bytes.size(),
                  "corrupt shuffle buffer");
    cursor_ += size;
    return row;
  }

 private:
  const ShuffleBuffer& buffer_;
  size_t cursor_ = 0;
};

class ShuffleService;

/// The pull side of one reduce partition's channel. Buffers arrive in
/// (map task id, seal sequence) order, so the concatenated byte stream a
/// consumer sees does not depend on how producers and consumers interleave:
/// insert order, cTrie state, and COW batch counts are identical at any
/// thread count. `idle` runs whenever the channel is momentarily dry — the
/// work-stealing hook (Cluster::TryHelpPipelinedMapTask) that lets a starved
/// consumer lane execute a backlogged map peer's pending FetchChunk/encode
/// work instead of sleeping; return true after doing work, false to block on
/// the channel. `on_map_read` fires once per map task whose contribution to
/// this partition completed with > 0 bytes: one DES read per non-empty
/// (map, reduce) pair, declared in map-id order. `on_blocked` (optional)
/// receives the seconds the consumer spent not consuming: running map work
/// through `idle`, or parked on its dry channel — time the DES must not
/// charge to the consuming task.
class RoutedBufferStream {
 public:
  RoutedBufferStream(ShuffleService& service, uint64_t shuffle,
                     uint32_t reduce_part, std::function<bool()> idle,
                     std::function<void(ExecutorId, uint64_t)> on_map_read,
                     std::function<void(double)> on_blocked = {})
      : service_(&service),
        shuffle_(shuffle),
        reduce_part_(reduce_part),
        idle_(std::move(idle)),
        on_map_read_(std::move(on_map_read)),
        on_blocked_(std::move(on_blocked)) {}

  /// Next routed buffer; nullptr at end of stream. Blocks until a buffer
  /// arrives (or the shuffle aborts).
  Result<std::shared_ptr<const ShuffleBuffer>> Next();

  /// Map task that produced the buffer Next() last returned — how a reduce
  /// task over a multi-input shuffle tells its inputs apart.
  uint32_t map_task() const { return map_cursor_; }

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t reduce_part_;
  std::function<bool()> idle_;
  std::function<void(ExecutorId, uint64_t)> on_map_read_;
  std::function<void(double)> on_blocked_;
  uint32_t map_cursor_ = 0;       // map id currently being drained
  uint64_t map_bytes_ = 0;        // bytes delivered from map_cursor_ so far
  ExecutorId map_source_ = kAnyExecutor;
};

/// Map-side routed-row writer. Rows append into per-target buffers whose
/// backing vectors are pre-reserved from a routed-rows hint (first encoded
/// row sizes the estimate), so the buffers stop reallocating one row at a
/// time. A buffer is pushed into its channel the moment it reaches the seal
/// threshold — that is what overlaps encode with transfer and insert — and
/// Finish() pushes the remainders and declares the map task done.
class ShuffleWriter {
 public:
  /// Buffers seal (and stream) at this size; small enough that a map task's
  /// first sealed buffer reaches its consumer early, large enough that
  /// channel overhead is noise.
  static constexpr size_t kSealThresholdBytes = 256 * 1024;

  ShuffleWriter(ShuffleService& service, uint64_t shuffle, uint32_t map_task,
                uint32_t num_targets, ExecutorId source, uint64_t hint_rows)
      : service_(&service),
        shuffle_(shuffle),
        map_task_(map_task),
        source_(source),
        hint_rows_(hint_rows),
        buffers_(num_targets) {}

  /// Routes one encoded row to `target`. Returns ShuffleAbortedStatus() when
  /// a push found the shuffle cancelled.
  Status Append(uint32_t target, const uint8_t* row, uint32_t len);

  /// Pushes the remaining buffers, then marks this map task finished so
  /// consumers can advance past it (always, even after an abort).
  Status Finish();

  /// Total routed bytes (metrics: shuffle_bytes_written). Identical to the
  /// sum of all published buffer sizes.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t map_task_;
  ExecutorId source_;
  uint64_t hint_rows_;
  uint64_t bytes_written_ = 0;
  size_t reserve_per_target_ = 0;  // sized off the first routed row
  bool finished_ = false;
  std::vector<ShuffleBuffer> buffers_;
};

/// Cluster-wide shuffle channels. Thread-safe.
class ShuffleService {
 public:
  /// Registers a new shuffle — one ordered channel per reduce partition —
  /// and returns its id. The backpressure window starts disabled.
  uint64_t NewShuffle(uint32_t num_map_tasks, uint32_t num_reduce_tasks);

  /// Frees a shuffle's channels and any undelivered buffers.
  void Release(uint64_t shuffle) {
    std::lock_guard<std::mutex> lock(mutex_);
    shuffles_.erase(shuffle);
  }

  /// Bounds pushed-but-undelivered bytes on `shuffle` (0 disables). Only
  /// for a parallel run: a sequential one pushes every buffer before any
  /// consumer exists and would deadlock against its own window.
  void EnforceWindow(uint64_t shuffle, uint64_t window_bytes);

  /// Pushes one sealed buffer. Blocks while the window is full, except for
  /// the smallest unfinished map task (always admitted — the liveness
  /// carve-out). Returns false when the shuffle was aborted; the
  /// buffer is then dropped and the caller should unwind with
  /// ShuffleAbortedStatus().
  bool PushMapOutput(uint64_t shuffle, uint32_t map_task, uint32_t reduce_part,
                     ShuffleBuffer buffer);

  /// Marks a map task complete: consumers may advance past it, and the
  /// window's always-admit carve-out moves to the next unfinished map.
  void MapTaskFinished(uint64_t shuffle, uint32_t map_task);

  /// Cancels a shuffle: every blocked producer and consumer wakes and
  /// unwinds with ShuffleAbortedStatus(). Idempotent.
  void AbortStreaming(uint64_t shuffle);

  /// Peak pushed-but-undelivered bytes observed on a shuffle.
  uint64_t InflightPeakBytes(uint64_t shuffle) const;

 private:
  friend class RoutedBufferStream;

  /// One reduce partition's ordered channel.
  struct Channel {
    std::condition_variable cv;
    // per_map[m]: buffers pushed by map task m, in seal-sequence order.
    std::vector<std::deque<std::shared_ptr<ShuffleBuffer>>> per_map;
  };

  struct State {
    uint32_t num_map = 0;
    uint32_t num_reduce = 0;
    bool aborted = false;
    uint64_t window = 0;         // 0 = not enforced
    uint64_t inflight = 0;       // pushed - delivered bytes
    uint64_t inflight_peak = 0;
    uint32_t min_unfinished = 0; // smallest map id not yet finished
    std::vector<char> map_finished;
    std::condition_variable push_cv;  // producers blocked on the window
    std::vector<std::unique_ptr<Channel>> channels;
  };

  /// Delivers the next buffer for `reduce_part` in (map, seq) order; the
  /// cursor state lives in the caller's RoutedBufferStream. nullptr at end.
  Result<std::shared_ptr<const ShuffleBuffer>> PullNext(
      uint64_t shuffle, uint32_t reduce_part, uint32_t* map_cursor,
      uint64_t* map_bytes, ExecutorId* map_source,
      const std::function<bool()>& idle,
      const std::function<void(ExecutorId, uint64_t)>& on_map_read,
      const std::function<void(double)>& on_blocked);

  const State& GetState(uint64_t id) const {
    auto it = shuffles_.find(id);
    IDF_CHECK_MSG(it != shuffles_.end(), "unknown shuffle id");
    return it->second;
  }
  State& GetState(uint64_t id) {
    auto it = shuffles_.find(id);
    IDF_CHECK_MSG(it != shuffles_.end(), "unknown shuffle id");
    return it->second;
  }

  mutable std::mutex mutex_;
  std::map<uint64_t, State> shuffles_;
  uint64_t next_id_ = 1;
};

}  // namespace idf
