// Per-query resource attribution (observability v3): a thread-local query
// identity plus a process-wide registry of per-query cost profiles.
//
// The flight recorder answers "what did the machinery just do"; the metrics
// registry answers "how much, in total". Neither answers the question a
// shared-budget serving process actually gets asked: *which query* paid for
// those 180 MiB of spills. This layer closes that gap.
//
// Identity: QueryScope installs a query id on the current thread (RAII,
// nestable, save/restore). The query service installs it around each
// driver's work; the engine re-installs it on every scheduler worker lane,
// pipelined shuffle lane, and the governor's background prefetcher (the
// prefetch queue carries the id of the query that enqueued the request).
// Everything recorded while a scope is active — flight-recorder events and
// the profile feeds below — is attributed to that query. Id 0 is the
// "unattributed" bucket: work done outside any query (table builds, bench
// setup) lands there, so totals still conserve.
//
// Attribution rule for governor traffic: the query whose allocation or
// fault *triggered* an eviction/spill/reload is charged, not the query
// whose data was evicted. That is the actionable number — it is the
// pressure a query exerts on the shared budget.
//
// Accumulation: FlightRecorder::Record() feeds the current thread's profile
// from the same event that feeds the global metric (steals, residency,
// spill/reload bytes, shuffle stalls and pushes) — one write per fact, so
// the conservation gate in tests/query_profile_test.cpp (Σ profiles ==
// metric delta) holds by construction. Task counts are fed directly by the
// engine next to the `engine.tasks` counter (the one site where events and
// the metric intentionally disagree: a pre-body cancellation records
// task_fail without counting a task).
//
// Everything here is allocation-free and lock-free on the hot path: profile
// fields are relaxed atomics, scope install is two thread-local writes plus
// a per-thread (id -> profile) cache that only touches the registry mutex
// on a cache miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace idf::obs {

/// Accumulating totals for one query. All counters are relaxed atomics —
/// many worker threads feed one profile concurrently. Leaky-owned by the
/// registry; pointers remain valid for the process lifetime.
struct QueryProfile {
  explicit QueryProfile(uint64_t query_id) : id(query_id) {}

  const uint64_t id;

  // Fed directly by the engine (co-located with engine.tasks).
  std::atomic<uint64_t> tasks{0};

  // Event-fed (FlightRecorder::Record side effect).
  std::atomic<uint64_t> task_fails{0};
  std::atomic<uint64_t> task_wall_us{0};      // summed per-task body wall
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> resident_hits{0};
  std::atomic<uint64_t> resident_misses{0};
  std::atomic<uint64_t> bytes_spilled{0};     // spill writes this query forced
  std::atomic<uint64_t> evictions{0};         // evictions this query forced
  std::atomic<uint64_t> bytes_reloaded{0};    // demand fault-ins
  std::atomic<uint64_t> bytes_prefetched{0};  // prefetcher reloads it enqueued
  std::atomic<uint64_t> prefetch_skips{0};
  std::atomic<uint64_t> shuffle_stall_us{0};
  std::atomic<uint64_t> shuffle_pushed_bytes{0};

  // Fed directly by the query service / governor access scopes.
  std::atomic<uint64_t> admission_wait_us{0};
  std::atomic<uint64_t> current_pinned_bytes{0};
  std::atomic<uint64_t> peak_pinned_bytes{0};  // CAS max of current

  /// Per-stage wall time and task counts (event-fed on task finish/fail).
  /// `name_id` is the flight recorder's interned stage-name id.
  struct StageTotals {
    uint32_t name_id = 0;
    uint64_t tasks = 0;
    uint64_t wall_us = 0;
  };

  /// Folds one finished/failed task into the totals (called from the
  /// recorder's feed; takes the small per-profile stage mutex).
  void OnTaskDone(uint32_t name_id, uint64_t wall_us, bool failed);

  /// Raises current_pinned_bytes and ratchets the peak.
  void AddPinned(uint64_t bytes);
  void ReleasePinned(uint64_t bytes);

  /// Copies the stage table (short; guarded by stages_mu_).
  std::vector<StageTotals> Stages() const;

 private:
  mutable std::mutex stages_mu_;
  std::vector<StageTotals> stages_;
};

/// Non-atomic copy of one profile at a point in time.
struct QueryProfileSnapshot {
  uint64_t id = 0;
  uint64_t tasks = 0;
  uint64_t task_fails = 0;
  uint64_t task_wall_us = 0;
  uint64_t steals = 0;
  uint64_t resident_hits = 0;
  uint64_t resident_misses = 0;
  uint64_t bytes_spilled = 0;
  uint64_t evictions = 0;
  uint64_t bytes_reloaded = 0;
  uint64_t bytes_prefetched = 0;
  uint64_t prefetch_skips = 0;
  uint64_t shuffle_stall_us = 0;
  uint64_t shuffle_pushed_bytes = 0;
  uint64_t admission_wait_us = 0;
  uint64_t current_pinned_bytes = 0;
  uint64_t peak_pinned_bytes = 0;
  struct Stage {
    std::string name;
    uint64_t tasks = 0;
    uint64_t wall_us = 0;
  };
  std::vector<Stage> stages;
};

/// Process-wide id -> profile map. Get() is get-or-create; profiles are
/// never removed (a finished query's profile stays inspectable, mirroring
/// the service's finished-queries tail).
class QueryProfileRegistry {
 public:
  static QueryProfileRegistry& Global();

  /// The profile for `id`, created on first use. Never null.
  QueryProfile* Get(uint64_t id);

  /// The profile for `id`, or nullptr when none exists yet.
  QueryProfile* Find(uint64_t id) const;

  /// All known ids (including 0 once anything unattributed was recorded).
  std::vector<uint64_t> Ids() const;

  /// Snapshot of one profile; false when the id is unknown.
  bool Snapshot(uint64_t id, QueryProfileSnapshot* out) const;

  /// Snapshot of every profile, sorted by id.
  std::vector<QueryProfileSnapshot> SnapshotAll() const;

  QueryProfileRegistry(const QueryProfileRegistry&) = delete;
  QueryProfileRegistry& operator=(const QueryProfileRegistry&) = delete;

 private:
  QueryProfileRegistry() = default;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<QueryProfile>> profiles_;
};

/// Renders one snapshot as a JSON object (the schema served by
/// /queries/<id> and embedded in BENCH_serve.json; docs/OBSERVABILITY.md).
std::string QueryProfileJson(const QueryProfileSnapshot& snap);

/// Allocates a process-unique query id (>= 1). All query-id producers (every
/// QueryService, EXPLAIN ANALYZE's ephemeral scopes) share this sequence so
/// the registry never merges two different queries.
uint64_t AllocateQueryId();

/// The query id attributed to work on this thread (0 = unattributed).
uint64_t CurrentQueryId();

/// The current thread's profile — the one for CurrentQueryId(), resolved
/// lazily (bucket 0 included). Never null. Intended for co-located direct
/// feeds (engine.tasks); event-shaped costs flow through the recorder.
QueryProfile* CurrentQueryProfile();

/// RAII install of a query identity on the current thread. Nestable;
/// restores the previous id (and cached profile) on destruction.
class QueryScope {
 public:
  explicit QueryScope(uint64_t id);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  uint64_t previous_id_;
  QueryProfile* previous_profile_;
};

}  // namespace idf::obs
