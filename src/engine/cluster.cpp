#include "engine/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "engine/cancel.h"
#include "engine/scheduler.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics_registry.h"
#include "obs/query_profile.h"
#include "testing/chaos.h"

namespace idf {

namespace {

/// Cached registry handles for the engine's directly fed per-task metrics —
/// resolved once, then one relaxed atomic op per update. Steals, residency,
/// stage totals, recovery and executor kills are folded from their
/// flight-recorder events by FlightRecorder::Record.
struct EngineMetrics {
  // Direct feed, not event-derived: a task cancelled before its body runs
  // records task_fail without counting a task.
  obs::Counter& tasks = obs::Registry::Global().GetCounter("engine.tasks");
  obs::Histogram& task_seconds =
      obs::Registry::Global().GetHistogram("engine.task.seconds");

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = new EngineMetrics();
    return *metrics;
  }
};

/// True while this thread is executing a task body. A task that itself runs
/// a stage (nested RunStage) executes it in-line, sequentially: submitting
/// nested work to the pool could leave every pool thread blocked waiting
/// for work that only the pool itself could run.
thread_local bool t_in_stage_task = false;

/// The governor's live residency view as JSON, served at /residency by the
/// introspection server. Registered here (not in obs) so the obs layer
/// stays free of upward dependencies on mem.
std::string ResidencyJson() {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const mem::ResidencyMap residency = gov.ResidencySnapshot();
  std::string partitions;
  for (const auto& [key, info] : residency) {
    if (!partitions.empty()) partitions += ",";
    partitions += "{\"rdd\":" + std::to_string(key.first) +
                  ",\"partition\":" + std::to_string(key.second) +
                  ",\"resident_bytes\":" + std::to_string(info.resident_bytes) +
                  ",\"spilled_bytes\":" + std::to_string(info.spilled_bytes) +
                  ",\"last_access\":" + std::to_string(info.last_access) + "}";
  }
  return "{\"engaged\":" +
         std::string(mem::MemoryGovernor::Engaged() ? "true" : "false") +
         ",\"budget_bytes\":" + std::to_string(gov.budget_bytes()) +
         ",\"resident_bytes\":" + std::to_string(gov.resident_bytes()) +
         ",\"spilled_bytes\":" + std::to_string(gov.spilled_bytes()) +
         ",\"partitions\":[" + partitions + "]}";
}

/// Force-evicts every governed payload (chaos kEvictWorld). Iterates a
/// residency snapshot rather than calling EnforceBudget so it evicts even
/// when the budget is satisfied — that is the point of the fault. Pinned
/// payloads survive (EvictPartition skips them), exactly like a real
/// worst-case pressure wave.
size_t ChaosEvictWorld() {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  size_t evicted = 0;
  for (const auto& [key, info] : gov.ResidencySnapshot()) {
    evicted += gov.EvictPartition(key.first, key.second);
  }
  return evicted;
}

/// Chaos kBudgetSqueeze: halve the budget, enforce it (evicting down to the
/// squeezed ceiling), then restore. Serialized so two racing squeezes can't
/// observe each other's halved budget as the "previous" value and wedge the
/// budget low permanently.
void ChaosSqueezeBudget() {
  static std::mutex squeeze_mutex;
  std::lock_guard<std::mutex> lock(squeeze_mutex);
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t prev = gov.budget_bytes();
  if (prev < 2) return;  // unbudgeted runs have nothing to squeeze
  gov.Configure(prev / 2);  // Configure(>0) enforces the squeezed budget
  gov.Configure(prev);
}

/// One-time observability wiring, done at first Cluster construction: the
/// /residency JSON source, the IDF_OBS_PORT server, and the IDF_EVENTS_DIR
/// crash handler. All opt-in; without the env vars only the (always-cheap)
/// handler registration happens. Also hands the chaos engine its one upward
/// actuator ("evict every governed payload", used by the background
/// evictor) — registration is unconditional and costs one mutex'd store.
void WireIntrospectionOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::IntrospectionServer::Global().AddJsonHandler("/residency",
                                                      ResidencyJson);
    obs::IntrospectionServer::StartFromEnv();
    if (std::getenv("IDF_EVENTS_DIR") != nullptr) {
      obs::FlightRecorder::InstallCrashHandler();
    }
    chaos::ChaosEngine::SetEvictWorldActuator(ChaosEvictWorld);
  });
}

}  // namespace

/// Outcome slot for one task, written by whichever host thread ran it and
/// merged by the driver in task-index order.
struct Cluster::TaskResult {
  Status status = Status::OK();
  bool ran = false;       // false => cancelled after an earlier failure
  double elapsed = 0;
  double blocked = 0;     // part of elapsed spent not computing (DES skips)
  TaskMetrics metrics;
  std::vector<SimRead> reads;
};

/// Shared state of one fused shuffle stage, published to its worker
/// threads through t_pipeline_ so a starved shuffle consumer
/// (RoutedBufferStream's idle hook) can claim pending map work.
struct Cluster::PipelineContext {
  Cluster* cluster = nullptr;
  const StageSpec* map_stage = nullptr;
  const StagePlan* map_plan = nullptr;
  std::atomic<uint32_t> next_map{0};  // lowest unclaimed map task
  std::vector<TaskResult>* map_results = nullptr;
  uint32_t map_name_id = 0;
  QueryControl* control = nullptr;  // owning query's token (may be null)
  std::atomic<bool>* cancelled = nullptr;
  const std::function<void()>* fail = nullptr;

  /// Claims and runs the lowest-numbered unclaimed map task on behalf of
  /// `home`'s lane. Maps are claimed in ascending task index, never per
  /// lane: a running map then implies every smaller map is running or done,
  /// so the window's always-admitted minimal map can never sit unclaimed
  /// while every worker is parked pushing a later one. Maps have no lanes
  /// to steal from; a steal (`helper`) is a starved reducer pulling map
  /// work through its idle hook. Returns false when every map is claimed
  /// (or the stage cancelled).
  bool RunOneMapTask(size_t home, bool helper) {
    if (cancelled->load(std::memory_order_relaxed)) return false;
    const size_t num_map = map_stage->tasks.size();
    if (next_map.load() >= num_map) return false;
    const uint32_t index = next_map.fetch_add(1);
    if (index >= num_map) return false;
    const uint32_t next = index + 1 < num_map ? index + 1 : TaskLanes::kNoTask;
    if (!cluster->RunClaimedTask(*map_stage, *map_plan, map_name_id, control,
                                 index, next, helper, home,
                                 (*map_results)[index])) {
      (*fail)();
    }
    return true;
  }
};

thread_local Cluster::PipelineContext* Cluster::t_pipeline_ = nullptr;
thread_local size_t Cluster::t_pipeline_home_ = 0;

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      alive_(config.total_executors(), true) {
  IDF_CHECK_OK(config_.Validate());
  scheduler_threads_ = ResolveSchedulerThreads(config_);

  // Engage the memory governor if a budget is configured. Environment
  // overrides win so a budget can be imposed on any binary without code
  // changes (IDF_MEMORY_BUDGET=256m ./sql_test).
  uint64_t budget = config_.memory_budget_bytes;
  if (const char* env = std::getenv("IDF_MEMORY_BUDGET")) {
    Result<uint64_t> parsed = mem::ParseByteSize(env);
    if (parsed.ok()) {
      budget = *parsed;
    } else {
      IDF_LOG_WARN("ignoring unparsable IDF_MEMORY_BUDGET='%s'", env);
    }
  }
  std::string spill_dir = config_.spill_dir;
  if (const char* env = std::getenv("IDF_SPILL_DIR")) spill_dir = env;
  if (budget > 0 || !spill_dir.empty()) {
    mem::MemoryGovernor::Global().Configure(budget, spill_dir);
  }
  WireIntrospectionOnce();
}

ThreadPool& Cluster::pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(scheduler_threads_);
  });
  return *pool_;
}

void Cluster::ApplyTaskChaos(const StageSpec& stage, uint32_t index,
                             ExecutorId executor, QueryControl* control) {
  if (!chaos::ChaosEngine::Active()) return;
  chaos::ChaosEngine& engine = chaos::ChaosEngine::Global();
  const uint64_t stage_hash = HashString(stage.name);
  const uint64_t key = HashCombine(stage_hash, index);
  const chaos::TaskAction action = engine.OnTaskStart(stage_hash, index);
  // Delaying this lane's task is also how "force a steal" is injected: the
  // lane sits on its claimed task while the other lanes drain their queues
  // and start stealing from it.
  if (action.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(action.delay_us));
  }
  if (action.evict_world) ChaosEvictWorld();
  if (action.squeeze_budget) ChaosSqueezeBudget();
  // Kill/cancel/deadline sit behind guards the engine cannot evaluate, so
  // the decision came back unrecorded; record only what actually fired.
  if (action.kill_executor && TryKillExecutor(executor)) {
    engine.RecordFault(chaos::Site::kTask, chaos::Fault::kKillExecutor, key,
                       executor);
  }
  if (control != nullptr) {
    if (action.cancel_query) {
      control->Cancel();
      engine.RecordFault(chaos::Site::kTask, chaos::Fault::kCancelQuery, key,
                         0);
    }
    if (action.expire_query) {
      control->SetDeadlineMicros(QueryControl::NowMicros());
      engine.RecordFault(chaos::Site::kTask, chaos::Fault::kExpireQuery, key,
                         0);
    }
  }
}

void Cluster::ExecuteTask(const StageSpec& stage, uint32_t index,
                          ExecutorId executor, uint32_t stage_name_id,
                          QueryControl* control, TaskResult& out) {
  EngineMetrics& em = EngineMetrics::Get();
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  // Per-query attribution for everything this task does — the start/finish
  // events below, and every governor/shuffle event the body triggers on
  // this thread. The control's id wins (it is the served query's identity);
  // the ambient id covers unserved work (benches, tests, EXPLAIN ANALYZE).
  obs::QueryScope query_scope(control != nullptr && control->query_id() != 0
                                  ? control->query_id()
                                  : obs::CurrentQueryId());
  // Task-boundary cancellation check: a cancelled or past-deadline query
  // fails this task before its body runs, and first-error-wins unwinds the
  // rest of the stage. Cheap (two relaxed-ish atomic loads) and it runs on
  // the host thread that claimed the task, so every lane observes a cancel
  // within one task of it being requested.
  if (control != nullptr) {
    Status check = control->Check();
    if (!check.ok()) {
      out.status = std::move(check);
      out.ran = true;
      fr.Record(obs::EventType::kTaskFail, stage_name_id, index, executor, 0);
      return;
    }
  }
  // Propagate the driver's control onto this (pool) thread for the body's
  // duration: nested in-line stages and polling bodies pick it up via
  // CurrentQueryControl().
  ScopedQueryControl scoped_control(control);
  TaskContext ctx(this, executor);
  const bool was_in_task = t_in_stage_task;
  t_in_stage_task = true;
  // Attribute mem.* events (evictions, reload faults) the body triggers to
  // this simulated executor.
  const int32_t prev_executor = mem::MemoryGovernor::CurrentExecutor();
  mem::MemoryGovernor::SetCurrentExecutor(static_cast<int32_t>(executor));
  // Chaos task-boundary site: scripted hooks (deterministic pressure
  // harnesses evicting between tasks) and armed probability faults. One
  // relaxed load when inactive.
  ApplyTaskChaos(stage, index, executor, control);
  fr.Record(obs::EventType::kTaskStart, stage_name_id, index, executor, 0);
  Stopwatch timer;
  try {
    out.status = stage.tasks[index].body(ctx);
  } catch (const mem::ReloadFault& fault) {
    // A spilled batch could not be reloaded (spill file lost, disk error).
    // Pointer-returning read paths have no Status channel, so the failure
    // unwinds to here; fail the task with its kUnavailable status — the
    // same class as a lost block — instead of crashing the process.
    out.status = fault.status();
  }
  out.elapsed = timer.ElapsedSeconds();
  mem::MemoryGovernor::SetCurrentExecutor(prev_executor);
  t_in_stage_task = was_in_task;
  out.ran = true;
  em.tasks.Increment();
  // Direct feed, like engine.tasks (see EngineMetrics).
  obs::CurrentQueryProfile()->tasks.fetch_add(1, std::memory_order_relaxed);
  em.task_seconds.Observe(out.elapsed);
  fr.Record(out.status.ok() ? obs::EventType::kTaskFinish
                            : obs::EventType::kTaskFail,
            stage_name_id, index, executor,
            static_cast<uint64_t>(out.elapsed * 1e6));
  if (!out.status.ok()) return;

  out.blocked = std::min(ctx.blocked_seconds(), out.elapsed);
  ctx.metrics().compute_seconds += out.elapsed - out.blocked;
  out.metrics = ctx.metrics();
  out.reads = ctx.reads();
}

bool Cluster::RunClaimedTask(const StageSpec& stage, const StagePlan& plan,
                             uint32_t name_id, QueryControl* control,
                             uint32_t index, uint32_t next, bool stolen,
                             size_t host, TaskResult& out) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  if (stolen) fr.Record(obs::EventType::kSteal, name_id, index, host, 0);
  // The task this lane runs next: fault its spilled inputs in while this
  // one executes (bounded by budget headroom, so it can never evict this
  // task's pins).
  if (plan.have_residency && next != TaskLanes::kNoTask &&
      !plan.resident[next]) {
    for (const PartitionInput& in : stage.tasks[next].inputs) {
      mem::MemoryGovernor::Global().PrefetchPartition(in.rdd, in.partition);
    }
  }
  ExecuteTask(stage, index, plan.assigned[index], name_id, control, out);
  if (plan.have_residency) {
    fr.Record(plan.resident[index] ? obs::EventType::kResidentHit
                                   : obs::EventType::kResidentMiss,
              name_id, index, 0, 0);
  }
  return out.status.ok();
}

Cluster::StagePlan Cluster::BuildStagePlan(
    const StageSpec& stage, const std::vector<ExecutorId>& alive) {
  const size_t n = stage.tasks.size();
  StagePlan plan;

  // Assignment: fix every task's executor up front, in task-index order. A
  // task keeps its preferred executor when alive; dead or unpinned
  // (kAnyExecutor) tasks round-robin across the alive set so they spread
  // instead of piling onto the first alive executor. The assignment depends
  // only on task order and the alive snapshot — work stealing moves tasks
  // between *host threads*, never between executors, so DES placement,
  // block homes, and shuffle accounting are identical to a sequential run.
  std::vector<uint32_t> lane_of_executor(config_.total_executors(), 0);
  std::vector<char> executor_alive(config_.total_executors(), 0);
  for (uint32_t lane = 0; lane < alive.size(); ++lane) {
    lane_of_executor[alive[lane]] = lane;
    executor_alive[alive[lane]] = 1;
  }
  plan.assigned.resize(n);
  plan.lane_of.resize(n);
  size_t rr = 0;
  for (size_t i = 0; i < n; ++i) {
    ExecutorId e = stage.tasks[i].preferred;
    if (e == kAnyExecutor || e >= executor_alive.size() ||
        !executor_alive[e]) {
      e = alive[rr++ % alive.size()];
    }
    plan.assigned[i] = e;
    plan.lane_of[i] = lane_of_executor[e];
  }

  // Residency-preferred dispatch order. One snapshot of the governor's
  // residency map per stage; tasks whose declared inputs are fully resident
  // dispatch ahead of tasks that would fault spilled bytes back in (stable
  // on task index, so the order is deterministic and collapses to
  // task-index order when residency is moot). Only the *claim* order
  // changes — executor assignment (above) and the task-index merge are
  // untouched, so results, metrics totals, and DES accounting stay
  // identical to a sequential run.
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0u);
  plan.resident.assign(n, 1);
  if (mem::MemoryGovernor::Engaged()) {
    bool any_inputs = false;
    for (const TaskSpec& t : stage.tasks) {
      if (!t.inputs.empty()) {
        any_inputs = true;
        break;
      }
    }
    if (any_inputs) {
      const mem::ResidencyMap residency =
          mem::MemoryGovernor::Global().ResidencySnapshot();
      for (size_t i = 0; i < n && !plan.have_residency; ++i) {
        for (const PartitionInput& in : stage.tasks[i].inputs) {
          auto it = residency.find({in.rdd, in.partition});
          if (it != residency.end() && it->second.spilled_bytes > 0) {
            plan.have_residency = true;
            break;
          }
        }
      }
      if (plan.have_residency) {
        for (size_t i = 0; i < n; ++i) {
          for (const PartitionInput& in : stage.tasks[i].inputs) {
            auto it = residency.find({in.rdd, in.partition});
            if (it != residency.end() && it->second.spilled_bytes > 0) {
              plan.resident[i] = 0;
              break;
            }
          }
        }
        std::stable_sort(plan.order.begin(), plan.order.end(),
                         [&](uint32_t a, uint32_t b) {
                           return plan.resident[a] > plan.resident[b];
                         });
      }
    }
  }
  return plan;
}

Result<StageMetrics> Cluster::RunStage(const StageSpec& stage) {
  // The owning query's cancellation token, captured once on the driver
  // thread (pool workers receive it through ExecuteTask). Null outside a
  // served query — all checks below collapse to a pointer compare.
  QueryControl* const control = CurrentQueryControl();
  if (control != nullptr) IDF_RETURN_IF_ERROR(control->Check());
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  // The owning query id, re-installed on every pool worker below so steal
  // and residency events (recorded on the worker before/after ExecuteTask)
  // attribute to this query, not to whatever ran on that thread last.
  const uint64_t query_id = control != nullptr && control->query_id() != 0
                                ? control->query_id()
                                : obs::CurrentQueryId();
  // Interned once per stage (cold); tasks reuse the id on their hot path.
  const uint32_t stage_name_id = fr.InternName(stage.name);
  const size_t n = stage.tasks.size();
  fr.Record(obs::EventType::kStageBegin, stage_name_id, n, 0, 0);
  Stopwatch stage_timer;

  // Phases 1 + 1.5 (driver): executor assignment and residency-preferred
  // claim order (BuildStagePlan — shared with the fused path).
  const std::vector<ExecutorId> alive = AliveExecutors();
  IDF_CHECK_MSG(!alive.empty(), "no alive executors");
  const StagePlan plan = BuildStagePlan(stage, alive);
  const std::vector<uint32_t>& order = plan.order;

  // Phase 2: execute. Parallel on the pool when the scheduler has threads
  // to spare; in-line sequential otherwise, and always in-line for a stage
  // launched from inside a task body (re-entrancy guard above).
  std::vector<TaskResult> results(n);
  const size_t workers = std::min<size_t>(scheduler_threads_, n);
  if (workers <= 1 || t_in_stage_task) {
    for (size_t k = 0; k < n; ++k) {
      const uint32_t next = k + 1 < n ? order[k + 1] : TaskLanes::kNoTask;
      if (!RunClaimedTask(stage, plan, stage_name_id, control, order[k], next,
                          /*stolen=*/false, /*host=*/0, results[order[k]])) {
        break;
      }
    }
  } else {
    TaskLanes lanes(plan.lane_of, alive.size(), order);
    std::atomic<bool> cancelled{false};
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      done.push_back(pool().Submit([&, w] {
        obs::QueryScope query_scope(query_id);
        uint32_t index = 0;
        bool stolen = false;
        uint32_t next_in_lane = TaskLanes::kNoTask;
        // First error wins: a failure flips `cancelled`, workers stop
        // claiming tasks, and already-running tasks finish undisturbed.
        while (!cancelled.load(std::memory_order_relaxed) &&
               lanes.Pop(w % alive.size(), &index, &stolen, &next_in_lane)) {
          if (!RunClaimedTask(stage, plan, stage_name_id, control, index,
                              next_in_lane, stolen, w, results[index])) {
            cancelled.store(true, std::memory_order_relaxed);
          }
        }
      }));
    }
    for (std::future<void>& f : done) f.get();
  }

  // Phase 3 (driver): merge outcomes in task-index order — the same
  // accounting, in the same order, as when tasks ran one by one.
  return FinishStage(stage.name, stage_name_id, stage_timer, control,
                     {{&stage, &plan, &results}});
}

Result<StageMetrics> Cluster::RunShuffleStages(uint64_t shuffle_id,
                                               const StageSpec& map_stage,
                                               const StageSpec& reduce_stage) {
  Result<StageMetrics> metrics =
      RunFusedStage(shuffle_id, map_stage, reduce_stage);
  shuffle_.Release(shuffle_id);
  return metrics;
}

Result<StageMetrics> Cluster::RunFusedStage(uint64_t shuffle_id,
                                            const StageSpec& map_stage,
                                            const StageSpec& reduce_stage) {
  QueryControl* const control = CurrentQueryControl();
  if (control != nullptr) IDF_RETURN_IF_ERROR(control->Check());
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  const uint64_t query_id = control != nullptr && control->query_id() != 0
                                ? control->query_id()
                                : obs::CurrentQueryId();
  const std::string fused_name = map_stage.name + "+" + reduce_stage.name;
  // Sub-stage names intern separately: the journal still groups task events
  // by which half of the fused stage they belong to.
  const uint32_t fused_name_id = fr.InternName(fused_name);
  const uint32_t map_name_id = fr.InternName(map_stage.name);
  const uint32_t reduce_name_id = fr.InternName(reduce_stage.name);
  const size_t num_map = map_stage.tasks.size();
  const size_t num_reduce = reduce_stage.tasks.size();
  fr.Record(obs::EventType::kStageBegin, fused_name_id, num_map + num_reduce,
            0, 0);
  Stopwatch stage_timer;

  // One alive snapshot for both halves; each half gets the same per-stage
  // assignment (round-robin restarting at 0) it would get from its own
  // RunStage call.
  const std::vector<ExecutorId> alive = AliveExecutors();
  IDF_CHECK_MSG(!alive.empty(), "no alive executors");
  const StagePlan map_plan = BuildStagePlan(map_stage, alive);
  const StagePlan reduce_plan = BuildStagePlan(reduce_stage, alive);

  std::vector<TaskResult> map_results(num_map);
  std::vector<TaskResult> reduce_results(num_reduce);
  const size_t workers =
      std::min<size_t>(scheduler_threads_, num_map + num_reduce);
  // Enforce the window only when running parallel: a sequential run pushes
  // every buffer before any consumer exists and would deadlock against it.
  const bool parallel = workers > 1 && !t_in_stage_task;
  if (parallel) shuffle_.EnforceWindow(shuffle_id, ShuffleWindowBytes());
  std::atomic<bool> cancelled{false};
  // First failure wakes everything blocked on the channels.
  const std::function<void()> fail = [&] {
    if (!cancelled.exchange(true, std::memory_order_relaxed)) {
      shuffle_.AbortStreaming(shuffle_id);
    }
  };
  PipelineContext pctx;
  pctx.cluster = this;
  pctx.map_stage = &map_stage;
  pctx.map_plan = &map_plan;
  pctx.map_results = &map_results;
  pctx.map_name_id = map_name_id;
  pctx.control = control;
  pctx.cancelled = &cancelled;
  pctx.fail = &fail;

  if (!parallel) {
    // Sequential: every map, then every reduce. No window is enforced, so
    // nothing can block.
    while (pctx.RunOneMapTask(/*home=*/0, /*helper=*/false)) {
    }
    for (size_t k = 0;
         k < num_reduce && !cancelled.load(std::memory_order_relaxed); ++k) {
      const uint32_t next =
          k + 1 < num_reduce ? reduce_plan.order[k + 1] : TaskLanes::kNoTask;
      const uint32_t i = reduce_plan.order[k];
      if (!RunClaimedTask(reduce_stage, reduce_plan, reduce_name_id, control,
                          i, next, /*stolen=*/false, /*host=*/0,
                          reduce_results[i])) {
        fail();
      }
    }
  } else {
    TaskLanes reduce_lanes(reduce_plan.lane_of, alive.size(),
                           reduce_plan.order);
    // Runs one pending reduce task for `home`'s lane; false when drained.
    auto run_one_reduce = [&](size_t home) -> bool {
      if (cancelled.load(std::memory_order_relaxed)) return false;
      uint32_t index = 0;
      bool stolen = false;
      uint32_t next_in_lane = TaskLanes::kNoTask;
      if (!reduce_lanes.Pop(home, &index, &stolen, &next_in_lane)) {
        return false;
      }
      if (!RunClaimedTask(reduce_stage, reduce_plan, reduce_name_id, control,
                          index, next_in_lane, stolen, home,
                          reduce_results[index])) {
        fail();
      }
      return true;
    };

    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      done.push_back(pool().Submit([&, w] {
        obs::QueryScope query_scope(query_id);
        const size_t home = w % alive.size();
        PipelineContext* const prev_ctx = t_pipeline_;
        const size_t prev_home = t_pipeline_home_;
        t_pipeline_ = &pctx;
        t_pipeline_home_ = home;
        // Alternating claim preference: odd workers drain reduce lanes
        // first so consumers come up while even workers feed the channels.
        // A reduce task that outpaces its producers steals map work through
        // the idle hook (TryHelpPipelinedMapTask) rather than sleeping.
        const bool reduce_first = (w % 2 == 1);
        while (!cancelled.load(std::memory_order_relaxed)) {
          bool ran;
          if (reduce_first) {
            ran = run_one_reduce(home) || pctx.RunOneMapTask(home, false);
          } else {
            ran = pctx.RunOneMapTask(home, false) || run_one_reduce(home);
          }
          if (!ran) break;
        }
        t_pipeline_ = prev_ctx;
        t_pipeline_home_ = prev_home;
      }));
    }
    for (std::future<void>& f : done) f.get();
  }

  // Merge in combined task-index order: maps, then reduces.
  return FinishStage(fused_name, fused_name_id, stage_timer, control,
                     {{&map_stage, &map_plan, &map_results},
                      {&reduce_stage, &reduce_plan, &reduce_results}});
}

Result<StageMetrics> Cluster::FinishStage(
    const std::string& name, uint32_t name_id, const Stopwatch& timer,
    QueryControl* control, std::initializer_list<StageHalf> halves) {
  // Failure selection prefers the first root-cause failure in task-index
  // order; the "shuffle aborted" statuses a fused stage's cancellation
  // itself induced only surface when no primary failure exists.
  const TaskResult* primary = nullptr;
  const TaskResult* secondary = nullptr;
  for (const StageHalf& half : halves) {
    for (const TaskResult& tr : *half.results) {
      if (!tr.ran || tr.status.ok()) continue;
      if (!IsShuffleAborted(tr.status) && primary == nullptr) primary = &tr;
      if (secondary == nullptr) secondary = &tr;
    }
  }
  const TaskResult* failed = primary != nullptr ? primary : secondary;
  if (failed != nullptr) {
    return Status(failed->status.code(), "stage '" + name +
                                             "' task failed: " +
                                             failed->status.message());
  }

  StageMetrics metrics;
  std::vector<SimTask> sim_tasks;
  for (const StageHalf& half : halves) {
    const StageSpec& stage = *half.stage;
    metrics.num_tasks += static_cast<uint32_t>(stage.tasks.size());
    for (uint32_t i = 0; i < half.results->size(); ++i) {
      const TaskResult& tr = (*half.results)[i];
      IDF_CHECK(tr.ran);
      metrics.totals.MergeFrom(tr.metrics);
      metrics.real_seconds += tr.elapsed;
      if (tr.metrics.recovery_seconds > 0) ++metrics.recovered_tasks;
      // DES compute is the task's own work: time a reducer spent running
      // map tasks through its idle hook or parked on its channel is left
      // out (the helped maps are simulated as their own tasks).
      sim_tasks.push_back(SimTask{tr.elapsed - tr.blocked,
                                  half.plan->assigned[i], tr.reads});
    }
  }

  const SimOutcome outcome = SimulateStage(config_, sim_tasks);
  metrics.simulated_seconds = outcome.makespan_seconds;
  metrics.network_seconds = outcome.network_seconds;
  metrics.wall_seconds = timer.ElapsedSeconds();
  obs::FlightRecorder::Global().Record(
      obs::EventType::kStageEnd, name_id, metrics.num_tasks,
      static_cast<uint64_t>(metrics.real_seconds * 1e6),
      static_cast<uint64_t>(metrics.wall_seconds * 1e6));
  IDF_LOG_DEBUG("stage '%s': %u tasks, real %.3fs, wall %.3fs, "
                "simulated %.3fs",
                name.c_str(), metrics.num_tasks, metrics.real_seconds,
                metrics.wall_seconds, metrics.simulated_seconds);
  if (control != nullptr) control->OnStageComplete();
  return metrics;
}

bool Cluster::TryHelpPipelinedMapTask() {
  PipelineContext* pctx = t_pipeline_;
  if (pctx == nullptr || pctx->cluster != this) return false;
  return pctx->RunOneMapTask(t_pipeline_home_, /*helper=*/true);
}

RoutedBufferStream OpenReduceStream(TaskContext& ctx, uint64_t shuffle_id,
                                    uint32_t reduce_part) {
  Cluster* cluster = &ctx.cluster();
  TaskContext* ctx_ptr = &ctx;
  return RoutedBufferStream(
      cluster->shuffle(), shuffle_id, reduce_part,
      /*idle=*/[cluster] { return cluster->TryHelpPipelinedMapTask(); },
      /*on_map_read=*/
      [ctx_ptr](ExecutorId source, uint64_t bytes) {
        ctx_ptr->AddRead(source, bytes);
      },
      /*on_blocked=*/
      [ctx_ptr](double seconds) { ctx_ptr->AddBlockedSeconds(seconds); });
}

ExecutorId Cluster::HomeExecutorFor(uint64_t rdd, uint32_t partition) const {
  const auto candidates = AliveExecutors();
  IDF_CHECK_MSG(!candidates.empty(), "no alive executors");
  const uint64_t h = HashCombine(Mix64(rdd), partition);
  return candidates[h % candidates.size()];
}

bool Cluster::IsAlive(ExecutorId e) const {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  return e < alive_.size() && alive_[e];
}

std::vector<ExecutorId> Cluster::AliveExecutorsLocked() const {
  std::vector<ExecutorId> out;
  for (ExecutorId e = 0; e < alive_.size(); ++e) {
    if (alive_[e]) out.push_back(e);
  }
  return out;
}

std::vector<ExecutorId> Cluster::AliveExecutors() const {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  return AliveExecutorsLocked();
}

size_t Cluster::KillExecutor(ExecutorId e) {
  {
    std::lock_guard<std::mutex> lock(alive_mutex_);
    IDF_CHECK(e < alive_.size());
    IDF_CHECK_MSG(AliveExecutorsLocked().size() > 1,
                  "cannot kill the last executor");
    alive_[e] = false;
  }
  return DropKilledExecutor(e);
}

bool Cluster::TryKillExecutor(ExecutorId e) {
  {
    std::lock_guard<std::mutex> lock(alive_mutex_);
    if (e >= alive_.size() || !alive_[e] ||
        AliveExecutorsLocked().size() <= 1) {
      return false;
    }
    alive_[e] = false;
  }
  DropKilledExecutor(e);
  return true;
}

size_t Cluster::DropKilledExecutor(ExecutorId e) {
  const size_t lost = blocks_.DropExecutor(e);
  obs::FlightRecorder::Global().Record(obs::EventType::kExecutorKill, 0, e,
                                       lost, 0);
  IDF_LOG_INFO("killed executor %u (%zu blocks lost)", e, lost);
  return lost;
}

void Cluster::ReviveExecutor(ExecutorId e) {
  std::lock_guard<std::mutex> lock(alive_mutex_);
  IDF_CHECK(e < alive_.size());
  alive_[e] = true;
}

void Cluster::RegisterLineage(uint64_t rdd, PartitionComputeFn fn) {
  std::lock_guard<std::mutex> lock(lineage_mutex_);
  lineage_[rdd] = std::move(fn);
}

Result<BlockPtr> Cluster::GetOrCompute(const BlockId& id, TaskContext& ctx) {
  {
    Result<BlockPtr> found = blocks_.Get(id);
    if (found.ok()) {
      auto home = blocks_.LocationOf(id);
      if (home.has_value() && *home != ctx.executor()) {
        // Reading a block homed elsewhere: model the transfer.
        ctx.AddRead(*home, (*found)->ByteSize());
      }
      return found;
    }
  }

  PartitionComputeFn fn;
  {
    std::lock_guard<std::mutex> lock(lineage_mutex_);
    auto it = lineage_.find(id.rdd);
    if (it == lineage_.end()) {
      return Status::Unavailable(id.ToString() +
                                 " lost and no lineage registered");
    }
    fn = it->second;
  }

  IDF_LOG_INFO("recomputing %s from lineage on executor %u",
               id.ToString().c_str(), ctx.executor());
  Stopwatch timer;
  Result<BlockPtr> recomputed = fn(id.partition, id.version, ctx);
  IDF_RETURN_IF_ERROR(recomputed.status());
  const double elapsed = timer.ElapsedSeconds();
  ctx.metrics().recovery_seconds += elapsed;
  obs::FlightRecorder::Global().Record(
      obs::EventType::kRecoveryBlock, 0, id.rdd, id.partition,
      static_cast<uint64_t>(elapsed * 1e6));
  blocks_.Put(id, ctx.executor(), *recomputed);
  return recomputed;
}

}  // namespace idf
