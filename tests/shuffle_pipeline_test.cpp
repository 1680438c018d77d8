// Streaming shuffle (src/engine/shuffle.h, docs/SHUFFLE.md).
//
// The contract under test: every shuffle consumer — createIndex, appends,
// the shuffled indexed join, the vanilla shuffled-hash and sort-merge joins
// (inner and left-outer), and both GROUP BY paths — is *byte-identical* on
// 1 and on 4 scheduler threads: same row order, same batch layouts, same
// COW/snapshot/metrics totals, at a budget above the working set and at 25%
// of it. The raw channel layer must deliver buffers in (map id, seal
// sequence) order, honor the window's always-admit-the-minimum-map
// carve-out, unwind cleanly on abort, and never hang a budgeted shuffle.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "engine/cluster.h"
#include "engine/shuffle.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "sql/session.h"

namespace idf {
namespace {

SchemaPtr EventSchema() {
  return std::make_shared<Schema>(Schema({
      {"user", TypeId::kInt64, true},
      {"event", TypeId::kInt64, false},
      {"score", TypeId::kFloat64, true},
  }));
}

RowVec Event(int64_t user, int64_t event, double score = 1.0) {
  return {Value::Int64(user), Value::Int64(event), Value::Float64(score)};
}

std::vector<RowVec> MakeRows(int64_t n, int64_t salt = 0) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Event((i * 7 + salt) % 131, i + salt * 1000000,
                         0.5 * static_cast<double>(i)));
  }
  return rows;
}

/// Like MakeRows, with every `stride`-th key NULL.
std::vector<RowVec> MakeRowsWithNullKeys(int64_t n, int64_t salt,
                                         int64_t stride) {
  std::vector<RowVec> rows = MakeRows(n, salt);
  for (int64_t i = 0; i < n; i += stride) {
    rows[i][0] = Value::Null(TypeId::kInt64);
  }
  return rows;
}

SessionOptions ClusterOptions() {
  ::unsetenv("IDF_MEMORY_BUDGET");
  ::unsetenv("IDF_PARALLEL");
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

IndexOptions SmallBatches() {
  IndexOptions options;
  options.batch_capacity = 16 << 10;
  return options;
}

/// Rows in delivery order (not sorted): identity means same order too.
std::vector<std::string> RowStrings(const CollectedTable& table) {
  std::vector<std::string> out;
  out.reserve(table.rows.size());
  for (const RowVec& row : table.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

/// Per-partition physical fingerprint: rows, batches, and byte layout.
struct PartitionShape {
  uint64_t num_rows;
  uint32_t num_batches;
  uint64_t data_bytes;
  uint64_t allocated_bytes;
  bool operator==(const PartitionShape&) const = default;
};

std::vector<PartitionShape> ShapesOf(Session& session,
                                     const IndexedDataFrame& idf) {
  std::vector<PartitionShape> shapes;
  TaskContext ctx(&session.cluster(), 0);
  for (uint32_t p = 0; p < idf.num_partitions(); ++p) {
    auto part = idf.rdd()->GetPartition(p, idf.version(), ctx);
    IDF_CHECK_OK(part.status());
    shapes.push_back({(*part)->num_rows(), (*part)->num_batches(),
                      (*part)->data_bytes(), (*part)->allocated_bytes()});
  }
  return shapes;
}

/// The TaskMetrics fields that must not depend on the thread count (timing
/// fields and the DES makespan legitimately differ).
struct InvariantTotals {
  uint64_t rows_read, rows_written, shuffle_read, shuffle_written;
  uint64_t index_probes, index_hits, batch_copies, ctrie_snapshots;

  static InvariantTotals Of(const QueryMetrics& m) {
    return {m.totals.rows_read,      m.totals.rows_written,
            m.totals.shuffle_bytes_read, m.totals.shuffle_bytes_written,
            m.totals.index_probes,   m.totals.index_hits,
            m.totals.batch_copies,   m.totals.ctrie_snapshots};
  }
  bool operator==(const InvariantTotals&) const = default;
};

/// One query's fingerprint: its rows in order plus its invariant totals.
struct QueryResult {
  std::vector<std::string> rows;
  InvariantTotals totals;
  bool operator==(const QueryResult&) const = default;
};

QueryResult CollectQuery(const DataFrame& df) {
  QueryMetrics metrics;
  auto collected = df.Collect(&metrics);
  IDF_CHECK_OK(collected.status());
  return {RowStrings(*collected), InvariantTotals::Of(metrics)};
}

/// A scenario's fingerprints on {1, 4} threads at a budget above the
/// working set ([0], [1]) and at 25% of it ([2], [3]).
template <typename Fingerprint>
using Matrix = std::array<Fingerprint, 4>;

/// Runs `scenario(session)` in a fresh session per cell. The first run
/// measures the working set (governed bytes resident at the end of the
/// scenario, nothing evicted under the roomy budget) that sizes the 25%
/// budget of the last two, which must really evict. Budgets go through the
/// cluster config: a Cluster reconfigures the governor on construction (an
/// ambient IDF_SPILL_DIR would reset a ScopedBudget).
template <typename Scenario>
auto RunMatrix(const Scenario& scenario,
               SessionOptions options = ClusterOptions()) {
  using Fingerprint = decltype(scenario(std::declval<Session&>()));
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t base = gov.resident_bytes();
  uint64_t working_set = 0;
  Matrix<Fingerprint> out;
  auto run = [&](size_t cell, uint32_t threads, uint64_t budget) {
    options.cluster.scheduler_threads = threads;
    options.cluster.memory_budget_bytes = budget;
    Session session(options);
    out[cell] = scenario(session);
    if (cell == 0) working_set = gov.resident_bytes() - base;
  };
  const uint64_t roomy = base + (1ull << 30);
  run(0, 1, roomy);
  run(1, 4, roomy);
  EXPECT_GT(working_set, 0u);
  obs::Counter& evictions =
      obs::Registry::Global().GetCounter("mem.evictions");
  const uint64_t evictions_before = evictions.value();
  const uint64_t quarter = base + working_set / 4;
  run(2, 1, quarter);
  run(3, 4, quarter);
  EXPECT_GT(evictions.value(), evictions_before);
  return out;
}

/// 1-thread vs 4-thread identity at both budgets, plus: the 25% budget
/// must not change the rows.
void ExpectRowsIdentical(const Matrix<QueryResult>& m) {
  EXPECT_TRUE(m[1] == m[0]) << "4 threads diverged at full budget";
  EXPECT_TRUE(m[3] == m[2]) << "4 threads diverged at 25% budget";
  EXPECT_EQ(m[2].rows, m[0].rows) << "25% budget changed the rows";
  EXPECT_FALSE(m[0].rows.empty());
}

// ---- indexed paths --------------------------------------------------------

struct IndexBuildResult {
  std::vector<std::string> scan;
  std::vector<PartitionShape> shapes;
  InvariantTotals totals;
  size_t lookup_hits;
  bool operator==(const IndexBuildResult&) const = default;
};

IndexBuildResult BuildIndex(Session& session) {
  auto events = *session.CreateTable("events", EventSchema(), MakeRows(12000));
  QueryMetrics metrics;
  auto indexed =
      *IndexedDataFrame::Create(events, "user", SmallBatches(), &metrics);
  IndexBuildResult r;
  r.scan = RowStrings(*indexed.AsDataFrame().Collect());
  r.shapes = ShapesOf(session, indexed);
  r.totals = InvariantTotals::Of(metrics);
  r.lookup_hits = indexed.GetRows(Value::Int64(13)).value().rows.size();
  return r;
}

TEST(ShufflePipelineTest, CreateIndexIdenticalAcrossThreadCounts) {
  const auto m = RunMatrix(BuildIndex);
  EXPECT_TRUE(m[1] == m[0]) << "4 threads diverged at full budget";
  EXPECT_GT(m[0].totals.shuffle_written, 0u);
}

TEST(ShufflePipelineTest, CreateIndexIdenticalUnderTightBudget) {
  const auto m = RunMatrix(BuildIndex);
  EXPECT_TRUE(m[3] == m[2]) << "4 threads diverged at 25% budget";
  EXPECT_EQ(m[2].scan, m[0].scan) << "25% budget changed the rows";
  EXPECT_EQ(m[2].lookup_hits, m[0].lookup_hits);
}

struct AppendChainResult {
  std::vector<std::string> final_scan;
  uint64_t final_rows;
  std::vector<InvariantTotals> per_append;
  bool operator==(const AppendChainResult&) const = default;
};

TEST(ShufflePipelineTest, ThreeDeepAppendChainIdenticalAcrossThreadCounts) {
  const auto m = RunMatrix([](Session& session) {
    auto base = *session.CreateTable("base", EventSchema(), MakeRows(6000));
    IndexedDataFrame head =
        *IndexedDataFrame::Create(base, "user", SmallBatches());
    AppendChainResult r;
    for (int64_t step = 1; step <= 3; ++step) {
      auto delta = *session.CreateTable("delta" + std::to_string(step),
                                        EventSchema(), MakeRows(1500, step));
      QueryMetrics metrics;
      head = *head.AppendRows(delta, &metrics);
      // COW batch opens and cTrie snapshots are the Fig. 9 costs; overlap
      // must not add or save a single copy.
      r.per_append.push_back(InvariantTotals::Of(metrics));
    }
    r.final_scan = RowStrings(*head.AsDataFrame().Collect());
    r.final_rows = head.num_rows();
    return r;
  });
  EXPECT_TRUE(m[1] == m[0]) << "4 threads diverged at full budget";
  EXPECT_TRUE(m[3] == m[2]) << "4 threads diverged at 25% budget";
  EXPECT_EQ(m[2].final_scan, m[0].final_scan);
  EXPECT_EQ(m[0].final_rows, 6000u + 3 * 1500);
}

TEST(ShufflePipelineTest, ShuffledIndexedJoinIdenticalAcrossThreadCounts) {
  SessionOptions opts = ClusterOptions();
  opts.broadcast_threshold_bytes = 0;  // force the shuffled probe path
  const auto m = RunMatrix(
      [](Session& session) {
        auto build =
            *session.CreateTable("build", EventSchema(), MakeRows(8000));
        auto probe =
            *session.CreateTable("probe", EventSchema(), MakeRows(900, 7));
        auto indexed =
            *IndexedDataFrame::Create(build, "user", SmallBatches());
        return CollectQuery(indexed.Join(probe, "user"));
      },
      opts);
  ExpectRowsIdentical(m);
  // Proof this exercised the shuffle path at all.
  EXPECT_GT(m[0].totals.index_probes, 0u);
  EXPECT_GT(m[0].totals.shuffle_written, 0u);
}

// ---- vanilla joins and aggregates ------------------------------------------

/// A vanilla join between two plain tables in `mode`, broadcast off.
Matrix<QueryResult> RunVanillaJoin(JoinExec::Mode mode, JoinType type) {
  SessionOptions opts = ClusterOptions();
  opts.broadcast_threshold_bytes = 0;
  opts.join_mode = mode;
  return RunMatrix(
      [type](Session& session) {
        auto left = *session.CreateTable("left", EventSchema(),
                                         MakeRowsWithNullKeys(5000, 3, 17));
        auto right = *session.CreateTable("right", EventSchema(),
                                          MakeRowsWithNullKeys(1200, 5, 11));
        return CollectQuery(left.Join(right, "user", "user", type));
      },
      opts);
}

TEST(ShufflePipelineTest, ShuffledHashJoinIdenticalAcrossThreadCounts) {
  const auto m =
      RunVanillaJoin(JoinExec::Mode::kShuffledHash, JoinType::kInner);
  ExpectRowsIdentical(m);
  EXPECT_GT(m[0].totals.shuffle_written, 0u);
}

TEST(ShufflePipelineTest, SortMergeJoinIdenticalAcrossThreadCounts) {
  const auto m = RunVanillaJoin(JoinExec::Mode::kSortMerge, JoinType::kInner);
  ExpectRowsIdentical(m);
  EXPECT_GT(m[0].totals.shuffle_written, 0u);
}

TEST(ShufflePipelineTest, StringKeySortMergeJoinIdenticalAcrossThreadCounts) {
  // String keys are views into the reduce task's shuffle buffers; repeated
  // keys exercise the stable tie order of the sort.
  auto schema = std::make_shared<Schema>(Schema({
      {"name", TypeId::kString, true},
      {"event", TypeId::kInt64, false},
      {"score", TypeId::kFloat64, true},
  }));
  auto named = [](std::vector<RowVec> rows) {
    for (RowVec& row : rows) {
      row[0] = row[0].is_null()
                   ? Value::Null(TypeId::kString)
                   : Value::String("user-" + row[0].ToString());
    }
    return rows;
  };
  SessionOptions opts = ClusterOptions();
  opts.broadcast_threshold_bytes = 0;
  opts.join_mode = JoinExec::Mode::kSortMerge;
  const auto m = RunMatrix(
      [&](Session& session) {
        auto left = *session.CreateTable(
            "left", schema, named(MakeRowsWithNullKeys(5000, 3, 17)));
        auto right = *session.CreateTable(
            "right", schema, named(MakeRowsWithNullKeys(1200, 5, 11)));
        return CollectQuery(left.Join(right, "name", "name"));
      },
      opts);
  ExpectRowsIdentical(m);
  EXPECT_GT(m[0].totals.shuffle_written, 0u);
}

TEST(ShufflePipelineTest, LeftOuterJoinWithNullKeysIdenticalAcrossThreadCounts) {
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kShuffledHash, JoinExec::Mode::kSortMerge}) {
    const auto m = RunVanillaJoin(mode, JoinType::kLeftOuter);
    ExpectRowsIdentical(m);
    // Null-key left rows survive, padded with nulls on the right.
    size_t padded = 0;
    for (const std::string& row : m[0].rows) {
      if (row.rfind("NULL|", 0) == 0) ++padded;
    }
    EXPECT_GT(padded, 0u);
  }
}

std::vector<AggSpec> GroupAggs() {
  return {AggSpec::Count(), AggSpec::Sum("score"), AggSpec::Min("event")};
}

TEST(ShufflePipelineTest, ColumnarGroupByIdenticalAcrossThreadCounts) {
  const auto m = RunMatrix([](Session& session) {
    auto events = *session.CreateTable("events", EventSchema(),
                                       MakeRowsWithNullKeys(9000, 1, 13));
    DataFrame agg = events.Agg({"user"}, GroupAggs());
    IDF_CHECK(agg.ExplainPhysical()->find("HashAggExec") != std::string::npos);
    return CollectQuery(agg);
  });
  ExpectRowsIdentical(m);
  EXPECT_EQ(m[0].rows.size(), 131u + 1);  // every key plus the NULL group
}

TEST(ShufflePipelineTest, RowDirectGroupByIdenticalAcrossThreadCounts) {
  const auto m = RunMatrix([](Session& session) {
    auto events =
        *session.CreateTable("events", EventSchema(), MakeRows(9000, 2));
    auto indexed = *IndexedDataFrame::Create(events, "user", SmallBatches());
    DataFrame agg = indexed.AsDataFrame().Agg({"event"}, GroupAggs());
    IDF_CHECK(agg.ExplainPhysical()->find("RowAgg") != std::string::npos);
    return CollectQuery(agg);
  });
  ExpectRowsIdentical(m);
  EXPECT_EQ(m[0].rows.size(), 9000u);
}

// ---- raw channel layer ----------------------------------------------------

ShuffleBuffer MakeBuffer(uint32_t fill, uint32_t bytes, ExecutorId source) {
  // One synthetic self-delimiting "row": [size][payload]. The channel layer
  // never parses rows, so any size >= 4 works for transport tests.
  ShuffleBuffer buf;
  buf.bytes.assign(bytes, static_cast<uint8_t>(fill));
  std::memcpy(buf.bytes.data(), &bytes, sizeof(bytes));
  buf.num_rows = 1;
  buf.source = source;
  return buf;
}

RoutedBufferStream StreamOf(ShuffleService& service, uint64_t id,
                            uint32_t reduce_part) {
  return RoutedBufferStream(service, id, reduce_part, [] { return false; },
                            [](ExecutorId, uint64_t) {});
}

TEST(ShufflePipelineTest, EightProducerStressDeliversOrderedByteStreams) {
  constexpr uint32_t kMaps = 8;
  constexpr uint32_t kReduces = 2;
  constexpr uint32_t kBuffersPerReduce = 16;
  constexpr uint32_t kBufBytes = 1024;

  ShuffleService service;
  const uint64_t id = service.NewShuffle(kMaps, kReduces);
  service.EnforceWindow(id, /*window_bytes=*/4 << 10);

  std::vector<std::thread> producers;
  for (uint32_t m = 0; m < kMaps; ++m) {
    producers.emplace_back([&, m] {
      for (uint32_t seq = 0; seq < kBuffersPerReduce; ++seq) {
        for (uint32_t r = 0; r < kReduces; ++r) {
          // Fill encodes (map, seq) so consumers can verify order.
          ASSERT_TRUE(service.PushMapOutput(
              id, m, r, MakeBuffer(m * 31 + seq, kBufBytes, m)));
        }
      }
      service.MapTaskFinished(id, m);
    });
  }

  std::vector<Status> consumer_status(kReduces, Status::OK());
  std::vector<std::thread> consumers;
  for (uint32_t r = 0; r < kReduces; ++r) {
    consumers.emplace_back([&, r] {
      RoutedBufferStream in = StreamOf(service, id, r);
      uint32_t expect_map = 0, expect_seq = 0;
      for (;;) {
        auto buf = in.Next();
        if (!buf.ok()) {
          consumer_status[r] = buf.status();
          return;
        }
        if (*buf == nullptr) break;
        // Ordered delivery: map-major, seal-sequence minor.
        ASSERT_EQ((*buf)->bytes.size(), kBufBytes);
        ASSERT_EQ((*buf)->bytes[8],
                  static_cast<uint8_t>(expect_map * 31 + expect_seq));
        ASSERT_EQ((*buf)->source, static_cast<ExecutorId>(expect_map));
        ASSERT_EQ(in.map_task(), expect_map);
        if (++expect_seq == kBuffersPerReduce) {
          expect_seq = 0;
          ++expect_map;
        }
      }
      ASSERT_EQ(expect_map, kMaps) << "reduce " << r << " missed buffers";
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  for (uint32_t r = 0; r < kReduces; ++r) {
    EXPECT_TRUE(consumer_status[r].ok()) << consumer_status[r].message();
  }
  const uint64_t total =
      uint64_t{kMaps} * kReduces * kBuffersPerReduce * kBufBytes;
  EXPECT_GT(service.InflightPeakBytes(id), 0u);
  EXPECT_LE(service.InflightPeakBytes(id), total);
  service.Release(id);
}

TEST(ShufflePipelineTest, WindowBlocksNonMinimalMapUntilCarveOutAdvances) {
  ShuffleService service;
  const uint64_t id = service.NewShuffle(/*maps=*/2, /*reduces=*/1);
  service.EnforceWindow(id, /*window_bytes=*/512);

  // Map 1 (not the minimum unfinished map) pushes a buffer larger than the
  // window: it must block until map 0 finishes and the carve-out advances.
  std::atomic<bool> map1_pushed{false};
  std::thread blocked([&] {
    ASSERT_TRUE(service.PushMapOutput(id, 1, 0, MakeBuffer(9, 1024, 1)));
    map1_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(map1_pushed.load()) << "window failed to block map 1";

  // Map 0 is always admitted (liveness carve-out), window full or not.
  ASSERT_TRUE(service.PushMapOutput(id, 0, 0, MakeBuffer(7, 1024, 0)));
  service.MapTaskFinished(id, 0);
  blocked.join();
  EXPECT_TRUE(map1_pushed.load());
  service.MapTaskFinished(id, 1);

  // Both buffers arrive, in map order, despite the reversed push order.
  RoutedBufferStream in = StreamOf(service, id, 0);
  auto first = in.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  EXPECT_EQ((*first)->bytes[8], 7);
  auto second = in.Next();
  ASSERT_TRUE(second.ok());
  ASSERT_NE(*second, nullptr);
  EXPECT_EQ((*second)->bytes[8], 9);
  auto end = in.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, nullptr);
  // The carve-out admitted ~2 KiB past a 512-byte window; peak is bounded by
  // window + the admitted maps' output, never the whole shuffle.
  EXPECT_LE(service.InflightPeakBytes(id), 512u + 2 * 1024u);
  service.Release(id);
}

TEST(ShufflePipelineTest, AbortUnblocksProducersAndConsumers) {
  ShuffleService service;
  const uint64_t id = service.NewShuffle(/*maps=*/2, /*reduces=*/1);
  service.EnforceWindow(id, /*window_bytes=*/256);

  // A consumer blocked on an empty channel and a non-minimal producer
  // blocked on a full window must both unwind when the shuffle aborts.
  std::atomic<bool> consumer_aborted{false};
  std::thread consumer([&] {
    RoutedBufferStream in = StreamOf(service, id, 0);
    for (;;) {
      auto buf = in.Next();  // drains real buffers, then blocks until abort
      if (!buf.ok()) {
        consumer_aborted.store(IsShuffleAborted(buf.status()));
        return;
      }
      if (*buf == nullptr) return;
    }
  });
  std::atomic<bool> producer_rejected{false};
  std::thread producer([&] {
    // Admitted (map 0 carve-out) — fills the window past its bound.
    service.PushMapOutput(id, 0, 0, MakeBuffer(1, 512, 0));
    // Map 1 now blocks on the window until the abort drops it.
    producer_rejected.store(
        !service.PushMapOutput(id, 1, 0, MakeBuffer(2, 512, 1)));
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.AbortStreaming(id);
  consumer.join();
  producer.join();
  EXPECT_TRUE(consumer_aborted.load());
  EXPECT_TRUE(producer_rejected.load());

  // ShuffleWriter surfaces the abort as the canonical status.
  ShuffleWriter writer(service, id, /*map_task=*/1, /*num_targets=*/1,
                       /*source=*/1, /*hint_rows=*/4);
  std::vector<uint8_t> row(512, 0);
  const uint32_t len = 512;
  std::memcpy(row.data(), &len, sizeof(len));
  Status status = Status::OK();
  // Push enough to cross the seal threshold and hit the aborted channel.
  for (int i = 0; i < 600 && status.ok(); ++i) {
    status = writer.Append(0, row.data(), len);
  }
  EXPECT_TRUE(IsShuffleAborted(status)) << status.message();
  service.Release(id);
}

// ---- liveness under a budget ----------------------------------------------

/// A sealed, governed one-column chunk tagged (owner, shard): a map task's
/// declared input, so the governor's residency map knows it.
std::shared_ptr<ColumnarChunk> GovernedChunk(uint64_t owner, uint32_t shard) {
  auto chunk = std::make_shared<ColumnarChunk>(std::make_shared<Schema>(
      Schema({{"v", TypeId::kInt64, false}})));
  for (int64_t i = 0; i < 64; ++i) {
    IDF_CHECK_OK(chunk->AppendRow({Value::Int64(i)}));
  }
  chunk->SealForCache(owner, shard);
  return chunk;
}

TEST(ShuffleLivenessTest, BudgetedShuffleNeverStrandsTheMinimalMap) {
  // Regression (ctest TIMEOUT guards the hang): more map tasks than
  // workers, a window smaller than one map's output, and map 0's input
  // spilled — which residency-preferred dispatch used to claim last in its
  // lane. Every worker, the reducer inside its idle hook included, then sat
  // parked pushing a later map against the full window while map 0 — the
  // one map the window always admits — was never claimed. Fused map tasks
  // are now claimed in ascending id, so the minimal map is always running.
  ::unsetenv("IDF_MEMORY_BUDGET");
  ::unsetenv("IDF_PARALLEL");
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();

  // One executor lane, two workers: fewer workers than map tasks.
  ClusterConfig config;
  config.num_workers = 1;
  config.executors_per_worker = 1;
  config.cores_per_executor = 2;
  config.scheduler_threads = 2;
  config.memory_budget_bytes = gov.resident_bytes() + (4 << 20);
  Cluster cluster(config);

  constexpr uint64_t kOwner = 990101;
  constexpr uint32_t kMaps = 3;
  std::vector<std::shared_ptr<ColumnarChunk>> inputs;
  for (uint32_t p = 0; p < kMaps; ++p) {
    inputs.push_back(GovernedChunk(kOwner, p));
  }
  ASSERT_EQ(gov.EvictPartition(kOwner, 0), 1u);
  const uint64_t window = ShuffleWindowBytes();
  ASSERT_LT(window, uint64_t{4} << 20);
  // Each map routes four windows' worth of rows to the single reducer.
  constexpr uint32_t kRowBytes = 4096;
  const uint64_t rows_per_map = 4 * window / kRowBytes;

  const uint64_t id = cluster.shuffle().NewShuffle(kMaps, 1);
  StageSpec map_stage;
  map_stage.name = "liveness map";
  for (uint32_t m = 0; m < kMaps; ++m) {
    map_stage.tasks.push_back(TaskSpec{
        kAnyExecutor,
        [&, m](TaskContext& ctx) -> Status {
          ShuffleWriter writer(cluster.shuffle(), id, m, 1, ctx.executor(),
                               rows_per_map);
          std::vector<uint8_t> row(kRowBytes, static_cast<uint8_t>(m));
          std::memcpy(row.data(), &kRowBytes, sizeof(kRowBytes));
          Status routed = Status::OK();
          for (uint64_t i = 0; i < rows_per_map && routed.ok(); ++i) {
            routed = writer.Append(0, row.data(), kRowBytes);
          }
          const Status finished = writer.Finish();
          return routed.ok() ? finished : routed;
        },
        {{kOwner, m}}});
  }
  std::vector<uint64_t> rows_from(kMaps, 0);
  StageSpec reduce_stage;
  reduce_stage.name = "liveness reduce";
  reduce_stage.tasks.push_back(TaskSpec{
      kAnyExecutor,
      [&](TaskContext& ctx) -> Status {
        RoutedBufferStream in = OpenReduceStream(ctx, id, 0);
        for (;;) {
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<const ShuffleBuffer> buf,
                               in.Next());
          if (buf == nullptr) return Status::OK();
          rows_from[in.map_task()] += buf->num_rows;
        }
      },
      {}});

  auto metrics = cluster.RunShuffleStages(id, map_stage, reduce_stage);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(rows_from, std::vector<uint64_t>(kMaps, rows_per_map));
}

TEST(ShufflePipelineTest, HelpedSlowMapsDoNotInflateTheFusedStageDes) {
  // A reduce task that outpaces its producers runs pending map tasks
  // through its idle hook and parks on its channel; neither is its own
  // compute. The DES charges the helped maps as their own tasks and leaves
  // both out of the reducer, so the simulated makespan (and the summed task
  // compute) at 4 scheduler threads stays that of the 1-thread run (maps,
  // then trivial reduces).
  ::unsetenv("IDF_PARALLEL");
  static constexpr uint32_t kMaps = 8;
  static constexpr uint32_t kReduces = 2;
  auto run = [&](uint32_t threads, uint64_t* steals) {
    ClusterConfig config;
    config.num_workers = 2;
    config.executors_per_worker = 2;
    config.cores_per_executor = 1;
    config.scheduler_threads = threads;
    Cluster cluster(config);
    const uint64_t id = cluster.shuffle().NewShuffle(kMaps, kReduces);
    StageSpec map_stage;
    map_stage.name = "slow map";
    for (uint32_t m = 0; m < kMaps; ++m) {
      map_stage.tasks.push_back(TaskSpec{
          kAnyExecutor,
          [&cluster, id, m](TaskContext& ctx) -> Status {
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
            ShuffleWriter writer(cluster.shuffle(), id, m, kReduces,
                                 ctx.executor(), kReduces);
            const uint8_t row[8] = {8, 0, 0, 0, 1, 2, 3, 4};
            for (uint32_t r = 0; r < kReduces; ++r) {
              IDF_RETURN_IF_ERROR(writer.Append(r, row, sizeof(row)));
            }
            return writer.Finish();
          },
          {}});
    }
    StageSpec reduce_stage;
    reduce_stage.name = "eager reduce";
    for (uint32_t r = 0; r < kReduces; ++r) {
      reduce_stage.tasks.push_back(TaskSpec{
          kAnyExecutor,
          [id, r](TaskContext& ctx) -> Status {
            RoutedBufferStream in = OpenReduceStream(ctx, id, r);
            for (;;) {
              IDF_ASSIGN_OR_RETURN(std::shared_ptr<const ShuffleBuffer> buf,
                                   in.Next());
              if (buf == nullptr) return Status::OK();
            }
          },
          {}});
    }
    obs::RegistryDelta delta;
    Result<StageMetrics> metrics =
        cluster.RunShuffleStages(id, map_stage, reduce_stage);
    IDF_CHECK_OK(metrics.status());
    *steals = delta.Counter("engine.scheduler.steals");
    return *metrics;
  };
  uint64_t steals_1 = 0;
  uint64_t steals_4 = 0;
  const StageMetrics serial = run(1, &steals_1);
  const StageMetrics parallel = run(4, &steals_4);
  EXPECT_EQ(steals_1, 0u);
  EXPECT_GT(steals_4, 0u) << "no reducer helped a map; nothing was tested";
  // The 1-thread DES makespan: 8 maps of >= 15 ms over 4 simulated slots.
  EXPECT_GE(serial.simulated_seconds, 0.030);
  EXPECT_LE(parallel.simulated_seconds, serial.simulated_seconds * 1.25)
      << "serial " << serial.simulated_seconds << " s, 4 threads "
      << parallel.simulated_seconds << " s";
  // The task compute totals behind EXPLAIN ANALYZE leave the same time out.
  EXPECT_LE(parallel.totals.compute_seconds,
            serial.totals.compute_seconds * 1.25)
      << "serial " << serial.totals.compute_seconds << " s, 4 threads "
      << parallel.totals.compute_seconds << " s";
}

}  // namespace
}  // namespace idf
