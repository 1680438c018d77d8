// The three workloads. Each takes its seed, generates SNB edges with the
// paper's own generator (power-law out-degree, indexed on edge_source), and
// measures from outside through public calls only.
//
//   point_lookup     4 closed-loop clients, 80% getRows / 20% SQL lookup,
//                    uniform keys, no memory budget: the read path alone.
//   mixed_spill      4 closed-loop clients, 70% getRows / 10% SQL lookup /
//                    10% small indexed join / 10% append + read-back, Zipf
//                    keys, governed table bytes >= 2x the memory budget:
//                    writes beside reads with a working set over the cache.
//   batch_analytics  one driver thread, no query service: index builds,
//                    three-way large joins, append chains, tip lookups and a
//                    columnar scan (batch.h).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "batch.h"
#include "common/hash.h"
#include "ctrie/ctrie.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "server/query_service.h"

namespace perfbench {

using namespace idf;

namespace {

constexpr uint32_t kClients = 4;
// Set-ups per run; setup_s is their median, which a cold first set-up in
// the process does not decide.
constexpr int kSetUps = 5;
// Time the serving workloads give the batch suite after serving (at least
// three cycles; one at the tiny scale).
constexpr double kServingSuiteSeconds = 10;

/// Progress on stderr, so a slow or stuck phase can be told apart.
void Progress(const char* what) {
  static const auto start = Clock::now();
  std::fprintf(stderr, "[perfbench %7.2f s, rss %.0f MB] %s\n",
               SecondsSince(start), RssMb(), what);
}
constexpr uint64_t kMb = 1ull << 20;

/// A session holding the indexed edge table.
struct Table {
  std::unique_ptr<Session> session;
  DataFrame edges;
  IndexedDataFrame indexed;
};

/// Sets the table up `times` times (session, edge generation, index build,
/// SQL registration, memory budget) and keeps the last. Every set-up is
/// timed; the first in a process runs on a cold heap and thread pool.
///
/// The budget is engaged once the index is built, through the governor the
/// cluster configures: a budgeted createIndex can hang in the streaming
/// shuffle (see README.md), so the build itself runs unbudgeted.
Table SetUp(const SnbGenerator& gen, const SessionOptions& options,
            const IndexOptions& index_options, uint64_t budget_bytes,
            const std::string& spill_dir, int times, RunContext& ctx,
            Latencies& build_s) {
  mem::MemoryGovernor& governor = mem::MemoryGovernor::Global();
  Table table;
  for (int i = 0; i < times; ++i) {
    table = Table{};
    governor.Configure(0, spill_dir);
    const uint64_t faults0 = MinorFaults();
    const auto t0 = Clock::now();
    table.session = std::make_unique<Session>(options);
    Result<DataFrame> edges = gen.Edges(*table.session);
    IDF_CHECK_OK(edges.status());
    table.edges = *edges;
    const uint64_t steal0 = ReadCpuTicks().steal;
    const auto t1 = Clock::now();
    Result<IndexedDataFrame> indexed =
        IndexedDataFrame::Create(table.edges, "edge_source", index_options);
    IDF_CHECK_OK(indexed.status());
    build_s.Add(SecondsSince(t1), ReadCpuTicks().steal - steal0);
    table.indexed = *indexed;
    table.indexed.RegisterAs("edges");
    if (budget_bytes > 0) governor.Configure(budget_bytes);
    ctx.setup_samples_s.push_back(SecondsSince(t0));
    ctx.setup_minor_faults.push_back(MinorFaults() - faults0);
  }
  return table;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

const obs::MetricSnapshot* Find(const std::vector<obs::MetricSnapshot>& all,
                                const std::string& name) {
  for (const obs::MetricSnapshot& m : all) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double CounterOf(const std::vector<obs::MetricSnapshot>& all,
                 const std::string& name) {
  const obs::MetricSnapshot* m = Find(all, name);
  return m ? static_cast<double>(m->counter_value) : 0;
}

double GaugeOf(const std::vector<obs::MetricSnapshot>& all,
               const std::string& name) {
  const obs::MetricSnapshot* m = Find(all, name);
  return m ? m->gauge_value : 0;
}

double HistSumOf(const std::vector<obs::MetricSnapshot>& all,
                 const std::string& name) {
  const obs::MetricSnapshot* m = Find(all, name);
  return m ? m->sum : 0;
}

/// Per-layer counts of one phase, divided over the operations it ran.
void ReportPerQuery(const obs::RegistryDelta& phase, uint64_t ops,
                    MetricSheet& sheet) {
  const std::vector<obs::MetricSnapshot> d = phase.Deltas();
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  sheet.Set("engine.tasks_per_query", CounterOf(d, "engine.tasks") / n, "count");
  sheet.Set("engine.steals_per_query",
            CounterOf(d, "engine.scheduler.steals") / n, "count");
  sheet.Set("mem.evictions_per_kquery", CounterOf(d, "mem.evictions") / n * 1e3,
            "count");
  sheet.Set("mem.reload_faults_per_query", CounterOf(d, "mem.reload_faults") / n,
            "count");
}

/// Per-layer totals over everything after set-up.
void ReportRunCounters(const obs::RegistryDelta& run, MetricSheet& sheet) {
  const std::vector<obs::MetricSnapshot> d = run.Deltas();
  sheet.Set("engine.shuffle.pushed_mb",
            CounterOf(d, "engine.shuffle.pushed_bytes") / kMb, "MB");
  sheet.Set("engine.shuffle.stall_ms",
            HistSumOf(d, "engine.shuffle.stall_seconds") * 1e3, "ms");
  sheet.Set("engine.shuffle.inflight_peak_mb",
            GaugeOf(d, "engine.shuffle.inflight_peak_bytes") / kMb, "MB");
  sheet.Set("storage.batches_opened", CounterOf(d, "storage.batches.opened"),
            "count");
  sheet.Set("storage.cow_opens", CounterOf(d, "storage.batches.cow_opens"),
            "count");
  sheet.Set("storage.resident_mb", GaugeOf(d, "storage.resident_bytes") / kMb,
            "MB");
  sheet.Set("mem.spill_write_mb", CounterOf(d, "mem.spill.write_bytes") / kMb,
            "MB");
  sheet.Set("mem.reload_mb", CounterOf(d, "mem.reload.read_bytes") / kMb, "MB");
  sheet.Set("mem.pin_blocks", CounterOf(d, "mem.pin_blocks"), "count");
  const double hits = CounterOf(d, "sched.resident_hits");
  const double misses = CounterOf(d, "sched.resident_misses");
  sheet.Set("mem.resident_hit_ratio", Ratio(hits, hits + misses), "ratio");
  sheet.Set("mem.prefetch_useful_ratio",
            Ratio(CounterOf(d, "mem.prefetch.reloads"),
                  CounterOf(d, "mem.prefetch.requests")),
            "ratio");
  sheet.Set("obs.ring_lapped", CounterOf(d, "obs.ring.lapped"), "count");
}

void ReportLayerSamples(const LayerSamples& l, const BatchSamples& batch,
                        MetricSheet& sheet) {
  sheet.Set("server.admission_wait_ms.p50", l.admission_ms.Quantile(0.5), "ms");
  sheet.Set("server.driver_ms.p50", l.driver_ms.Quantile(0.5), "ms");
  sheet.Set("sql.parse_us.p50", l.parse_us.Quantile(0.5), "us");
  sheet.Set("sql.plan_us.p50", l.plan_us.Quantile(0.5), "us");
  sheet.Set("sql.collect_us.p50", l.collect_us.Quantile(0.5), "us");
  sheet.Set("engine.dispatch_us.p50", l.dispatch_us.Quantile(0.5), "us");
  // Appends are served in mixed_spill; elsewhere they are the suite's.
  const Latencies& appends = l.append_ms.size() > 0 ? l.append_ms : batch.append_ms;
  sheet.Set("core.append_ms.p50", appends.Quantile(0.5), "ms");
}

/// Per-layer numbers that need no operation mix: the batch suite's ratios,
/// direct probes of the partition, row layout and cTrie, and the table's
/// memory footprint.
void ReportTableLayers(const Table& t, const BatchSamples& batch,
                       const SnbGenerator& gen, uint64_t seed, bool tiny,
                       MetricSheet& sheet) {
  sheet.Set("sql.hash_build_ms", batch.hash_build_ms.Quantile(0.5), "ms");
  sheet.Set("sql.rows_read_per_row_out",
            Ratio(static_cast<double>(batch.rows_read),
                  static_cast<double>(batch.rows_out)),
            "ratio");
  sheet.Set("engine.simulated_s", Ratio(batch.simulated_s, batch.cycles), "s");
  sheet.Set("core.index_hit_ratio",
            Ratio(static_cast<double>(batch.index_hits),
                  static_cast<double>(batch.index_probes)),
            "ratio");
  sheet.Set("core.batch_copies_per_append",
            Ratio(static_cast<double>(batch.batch_copies),
                  static_cast<double>(batch.appends)),
            "count");
  sheet.Set("core.versions_live",
            static_cast<double>(t.indexed.rdd()->Versions().size()), "count");

  // GetPartition + ForEachRowOfKey on the driver, as a task on the
  // partition's home executor runs them: the floor of a lookup. Row
  // pointers stay valid while the access scope pins their batches.
  Cluster& cluster = t.session->cluster();
  const IndexedRdd& rdd = *t.indexed.rdd();
  Rng rng(HashCombine(seed, 0x1a7e5));
  const int probes = tiny ? 200 : 5000;
  Latencies partition_us;
  uint64_t rows_seen = 0;
  double decode_ns = 0;
  uint64_t decoded = 0;
  std::vector<const uint8_t*> found;
  for (int i = 0; i < probes; ++i) {
    const Value key = Value::Int64(
        static_cast<int64_t>(rng.Below(gen.config().num_vertices)));
    const uint64_t code = IndexKeyCode(key);
    const uint32_t p = rdd.PartitionOf(code);
    TaskContext task(&cluster, cluster.HomeExecutorFor(rdd.rdd_id(), p));
    mem::AccessScope scope;
    found.clear();
    try {
      const auto t0 = Clock::now();
      Result<std::shared_ptr<const IndexedPartition>> part =
          rdd.GetPartition(p, t.indexed.version(), task);
      IDF_CHECK_OK(part.status());
      rows_seen += (*part)->ForEachRowOfKey(
          code, [&](const uint8_t* row) { found.push_back(row); });
      partition_us.Add(SecondsSince(t0) * 1e6);
      const RowLayout& layout = (*part)->layout();
      const auto t1 = Clock::now();
      for (const uint8_t* row : found) {
        RowVec decoded_row = layout.DecodeRow(row);
        decoded += decoded_row.size() > 0;
      }
      decode_ns += SecondsSince(t1) * 1e9;
    } catch (const mem::ReloadFault& fault) {
      std::fprintf(stderr, "partition probe: %s\n", fault.what());
    }
  }
  sheet.Set("core.partition_lookup_us.p50", partition_us.Quantile(0.5), "us");
  sheet.Set("core.rows_per_lookup",
            Ratio(static_cast<double>(rows_seen), probes), "count");
  sheet.Set("storage.decode_ns_per_row",
            Ratio(decode_ns, static_cast<double>(decoded)), "ns");

  // A cTrie filled with the workload's keys, in row order (each put
  // replaces the key's latest-row pointer, as an index build does).
  const uint64_t n = std::min<uint64_t>(gen.config().num_edges,
                                        tiny ? 20000 : 300000);
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = static_cast<uint64_t>(gen.EdgeRow(i)[0].int64_value());
  }
  CTrie<uint64_t, uint64_t> trie;
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) trie.Put(keys[i], i);
  sheet.Set("ctrie.insert_ns", SecondsSince(t0) * 1e9 / n, "ns");
  uint64_t hits = 0;
  t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) hits += trie.Lookup(keys[(i * 7919) % n]).has_value();
  sheet.Set("ctrie.lookup_ns", SecondsSince(t0) * 1e9 / n, "ns");
  IDF_CHECK(hits == n);
  const int snapshots = tiny ? 1000 : 20000;
  double snapshot_ns = 0;
  for (int i = 0; i < snapshots; ++i) {
    const auto s0 = Clock::now();
    CTrie<uint64_t, uint64_t> snap = trie.Snapshot();
    snapshot_ns += SecondsSince(s0) * 1e9;
    trie.Put(keys[i % n], i);  // the next snapshot follows a write
  }
  sheet.Set("ctrie.snapshot_ns", snapshot_ns / snapshots, "ns");

  Result<std::vector<PartitionMemory>> report = t.indexed.MemoryReport();
  IDF_CHECK_OK(report.status());
  double data = 0, index = 0;
  for (const PartitionMemory& pm : *report) {
    data += static_cast<double>(pm.data_bytes);
    index += static_cast<double>(pm.index_bytes);
  }
  sheet.Set("core.index_overhead", Ratio(index, data), "ratio");
}

/// Data + index bytes per row of a table version, from MemoryReport.
double BytesPerRow(const IndexedDataFrame& t, uint64_t* data_bytes) {
  Result<std::vector<PartitionMemory>> report = t.MemoryReport();
  IDF_CHECK_OK(report.status());
  double bytes = 0, rows = 0;
  *data_bytes = 0;
  for (const PartitionMemory& pm : *report) {
    bytes += static_cast<double>(pm.data_bytes + pm.index_bytes);
    rows += static_cast<double>(pm.num_rows);
    *data_bytes += pm.data_bytes;
  }
  return Ratio(bytes, rows);
}

// ---- serving ---------------------------------------------------------------------

struct ServingSpec {
  uint64_t rows;
  uint64_t budget_bytes;  // 0 = unbudgeted
  double zipf;            // key skew; 0 = uniform keys
  int lookup_pct, sql_pct, join_pct;  // the rest appends
  uint32_t batch_capacity;  // row batch bytes; 0 = the 4 MB default
};

ServingSpec SpecFor(const RunOptions& opt) {
  if (opt.workload == "point_lookup") {
    return {opt.tiny ? 20000ull : 1000000ull, 0, 0, 80, 20, 0, 0};
  }
  // 640k edges govern ~36 MB of row batches: more than twice the budget.
  // Batches of 64 KB, not the 4 MB default: only four of those fit in the
  // budget, so every lookup would reload megabytes.
  return {opt.tiny ? 40000ull : 640000ull, opt.tiny ? kMb : 16 * kMb, 0.9, 70,
          10, 10, 64u << 10};
}

enum Phase : int { kWarmup, kUntraced, kTraced, kStop };

/// What one client thread measured.
constexpr int kServedTypes = kOpAppend + 1;  // lookup, SQL, join, append

/// One untraced served operation: when it completed and how long it took.
struct Completion {
  int64_t end_ns;
  double ms;
};

struct ClientStats {
  std::vector<Completion> done[kServedTypes];  // untraced, by operation type
  uint64_t window_ops[kStop] = {};  // started and finished in one phase
  uint64_t traced_ops = 0, traced_stages = 0;
  Outcome outcome;
  LayerSamples layers;
  TraceSink sink;
};

struct Serving {
  const ServingSpec& spec;
  const EdgeTruth& truth;
  Table& table;
  std::shared_ptr<const IndexedDataset> dataset;
  std::vector<InputTable> probes;
  std::vector<InputTable> appends;
  std::atomic<int> phase{kWarmup};

  void Client(server::QueryService& service, uint32_t id, uint64_t seed,
              ClientStats& out);
};

void Serving::Client(server::QueryService& service, uint32_t id,
                     uint64_t seed, ClientStats& out) {
  Rng rng(HashCombine(seed, 0xc1c1 + id));
  const uint64_t keys = truth.key_digest.size();
  ZipfSampler zipf(keys, spec.zipf > 0 ? spec.zipf : 1.0);
  Session& session = *table.session;
  OpSpans spans;  // reused: traced operations allocate nothing per call
  while (true) {
    const int start_phase = phase.load(std::memory_order_acquire);
    if (start_phase == kStop) break;
    const int roll = static_cast<int>(rng.Below(100));
    const int64_t key = static_cast<int64_t>(spec.zipf > 0 ? zipf.Sample(rng)
                                                           : rng.Below(keys));
    OpType type = kOpAppend;
    if (roll < spec.lookup_pct) {
      type = kOpLookup;
    } else if (roll < spec.lookup_pct + spec.sql_pct) {
      type = kOpSqlLookup;
    } else if (roll < spec.lookup_pct + spec.sql_pct + spec.join_pct) {
      type = kOpJoin;
    }
    const InputTable& probe = probes[rng.Below(probes.size())];
    const InputTable& batch = appends[rng.Below(appends.size())];
    uint64_t expected = 0;
    switch (type) {
      case kOpLookup:
      case kOpSqlLookup: expected = truth.key_digest[key]; break;
      case kOpJoin: expected = probe.digest; break;
      default: expected = batch.digest; break;
    }

    const bool traced = start_phase == kTraced;
    spans.Clear();
    OpCtx ctx;
    int root = -1, admission = -1;
    if (traced) {
      ctx.spans = &spans;
      root = spans.Begin(OpTypeName(type), kUnattributed, -1);
      admission = spans.Begin("server.admission", kServer, root);
      ctx.parent = root;
    }
    bool rows_ok = true;
    server::QueryWork work = [&](server::QueryContext& qc) -> Status {
      if (traced) spans.End(admission);
      SpanScope driver(ctx, "server.driver", kServer);
      Result<CollectedTable> result = Status::OK();
      switch (type) {
        case kOpLookup: result = Lookup(dataset, key, ctx); break;
        case kOpSqlLookup: result = SqlLookup(session, "edges", key, ctx); break;
        case kOpJoin: result = IndexedJoin(table.indexed, probe.df, ctx); break;
        default: {
          // Every append forks a new version off the base table; the
          // appended key must read back from it.
          IDF_ASSIGN_OR_RETURN(IndexedDataFrame next,
                               Append(table.indexed, batch.df, ctx));
          rows_ok = next.num_rows() ==
                    table.indexed.num_rows() + batch.rows.size();
          result = Lookup(std::make_shared<const IndexedDataset>(
                              next.rdd(), next.version()),
                          batch.key, ctx);
          SpanScope retire(ctx, "engine.retire", kEngine);
          RetireVersion(next);
        }
      }
      IDF_RETURN_IF_ERROR(result.status());
      qc.result = std::move(*result);
      return Status::OK();
    };
    const auto t0 = Clock::now();
    server::QueryHandle handle = service.Submit(std::move(work));
    const Status status = handle.Wait();
    const double ms = SecondsSince(t0) * 1e3;
    if (traced) spans.End(root);
    const int end_phase = phase.load(std::memory_order_acquire);

    ++out.outcome.attempted;
    if (!status.ok()) {
      out.outcome.Fail(std::string(OpTypeName(type)) + ": " + status.ToString());
      continue;
    }
    Result<CollectedTable> result = handle.TakeResult();
    if (!result.ok() || DigestOf(*result) != expected || !rows_ok) {
      out.outcome.Mismatch(std::string(OpTypeName(type)) + " key " +
                           std::to_string(type == kOpAppend ? batch.key : key));
    }
    if (start_phase != end_phase) continue;
    ++out.window_ops[start_phase];
    if (start_phase == kUntraced) {
      out.done[type].push_back({NowNs(), ms});
    } else if (traced) {
      ++out.traced_ops;
      out.traced_stages += ctx.metrics.num_stages;
      out.layers.Add(type, spans);
      out.sink.Record(type, spans);
    }
  }
}

}  // namespace

bool RunServing(const RunOptions& opt, MetricSheet& sheet, RunContext& ctx,
                Outcome& outcome) {
  const ServingSpec spec = SpecFor(opt);
  SnbConfig config = SnbConfig::ScaleFactor(spec.rows / 1e6, 8, opt.seed);
  config.num_edges = spec.rows;
  const SnbGenerator gen(config);
  Progress("set-up");
  Latencies build_s;
  IndexOptions index_options;
  if (spec.batch_capacity > 0) index_options.batch_capacity = spec.batch_capacity;
  Table table = SetUp(gen, BaseSessionOptions(), index_options,
                      spec.budget_bytes, opt.out_dir + "/spill",
                      opt.tiny ? 1 : kSetUps, ctx, build_s);
  Progress("ground truth");
  EdgeTruth truth;
  truth.Build(gen);

  ctx.rows = spec.rows;
  ctx.distinct_keys = config.num_vertices;
  ctx.clients = kClients;
  ctx.budget_bytes = mem::MemoryGovernor::Global().budget_bytes();
  sheet.Set("bytes_per_row", BytesPerRow(table.indexed, &ctx.governed_table_bytes),
            "B");
  if (spec.budget_bytes > 0 && ctx.governed_table_bytes < 2 * spec.budget_bytes) {
    std::fprintf(stderr, "table governs %llu bytes, under twice the budget\n",
                 static_cast<unsigned long long>(ctx.governed_table_bytes));
    return false;
  }

  Progress("serving inputs");
  Serving serving{spec, truth, table, {}, {}, {}};
  serving.dataset = std::make_shared<const IndexedDataset>(
      table.indexed.rdd(), table.indexed.version());
  serving.probes = MakeProbes(gen, truth, *table.session, kSmallProbes,
                              opt.tiny ? 5 : 20,
                              HashCombine(opt.seed, 0x9e0be));
  serving.appends = MakeAppendBatches(gen, *table.session, 8,
                                      opt.tiny ? 50 : 500, spec.rows, "append");
  for (InputTable& batch : serving.appends) {
    HashesByKey extra;
    AddHashesByKey(batch.rows, extra);
    batch.digest = truth.LookupDigest(batch.key, extra[batch.key]);
  }
  ctx.probe_rows = serving.probes[0].rows.size();

  Progress("serving");
  obs::RegistryDelta run_delta;
  std::vector<ClientStats> stats(kClients);
  double window_s[kStop] = {};
  int64_t untraced_start_ns = 0;
  std::vector<uint64_t> window_steal;  // per untraced window, clock ticks
  {
    // Clients release each result they read; what queries leave cached
    // besides (intermediate tables) is dropped once the clients are done.
    OutputScope outputs(*table.session);
    // Explicit defaults, so the environment cannot reconfigure the service;
    // the reservation is capped at the budget, or the tiny self-test scale
    // would reject every query.
    server::QueryServiceConfig service_config;
    if (ctx.budget_bytes > 0) {
      service_config.default_reservation_bytes = std::min<uint64_t>(
          service_config.default_reservation_bytes, ctx.budget_bytes);
    }
    server::QueryService service(*table.session, service_config);
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serving.Client(service, c, opt.seed, stats[c]);
      });
    }
    const double warmup = opt.tiny ? 0.2 : std::min(1.0, opt.seconds / 10);
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    // The untraced phase runs in one-second windows; the host's steal is
    // read at each window's end.
    auto run_phase = [&](Phase p, double seconds) {
      const auto t0 = Clock::now();
      const int n = p == kUntraced ? std::max(1, static_cast<int>(seconds)) : 1;
      CpuTicks before = ReadCpuTicks();
      const CpuTicks first = before;
      if (p == kUntraced) untraced_start_ns = NowNs();
      serving.phase.store(p, std::memory_order_release);
      for (int i = 1; i <= n; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds * i / n)));
        const CpuTicks now = ReadCpuTicks();
        if (p == kUntraced) window_steal.push_back(now.steal - before.steal);
        before = now;
      }
      window_s[p] = SecondsSince(t0);
      if (p == kUntraced && before.total > first.total) {
        ctx.serving_steal_pct = 100.0 * (before.steal - first.steal) /
                                (before.total - first.total);
      }
    };
    std::unique_ptr<obs::RegistryDelta> traced_delta;
    if (opt.trace) {
      run_phase(kUntraced, opt.seconds / 2);
      traced_delta = std::make_unique<obs::RegistryDelta>();
      run_phase(kTraced, opt.seconds / 2);
    } else {
      run_phase(kUntraced, opt.seconds);
    }
    serving.phase.store(kStop, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    service.Shutdown(/*cancel_pending=*/false);
    if (traced_delta) {
      uint64_t traced_ops = 0;
      for (const ClientStats& s : stats) traced_ops += s.window_ops[kTraced];
      ReportPerQuery(*traced_delta, traced_ops, sheet);
    }
  }

  ClientStats all;
  for (ClientStats& s : stats) {
    for (int t = 0; t < kServedTypes; ++t) {
      all.done[t].insert(all.done[t].end(), s.done[t].begin(), s.done[t].end());
    }
    for (int p = 0; p < kStop; ++p) all.window_ops[p] += s.window_ops[p];
    all.traced_ops += s.traced_ops;
    all.traced_stages += s.traced_stages;
    all.outcome.Merge(s.outcome);
    all.layers.Append(s.layers);
    all.sink.Merge(s.sink);
  }
  outcome.Merge(all.outcome);
  // Throughput and latencies are taken per one-second window of the
  // untraced phase, from the half of the windows in which the hypervisor
  // took the least CPU from this machine, as the mid-mean over those. On a
  // shared host, steal stalls every hand-off between client, query driver
  // and task thread: 7% steal over a run halved point-lookup qps.
  const int windows = static_cast<int>(window_steal.size());
  const double window_ns = window_s[kUntraced] * 1e9 / windows;
  std::vector<int> by_steal(windows);
  for (int i = 0; i < windows; ++i) by_steal[i] = i;
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](int a, int b) {
    return window_steal[a] < window_steal[b];
  });
  std::vector<bool> quiet(windows, false);
  ctx.quiet_windows = (windows + 1) / 2;
  for (int i = 0; i < ctx.quiet_windows; ++i) quiet[by_steal[i]] = true;
  auto window_of = [&](int64_t t) {
    const auto i = static_cast<int64_t>((t - untraced_start_ns) / window_ns);
    return static_cast<size_t>(std::clamp<int64_t>(i, 0, windows - 1));
  };
  std::vector<uint64_t> ops_in(windows, 0);
  // Per operation type: the mid-mean over windows of each window's quantile.
  auto windowed = [&](int type, double q) {
    std::vector<Latencies> in(windows);
    for (const Completion& c : all.done[type]) in[window_of(c.end_ns)].Add(c.ms);
    Latencies per_window;
    for (int i = 0; i < windows; ++i) {
      if (quiet[i] && in[i].size() > 0) per_window.Add(in[i].Quantile(q));
    }
    return per_window.MidMean();
  };
  Latencies lookup_all;
  for (int t = 0; t < kServedTypes; ++t) {
    for (const Completion& c : all.done[t]) {
      ++ops_in[window_of(c.end_ns)];
      if (t == kOpLookup) lookup_all.Add(c.ms);
    }
  }
  Latencies window_qps;
  for (int i = 0; i < windows; ++i) {
    if (quiet[i]) window_qps.Add(ops_in[i] / (window_ns / 1e9));
  }
  const double qps = window_qps.MidMean();
  sheet.Set("qps", qps, "1/s");
  sheet.Set("lookup_p50_ms", windowed(kOpLookup, 0.5), "ms");
  sheet.Set("lookup_p90_ms", windowed(kOpLookup, 0.9), "ms");
  sheet.Set("sql_lookup_p50_ms", windowed(kOpSqlLookup, 0.5), "ms");
  if (spec.join_pct > 0) {
    sheet.Set("join_p50_ms", windowed(kOpJoin, 0.5), "ms");
    sheet.Set("append_p50_ms", windowed(kOpAppend, 0.5), "ms");
  }
  std::printf("serving: %llu ops in %.2f s untraced; lookup p99 %.4f ms over "
              "%zu samples (not gated)\n",
              static_cast<unsigned long long>(all.window_ops[kUntraced]),
              window_s[kUntraced], lookup_all.Quantile(0.99),
              lookup_all.size());
  sheet.Set("build_rows_per_s", spec.rows / build_s.QuietMidMean(), "1/s");

  // The batch suite, a few cycles on this table: the operations this
  // workload's mix leaves out, measured in its regime.
  // Shorter chains and fewer tip lookups than batch_analytics, and the
  // large joins three times a cycle; each metric is a median over the
  // cycles' samples.
  BatchParams params{2000, 3, 128, 20, 20, 5000, 200, 50};
  if (opt.tiny) params = {200, 1, 2, 5, 3, 200, 50, 20};
  Progress("batch suite");
  BatchSuite suite(gen, truth, *table.session, table.edges, params, opt.seed,
                   /*trace_point_ops=*/false);
  TraceSink* sink = opt.trace ? &all.sink : nullptr;
  // The suite runs unbudgeted: under the budget its single operations
  // spread by a third from run to run on a shared host, and the budgeted
  // regime is what the serving phase measures.
  if (spec.budget_bytes > 0) mem::MemoryGovernor::Global().Configure(0);
  const int min_cycles = opt.tiny ? 1 : 3;
  const double suite_seconds = opt.tiny ? 0 : kServingSuiteSeconds;
  const auto suite_start = Clock::now();
  for (int cycle = 0;
       cycle < min_cycles || SecondsSince(suite_start) < suite_seconds;
       ++cycle) {
    suite.RunCycle(table.indexed, sink, outcome);
  }
  ReportBatch(suite.samples(), sheet);

  Progress("per-layer report");
  if (opt.trace) {
    sheet.Set("engine.stages_per_query",
              Ratio(all.traced_stages, all.traced_ops), "count");
    const double untraced_qps = all.window_ops[kUntraced] / window_s[kUntraced];
    const double traced_qps = all.window_ops[kTraced] / window_s[kTraced];
    sheet.Set("obs.trace_overhead_pct",
              Ratio(untraced_qps - traced_qps, untraced_qps) * 100, "%");
    all.layers.Append(suite.layers());
    ReportLayerSamples(all.layers, suite.samples(), sheet);
    sheet.Set("core.build_s", build_s.Quantile(0.5), "s");
    ReportRunCounters(run_delta, sheet);
    ReportTableLayers(table, suite.samples(), gen, opt.seed, opt.tiny, sheet);
    if (!ReportBreakdown(all.sink, sheet)) return false;
    WriteSpans(all.sink, opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl");
  }
  sheet.Set("mem.spill_dir_mb",
            DirBytes(mem::MemoryGovernor::Global().spill_dir()) /
                static_cast<double>(kMb),
            "MB");
  return true;
}

bool RunBatchWorkload(const RunOptions& opt, MetricSheet& sheet,
                      RunContext& ctx, Outcome& outcome) {
  SnbConfig config = SnbConfig::ScaleFactor(opt.tiny ? 0.02 : 1.0, 8, opt.seed);
  const SnbGenerator gen(config);
  Progress("set-up");
  Latencies setup_build_s;
  Table table = SetUp(gen, BaseSessionOptions(), IndexOptions{}, 0,
                      opt.out_dir + "/spill", opt.tiny ? 1 : kSetUps, ctx,
                      setup_build_s);
  Progress("ground truth");
  EdgeTruth truth;
  truth.Build(gen);
  ctx.rows = config.num_edges;
  ctx.distinct_keys = config.num_vertices;
  ctx.clients = 1;
  sheet.Set("bytes_per_row", BytesPerRow(table.indexed, &ctx.governed_table_bytes),
            "B");

  BatchParams params;
  if (opt.tiny) params = {200, 1, 2, 5, 3, 200, 50, 20};
  Progress("batch inputs");
  BatchSuite suite(gen, truth, *table.session, table.edges, params, opt.seed,
                   /*trace_point_ops=*/true);
  Progress("cycles");
  ctx.probe_rows = params.probe_rows;

  // Cycles until the measured time is spent (at least two); in the traced
  // run the second half is traced and compared with the first.
  obs::RegistryDelta run_delta;
  std::unique_ptr<obs::RegistryDelta> traced_delta;
  uint64_t traced_ops_before = 0;
  Latencies untraced_cycle_s, traced_cycle_s;
  TraceSink sink;
  const auto start = Clock::now();
  for (int cycle = 0;; ++cycle) {
    const double elapsed = SecondsSince(start);
    if (cycle >= 3 && elapsed >= opt.seconds) break;
    const bool traced = opt.trace && (elapsed >= opt.seconds / 2 || cycle == 1);
    if (traced && !traced_delta) {
      traced_delta = std::make_unique<obs::RegistryDelta>();
      traced_ops_before = outcome.attempted;
    }
    const auto t0 = Clock::now();
    Result<IndexedDataFrame> built = suite.BuildIndex(traced ? &sink : nullptr,
                                                      outcome);
    if (!built.ok()) return false;
    suite.RunCycle(*built, traced ? &sink : nullptr, outcome);
    (traced ? traced_cycle_s : untraced_cycle_s).Add(SecondsSince(t0));
    // Uncache the cycle's index and every version appended to it.
    table.session->cluster().blocks().DropRdd(built->rdd()->rdd_id());
  }
  ReportBatch(suite.samples(), sheet);

  if (opt.trace) {
    ReportPerQuery(*traced_delta, outcome.attempted - traced_ops_before, sheet);
    const double base = untraced_cycle_s.Quantile(0.5);
    sheet.Set("obs.trace_overhead_pct",
              Ratio(traced_cycle_s.Quantile(0.5) - base, base) * 100, "%");
    sheet.Set("engine.stages_per_query",
              Ratio(suite.samples().stages, suite.samples().ops), "count");
    ReportLayerSamples(suite.layers(), suite.samples(), sheet);
    sheet.Set("core.build_s", suite.samples().build_s.Quantile(0.5), "s");
    ReportRunCounters(run_delta, sheet);
    ReportTableLayers(table, suite.samples(), gen, opt.seed, opt.tiny, sheet);
    if (!ReportBreakdown(sink, sheet)) return false;
    WriteSpans(sink, opt.out_dir + "/spans-" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".jsonl");
  }
  sheet.Set("mem.spill_dir_mb",
            DirBytes(mem::MemoryGovernor::Global().spill_dir()) /
                static_cast<double>(kMb),
            "MB");
  return true;
}

}  // namespace perfbench
