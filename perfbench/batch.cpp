#include "batch.h"

#include "common/hash.h"
#include "sql/expr.h"

namespace perfbench {

using namespace idf;

namespace {

/// One operation of the suite: its spans when traced, and its context.
/// Everything the operation leaves cached on its session is dropped when
/// it ends (the engine keeps every query output until the session ends).
class SuiteOp {
 public:
  SuiteOp(Session& session, TraceSink* sink, OpType op, BatchSamples& samples,
          LayerSamples& layers)
      : outputs(session),
        sink_(sink),
        op_(op),
        samples_(samples),
        layers_(layers) {
    if (sink_ == nullptr) return;
    ctx.spans = &spans_;
    ctx.parent = spans_.Begin(OpTypeName(op), kUnattributed, -1);
  }
  /// Ends the operation: what follows (checking the result) is the
  /// benchmark's own work, outside the operation's span.
  void Done() {
    if (sink_ == nullptr || done_) return;
    done_ = true;
    spans_.End(0);
  }
  ~SuiteOp() {
    ++samples_.ops;
    samples_.stages += ctx.metrics.num_stages;
    if (sink_ == nullptr) return;
    Done();
    layers_.Add(op_, spans_);
    sink_->Record(op_, spans_);
  }
  SuiteOp(const SuiteOp&) = delete;
  SuiteOp& operator=(const SuiteOp&) = delete;

  OutputScope outputs;  // destroyed after the root span has ended
  OpCtx ctx;

 private:
  TraceSink* sink_;
  OpType op_;
  BatchSamples& samples_;
  LayerSamples& layers_;
  OpSpans spans_;
  bool done_ = false;
};

double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

}  // namespace

struct BatchSuite::Vanilla {
  std::unique_ptr<Session> session;
  DataFrame edges;
  DataFrame probe;
};

BatchSuite::BatchSuite(const SnbGenerator& gen, const EdgeTruth& truth,
                       Session& session, const DataFrame& edges,
                       const BatchParams& params, uint64_t seed,
                       bool trace_point_ops)
    : gen_(gen),
      truth_(truth),
      session_(session),
      edges_(edges),
      params_(params),
      trace_point_ops_(trace_point_ops),
      rng_(HashCombine(seed, 0xba7c4)) {
  const uint64_t probe_seed = HashCombine(seed, 0x9f0be);
  probe_ = MakeProbes(gen, truth, session, 1, params.probe_rows,
                      probe_seed)[0];
  small_probes_ = MakeProbes(gen, truth, session, kSmallProbes,
                             params.small_probe_rows,
                             HashCombine(seed, 0x5a11));
  // Chained rows come from past the serving workloads' append batches.
  chain_ = MakeAppendBatches(gen, session, params.chain_appends,
                             params.rows_per_append,
                             gen.config().num_edges + (1ull << 32), "chain");
  for (const InputTable& batch : chain_) AddHashesByKey(batch.rows, chain_hashes_);

  auto make_vanilla = [&](JoinExec::Mode mode) {
    auto v = std::make_unique<Vanilla>();
    SessionOptions options = session.options();
    options.broadcast_threshold_bytes = 0;
    options.join_mode = mode;
    v->session = std::make_unique<Session>(options);
    Result<DataFrame> e = gen.Edges(*v->session);
    Result<DataFrame> p =
        gen.EdgeSample(*v->session, params.probe_rows, HashCombine(probe_seed, 0));
    IDF_CHECK_OK(e.status());
    IDF_CHECK_OK(p.status());
    v->edges = *e;
    v->probe = *p;
    return v;
  };
  hash_ = make_vanilla(JoinExec::Mode::kShuffledHash);
  sortmerge_ = make_vanilla(JoinExec::Mode::kSortMerge);
}

BatchSuite::~BatchSuite() = default;

Result<IndexedDataFrame> BatchSuite::BuildIndex(TraceSink* sink,
                                                Outcome& outcome) {
  SuiteOp op(session_, sink, kOpBuild, samples_, layers_);
  ++outcome.attempted;
  const uint64_t steal0 = ReadCpuTicks().steal;
  const auto t0 = Clock::now();
  Result<IndexedDataFrame> built = Build(edges_, op.ctx);
  op.Done();
  if (!built.ok()) {
    outcome.Fail("build: " + built.status().ToString());
    return built;
  }
  samples_.build_s.Add(SecondsSince(t0), ReadCpuTicks().steal - steal0);
  op.outputs.Keep(built->rdd()->rdd_id());
  samples_.build_rows += built->num_rows();
  samples_.simulated_s += op.ctx.metrics.simulated_seconds;
  if (built->num_rows() != gen_.config().num_edges) {
    outcome.Mismatch("build holds " + std::to_string(built->num_rows()) +
                     " rows");
  }
  return built;
}

void BatchSuite::LargeJoin(const DataFrame& joined, OpType op_type,
                           Latencies& out_ms, TraceSink* sink,
                           Outcome& outcome) {
  SuiteOp op(*joined.session(), sink, op_type, samples_, layers_);
  ++outcome.attempted;
  // The metric times planning and execution; collecting 10^5 rows through
  // Value for the check would otherwise dominate it.
  const uint64_t steal0 = ReadCpuTicks().steal;
  const auto t0 = Clock::now();
  Result<TableHandle> out = PlanAndExecute(joined, op.ctx);
  const double ms = MsSince(t0);
  const uint64_t steal = ReadCpuTicks().steal - steal0;
  if (!out.ok()) {
    outcome.Fail(std::string(OpTypeName(op_type)) + ": " +
                 out.status().ToString());
    return;
  }
  out_ms.Add(ms, steal);
  const TaskMetrics& m = op.ctx.metrics.totals;
  samples_.rows_read += m.rows_read;
  samples_.rows_out += out->num_rows;
  samples_.simulated_s += op.ctx.metrics.simulated_seconds;
  if (op_type == kOpIndexedJoin) {
    samples_.index_probes += m.index_probes;
    samples_.index_hits += m.index_hits;
  }
  if (op_type == kOpHashJoin) samples_.hash_build_ms.Add(m.hash_build_seconds * 1e3);
  Result<CollectedTable> rows =
      CollectAndRelease(*joined.session(), *out, op.ctx);
  op.Done();
  if (!rows.ok()) {
    outcome.Fail(std::string(OpTypeName(op_type)) + " collect: " +
                 rows.status().ToString());
  } else if (DigestOf(*rows) != probe_.digest) {
    outcome.Mismatch(std::string(OpTypeName(op_type)) + " digest");
  }
}

void BatchSuite::RunCycle(const IndexedDataFrame& table, TraceSink* sink,
                          Outcome& outcome) {
  // Where the workload serves lookups, joins and appends through the query
  // service, those operation types in the trace are the served ones.
  TraceSink* point_sink = trace_point_ops_ ? sink : nullptr;
  // Large joins: the same probe, three physical strategies, one digest;
  // repeated for more samples per run.
  for (uint32_t rep = 0; rep < params_.large_join_reps; ++rep) {
    LargeJoin(table.Join(probe_.df, "edge_source"), kOpIndexedJoin,
              samples_.indexed_join_ms, sink, outcome);
    LargeJoin(hash_->edges.Join(hash_->probe, "edge_source", "edge_source"),
              kOpHashJoin, samples_.hash_join_ms, sink, outcome);
    LargeJoin(sortmerge_->edges.Join(sortmerge_->probe, "edge_source",
                                     "edge_source"),
              kOpSortMergeJoin, samples_.sortmerge_join_ms, sink, outcome);
  }

  for (uint32_t i = 0; i < params_.small_joins; ++i) {
    // Every cycle takes the next probes, so the median spans many keys.
    const InputTable& probe = small_probes_[next_probe_++ % small_probes_.size()];
    SuiteOp op(session_, point_sink, kOpJoin, samples_, layers_);
    ++outcome.attempted;
    const auto t0 = Clock::now();
    Result<CollectedTable> rows = IndexedJoin(table, probe.df, op.ctx);
    const double ms = MsSince(t0);
    op.Done();
    if (!rows.ok()) {
      outcome.Fail("small join: " + rows.status().ToString());
      continue;
    }
    samples_.small_join_ms.Add(ms);
    if (DigestOf(*rows) != probe.digest) outcome.Mismatch("small join digest");
  }

  // Append chain: each version is the next one's parent.
  IndexedDataFrame tip = table;
  std::vector<IndexedDataFrame> chain;
  double append_s = 0;
  uint64_t appended = 0;
  const uint64_t chain_steal0 = ReadCpuTicks().steal;
  for (const InputTable& batch : chain_) {
    SuiteOp op(session_, point_sink, kOpAppend, samples_, layers_);
    ++outcome.attempted;
    const auto t0 = Clock::now();
    Result<IndexedDataFrame> next = Append(tip, batch.df, op.ctx);
    const double s = SecondsSince(t0);
    op.Done();
    if (!next.ok()) {
      outcome.Fail("chain append: " + next.status().ToString());
      return;
    }
    if (next->num_rows() != tip.num_rows() + batch.rows.size()) {
      outcome.Mismatch("append version holds " +
                       std::to_string(next->num_rows()) + " rows");
    }
    samples_.append_ms.Add(s * 1e3);
    samples_.batch_copies += op.ctx.metrics.totals.batch_copies;
    samples_.simulated_s += op.ctx.metrics.simulated_seconds;
    ++samples_.appends;
    append_s += s;
    appended += batch.rows.size();
    tip = *next;
    chain.push_back(tip);
  }
  if (append_s > 0) {
    samples_.append_rows_per_s.Add(appended / append_s,
                                   ReadCpuTicks().steal - chain_steal0);
  }

  // Point and SQL lookups against the chain's tip; the last appended key
  // first, so an append that lost rows shows.
  auto tip_truth = [&](int64_t key) {
    auto it = chain_hashes_.find(key);
    return truth_.LookupDigest(
        key, it == chain_hashes_.end() ? std::vector<uint64_t>{} : it->second);
  };
  const uint64_t keys = gen_.config().num_vertices;
  auto dataset = std::make_shared<const IndexedDataset>(tip.rdd(), tip.version());
  for (uint32_t i = 0; i < params_.tip_lookups; ++i) {
    const int64_t key = i == 0 ? chain_.back().key
                               : static_cast<int64_t>(rng_.Below(keys));
    SuiteOp op(session_, point_sink, kOpLookup, samples_, layers_);
    ++outcome.attempted;
    const auto t0 = Clock::now();
    Result<CollectedTable> rows = Lookup(dataset, key, op.ctx);
    const double s = SecondsSince(t0);
    op.Done();
    if (!rows.ok()) {
      outcome.Fail("tip lookup: " + rows.status().ToString());
      continue;
    }
    samples_.tip_lookup_ms.Add(s * 1e3);
    ++samples_.point_queries;
    samples_.point_query_s += s;
    if (DigestOf(*rows) != tip_truth(key)) outcome.Mismatch("tip lookup digest");
  }
  tip.RegisterAs("edges_tip");
  for (uint32_t i = 0; i < params_.sql_lookups; ++i) {
    const int64_t key = static_cast<int64_t>(rng_.Below(keys));
    SuiteOp op(session_, point_sink, kOpSqlLookup, samples_, layers_);
    ++outcome.attempted;
    const auto t0 = Clock::now();
    Result<CollectedTable> rows = SqlLookup(session_, "edges_tip", key, op.ctx);
    const double s = SecondsSince(t0);
    op.Done();
    if (!rows.ok()) {
      outcome.Fail("tip sql lookup: " + rows.status().ToString());
      continue;
    }
    samples_.sql_lookup_ms.Add(s * 1e3);
    ++samples_.point_queries;
    samples_.point_query_s += s;
    if (DigestOf(*rows) != tip_truth(key)) {
      outcome.Mismatch("tip sql lookup digest");
    }
  }

  // Columnar filter + aggregate over the plain edge table, three times.
  for (int rep = 0; rep < 3; ++rep) {
    SuiteOp op(session_, sink, kOpScanAgg, samples_, layers_);
    ++outcome.attempted;
    DataFrame agg =
        edges_.Filter(Gt(Col("creation_date"), Lit(EdgeTruth::kScanCreatedAfter)))
            .Agg({"edge_source"},
                 {AggSpec::Count("n"), AggSpec::Sum("edge_dest", "s")});
    const uint64_t steal0 = ReadCpuTicks().steal;
    const auto t0 = Clock::now();
    Result<TableHandle> out = PlanAndExecute(agg, op.ctx);
    const double ms = MsSince(t0);
    const uint64_t steal = ReadCpuTicks().steal - steal0;
    if (!out.ok()) {
      outcome.Fail("scan agg: " + out.status().ToString());
    } else {
      samples_.scan_agg_ms.Add(ms, steal);
      samples_.rows_read += op.ctx.metrics.totals.rows_read;
      samples_.rows_out += out->num_rows;
      samples_.simulated_s += op.ctx.metrics.simulated_seconds;
      Result<CollectedTable> rows = CollectAndRelease(session_, *out, op.ctx);
      op.Done();
      if (!rows.ok()) {
        outcome.Fail("scan agg collect: " + rows.status().ToString());
      } else if (DigestOf(*rows) != truth_.scan_agg_digest) {
        outcome.Mismatch("scan agg digest");
      }
    }
  }
  for (const IndexedDataFrame& version : chain) RetireVersion(version);
  ++samples_.cycles;
}

void ReportBatch(const BatchSamples& s, MetricSheet& sheet) {
  if (s.build_s.size() > 0) {
    sheet.Set("build_rows_per_s",
              static_cast<double>(s.build_rows) / s.build_s.size() /
                  s.build_s.QuietMidMean(),
              "1/s");
  }
  sheet.Set("indexed_join_ms", s.indexed_join_ms.QuietMidMean(), "ms");
  sheet.Set("hash_join_ms", s.hash_join_ms.QuietMidMean(), "ms");
  sheet.Set("sortmerge_join_ms", s.sortmerge_join_ms.QuietMidMean(), "ms");
  sheet.Set("append_rows_per_s", s.append_rows_per_s.QuietMidMean(), "1/s");
  sheet.Set("chain_lookup_us", s.tip_lookup_ms.MidMean() * 1e3, "us");
  sheet.Set("scan_agg_ms", s.scan_agg_ms.QuietMidMean(), "ms");
  // Serving-side metrics the workload did not measure under concurrency
  // come from the suite's single-driver operations.
  auto fallback = [&](const char* name, double value, const char* unit) {
    if (!sheet.Has(name)) sheet.Set(name, value, unit);
  };
  fallback("qps",
           s.point_query_s > 0 ? s.point_queries / s.point_query_s : 0, "1/s");
  fallback("lookup_p50_ms", s.tip_lookup_ms.Quantile(0.5), "ms");
  fallback("lookup_p90_ms", s.tip_lookup_ms.Quantile(0.9), "ms");
  fallback("sql_lookup_p50_ms", s.sql_lookup_ms.Quantile(0.5), "ms");
  fallback("join_p50_ms", s.small_join_ms.Quantile(0.5), "ms");
  fallback("append_p50_ms", s.append_ms.Quantile(0.5), "ms");
}

}  // namespace perfbench
