#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <sys/resource.h>

#include "common/hash.h"
#include "mem/governor.h"

namespace perfbench {

using namespace idf;

// ---- MetricSheet ---------------------------------------------------------------

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricSheet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " +
           JsonNumber(value) + ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

void MetricSheet::Print() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("  %-40s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
}

// ---- Outcome -------------------------------------------------------------------

void Outcome::Merge(const Outcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  mismatches += o.mismatches;
  for (const std::string& e : o.first_errors) {
    if (first_errors.size() < 8) first_errors.push_back(e);
  }
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (first_errors.size() < 8) first_errors.push_back("failed: " + what);
}

void Outcome::Mismatch(const std::string& what) {
  ++mismatches;
  if (first_errors.size() < 8) first_errors.push_back("mismatch: " + what);
}

// ---- Latencies -------------------------------------------------------------------

double Latencies::QuietMidMean() const {
  if (steal_.size() != values_.size() || values_.empty()) return MidMean();
  std::vector<uint64_t> steal = steal_;
  std::nth_element(steal.begin(), steal.begin() + steal.size() / 2, steal.end());
  const uint64_t limit = steal[steal.size() / 2];
  Latencies quiet;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (steal_[i] <= limit) quiet.Add(values_[i]);
  }
  return quiet.MidMean();
}

double Latencies::MidMean() const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t lo = n / 4, hi = n - n / 4;
  double s = 0;
  for (size_t i = lo; i < hi; ++i) s += sorted[i];
  return s / static_cast<double>(hi - lo);
}

double Latencies::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// ---- digests ---------------------------------------------------------------------

uint64_t RowHash(const RowVec& row, uint64_t seed) {
  uint64_t h = seed;
  for (const Value& v : row) {
    h = HashCombine(h, static_cast<uint64_t>(v.type()));
    h = HashCombine(h, v.Hash());
  }
  return h;
}

uint64_t DigestOfHashes(std::vector<uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  uint64_t d = HashCombine(0x5eed, hashes.size());
  for (uint64_t h : hashes) d = HashCombine(d, h);
  return d;
}

uint64_t DigestOf(const CollectedTable& table) {
  std::vector<uint64_t> hashes;
  hashes.reserve(table.rows.size());
  for (const RowVec& row : table.rows) hashes.push_back(RowHash(row));
  return DigestOfHashes(std::move(hashes));
}

// ---- ground truth ------------------------------------------------------------------

void EdgeTruth::Build(const SnbGenerator& gen) {
  const SnbConfig& c = gen.config();
  row_hash.assign(c.num_edges, 0);
  rows_of_key.assign(c.num_vertices, {});
  std::map<int64_t, std::pair<int64_t, int64_t>> agg;  // key -> (count, sum)
  for (uint64_t i = 0; i < c.num_edges; ++i) {
    const RowVec row = gen.EdgeRow(i);
    row_hash[i] = RowHash(row);
    const int64_t key = row[0].int64_value();
    rows_of_key[key].push_back(static_cast<uint32_t>(i));
    if (row[2].int64_value() > kScanCreatedAfter) {
      ++agg[key].first;
      agg[key].second += row[1].int64_value();
    }
  }
  key_digest.assign(c.num_vertices, 0);
  for (uint64_t k = 0; k < c.num_vertices; ++k) {
    key_digest[k] = LookupDigest(static_cast<int64_t>(k));
  }
  std::vector<uint64_t> agg_hashes;
  for (const auto& [key, cs] : agg) {
    agg_hashes.push_back(RowHash(
        {Value::Int64(key), Value::Int64(cs.first), Value::Int64(cs.second)}));
  }
  scan_agg_digest = DigestOfHashes(std::move(agg_hashes));
}

uint64_t EdgeTruth::LookupDigest(int64_t key,
                                 const std::vector<uint64_t>& extra) const {
  std::vector<uint64_t> hashes = extra;
  if (key >= 0 && static_cast<size_t>(key) < rows_of_key.size()) {
    for (uint32_t r : rows_of_key[key]) hashes.push_back(row_hash[r]);
  }
  return DigestOfHashes(std::move(hashes));
}

uint64_t EdgeTruth::JoinDigest(const std::vector<RowVec>& probe) const {
  std::vector<uint64_t> hashes;
  for (const RowVec& p : probe) {
    const int64_t key = p[0].int64_value();
    if (key < 0 || static_cast<size_t>(key) >= rows_of_key.size()) continue;
    // Folding the probe row onto the table row's hash hashes the
    // concatenated output row.
    for (uint32_t r : rows_of_key[key]) {
      hashes.push_back(RowHash(p, row_hash[r]));
    }
  }
  return DigestOfHashes(std::move(hashes));
}

void AddHashesByKey(const std::vector<RowVec>& rows, HashesByKey& out) {
  for (const RowVec& row : rows) {
    out[row[0].int64_value()].push_back(RowHash(row));
  }
}

std::vector<RowVec> RowsOf(const DataFrame& df) {
  Result<CollectedTable> t = df.Collect();
  IDF_CHECK_OK(t.status());
  return std::move(t->rows);
}

std::vector<InputTable> MakeProbes(const SnbGenerator& gen,
                                   const EdgeTruth& truth, Session& session,
                                   uint32_t count, uint64_t rows,
                                   uint64_t seed) {
  std::vector<InputTable> out(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<DataFrame> df = gen.EdgeSample(session, rows, HashCombine(seed, i));
    IDF_CHECK_OK(df.status());
    out[i].df = *df;
    out[i].rows = RowsOf(*df);
    out[i].digest = truth.JoinDigest(out[i].rows);
  }
  return out;
}

std::vector<InputTable> MakeAppendBatches(const SnbGenerator& gen,
                                          Session& session, uint32_t count,
                                          uint64_t rows, uint64_t first_row,
                                          const std::string& name) {
  std::vector<InputTable> out(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<RowVec> batch;
    for (uint64_t r = 0; r < rows; ++r) {
      batch.push_back(gen.EdgeRow(first_row + i * rows + r));
    }
    Result<DataFrame> df = session.CreateTable(
        name + std::to_string(i), SnbGenerator::EdgeSchema(), batch);
    IDF_CHECK_OK(df.status());
    out[i].df = *df;
    out[i].key = batch.front()[0].int64_value();
    out[i].rows = std::move(batch);
  }
  return out;
}

// ---- spans -------------------------------------------------------------------------

const char* OpTypeName(int op) {
  static const char* kNames[kNumOpTypes] = {
      "lookup",         "sql_lookup", "join",           "append",
      "build",          "indexed_join", "hash_join",    "sortmerge_join",
      "scan_agg"};
  return kNames[op];
}

const char* LayerName(int layer) {
  static const char* kNames[kNumLayers] = {"server", "sql", "engine", "core",
                                           "unattributed"};
  return kNames[layer];
}

int OpSpans::Begin(const char* name, Layer layer, int parent) {
  Span s;
  s.layer = static_cast<int16_t>(layer);
  s.parent = static_cast<int16_t>(parent);
  s.name = name;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void OpSpans::AddTail(const char* name, Layer layer, int parent, int64_t ns) {
  Span s;
  s.layer = static_cast<int16_t>(layer);
  s.parent = static_cast<int16_t>(parent);
  s.name = name;
  const Span& p = spans_[parent];
  s.end_ns = p.end_ns;
  s.start_ns = std::max(p.start_ns, p.end_ns - std::max<int64_t>(ns, 0));
  spans_.push_back(s);
}

void TraceSink::Record(OpType op, OpSpans& spans) {
  const std::vector<Span>& s = spans.spans();
  if (s.empty()) return;
  const uint64_t op_id = next_op_id_++;
  // An operation has a handful of spans; Record runs once per traced
  // operation on the client thread, so it avoids allocating.
  constexpr size_t kMaxSpans = 64;
  IDF_CHECK(s.size() <= kMaxSpans);
  int64_t child_ns[kMaxSpans] = {};
  for (size_t i = 1; i < s.size(); ++i) {
    const Span& parent = s[s[i].parent];
    if (s[i].start_ns < parent.start_ns || s[i].end_ns > parent.end_ns) {
      ++nesting_violations_;
    }
    child_ns[s[i].parent] += s[i].end_ns - s[i].start_ns;
  }
  double layer_sum = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const double self = (s[i].end_ns - s[i].start_ns - child_ns[i]) / 1e3;
    // The root's own time is what no layer call covers.
    const int layer = i == 0 ? static_cast<int>(kUnattributed) : s[i].layer;
    self_us_[op][layer] += self;
    layer_sum += self;
  }
  const double latency = (s[0].end_ns - s[0].start_ns) / 1e3;
  latency_us_[op] += latency;
  ++ops_[op];
  max_error_us_ = std::max(max_error_us_, std::fabs(layer_sum - latency));
  for (const Span& span : s) {
    if (raw_.size() < max_spans_) {
      raw_.push_back(span);
      raw_.back().op_id = static_cast<uint32_t>(op_id);
    }
  }
  spans.Clear();
}

void TraceSink::Merge(const TraceSink& o) {
  for (int op = 0; op < kNumOpTypes; ++op) {
    // Operation ids stay unique across merged sinks.
    ops_[op] += o.ops_[op];
    latency_us_[op] += o.latency_us_[op];
    for (int l = 0; l < kNumLayers; ++l) self_us_[op][l] += o.self_us_[op][l];
  }
  max_error_us_ = std::max(max_error_us_, o.max_error_us_);
  nesting_violations_ += o.nesting_violations_;
  const uint32_t base = static_cast<uint32_t>(next_op_id_);
  for (const Span& span : o.raw_) {
    if (raw_.size() < max_spans_) {
      raw_.push_back(span);
      raw_.back().op_id += base;
    }
  }
  next_op_id_ += o.next_op_id_;
}

bool ReportBreakdown(const TraceSink& sink, MetricSheet& sheet) {
  bool ok = true;
  for (int op = 0; op < kNumOpTypes; ++op) {
    const uint64_t n = sink.ops(op);
    const std::string prefix = std::string("trace.") + OpTypeName(op) + ".";
    double sum = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      const double per_op = n ? sink.self_us(op, l) / n : 0;
      sheet.Set(prefix + LayerName(l) + "_us", per_op, "us");
      sum += sink.self_us(op, l);
    }
    const double latency = sink.latency_us(op);
    // Conservation: the layer self times and the remainder tile the
    // operation's measured latency exactly, up to float rounding.
    if (std::fabs(sum - latency) > 1e-6 * std::max(1.0, latency) + 1e-3) {
      std::fprintf(stderr,
                   "conservation violated for %s: layers+unattributed = "
                   "%.3f us, latency = %.3f us\n",
                   OpTypeName(op), sum, latency);
      ok = false;
    }
  }
  if (sink.nesting_violations() != 0) {
    std::fprintf(stderr, "%llu spans lie outside their parent\n",
                 static_cast<unsigned long long>(sink.nesting_violations()));
    ok = false;
  }
  if (sink.max_conservation_error_us() > 1e-3) {
    std::fprintf(stderr, "per-operation conservation error %.6f us\n",
                 sink.max_conservation_error_us());
    ok = false;
  }
  return ok;
}

void WriteSpans(const TraceSink& sink, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : sink.raw()) {
    out << "{\"op\":" << s.op_id << ",\"name\":\"" << s.name
        << "\",\"layer\":\"" << LayerName(s.layer) << "\",\"parent\":"
        << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

// ---- engine helpers -----------------------------------------------------------------

SessionOptions BaseSessionOptions() {
  SessionOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executors_per_worker = 2;
  options.cluster.cores_per_executor = 2;
  options.default_partitions = 8;
  return options;
}

void ReleaseResult(Session& session, const TableHandle& handle) {
  session.cluster().blocks().DropVersion(handle.rdd_id, handle.version);
}

void RetireVersion(const IndexedDataFrame& version) {
  version.rdd()->session().cluster().blocks().DropVersion(
      version.rdd()->rdd_id(), version.version());
}

OutputScope::~OutputScope() {
  Cluster& cluster = session_.cluster();
  const uint64_t last = cluster.NewRddId();
  // Query outputs are single-version tables (version 0).
  for (uint64_t rdd = first_ + 1; rdd < last; ++rdd) {
    if (rdd != keep_) cluster.blocks().DropVersion(rdd, 0);
  }
}

namespace {

double StatusMb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::stod(line.substr(n)) / 1024.0;
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RssMb() { return StatusMb("VmRSS:"); }

CpuTicks ReadCpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  f >> cpu;
  for (uint64_t& x : v) f >> x;
  CpuTicks t;
  t.steal = v[7];
  for (uint64_t x : v) t.total += x;
  return t;
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
