// Fig. 10 reproduction: write throughput of appendRows / createIndex for
// various rows-per-append, cumulated over 200 appends.
//
// Paper: "most of the write time is dominated by shuffles ... the results
// are similar for both append and createIndex, as the two APIs perform the
// same internal operations"; 200 appends of 1M rows (200M rows) took just
// below 7 seconds on their cluster.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "core/indexed_dataframe.h"
#include "engine/shuffle.h"
#include "obs/metrics_registry.h"
#include "workload/snb.h"

using namespace idf;

namespace {

/// --shuffle-out: the append throughput plus the backpressure window and the
/// peak inflight bytes it allowed, as JSON (CI asserts peak <= window).
bool WriteShuffleJson(const std::string& path, uint32_t threads,
                      uint64_t rows_per_append, int appends,
                      double rows_per_s) {
  const uint64_t window = ShuffleWindowBytes();
  const uint64_t peak = static_cast<uint64_t>(
      obs::Registry::Global()
          .GetGauge("engine.shuffle.inflight_peak_bytes")
          .value());
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\": \"fig10_append\", \"threads\": %u, "
               "\"rows_per_append\": %llu, \"appends\": %d, "
               "\"rows_per_s\": %.0f, \"window_bytes\": %llu, "
               "\"inflight_peak_bytes\": %llu}\n",
               threads, static_cast<unsigned long long>(rows_per_append),
               appends, rows_per_s, static_cast<unsigned long long>(window),
               static_cast<unsigned long long>(peak));
  std::fclose(f);
  std::printf("shuffle summary written to %s (inflight peak %llu of %llu "
              "window)\n",
              path.c_str(), static_cast<unsigned long long>(peak),
              static_cast<unsigned long long>(window));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  idf::bench::ObsGuard obs(argc, argv);
  std::string shuffle_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shuffle-out=", 14) == 0) {
      shuffle_out = argv[i] + 14;
    }
  }
  const double scale = bench::ScaleEnv();
  const int appends = bench::RepsEnv(0) > 0 ? bench::RepsEnv(0) : 200;
  SessionOptions options = bench::PrivateCluster();
  bench::PrintHeader("Fig. 10", "append/createIndex write throughput",
                     "throughput dominated by the shuffle; larger append "
                     "batches amortize better; append == createIndex",
                     options);
  Session session(options);

  const SnbConfig snb = SnbConfig::ScaleFactor(0.1 * scale, 32);
  SnbGenerator generator(snb);

  std::printf("--- appendRows: %d appends per batch size ---\n", appends);
  std::printf("%-14s %-14s %-16s %-16s %-14s\n", "rows/append", "total rows",
              "total time (s)", "rows/s", "shuffle MB");
  uint64_t last_rows_per_append = 0;
  double last_rows_per_s = 0;
  for (uint64_t rows_per_append :
       {uint64_t(1000 * scale), uint64_t(10000 * scale),
        uint64_t(50000 * scale)}) {
    DataFrame edges = generator.Edges(session).value();
    IndexedDataFrame current =
        IndexedDataFrame::Create(edges, "edge_source").value();
    QueryMetrics total_metrics;
    Stopwatch timer;
    for (int a = 0; a < appends; ++a) {
      DataFrame extra =
          generator.EdgeSample(session, rows_per_append, 9000 + a).value();
      QueryMetrics metrics;
      current = current.AppendRows(extra, &metrics).value();
      total_metrics.totals.MergeFrom(metrics.totals);
    }
    const double seconds = timer.ElapsedSeconds();
    const uint64_t total_rows = rows_per_append * appends;
    last_rows_per_append = rows_per_append;
    last_rows_per_s = static_cast<double>(total_rows) / seconds;
    std::printf("%-14llu %-14llu %-16.2f %-16.0f %-14.1f\n",
                static_cast<unsigned long long>(rows_per_append),
                static_cast<unsigned long long>(total_rows), seconds,
                static_cast<double>(total_rows) / seconds,
                total_metrics.totals.shuffle_bytes_written / 1048576.0);
  }

  std::printf("--- createIndex on the same volumes (same write mechanism) ---\n");
  std::printf("%-14s %-16s %-16s\n", "rows", "time (s)", "rows/s");
  for (uint64_t rows : {uint64_t(200000 * scale), uint64_t(2000000 * scale)}) {
    SnbConfig config = snb;
    config.num_edges = rows;
    config.num_vertices = std::max<uint64_t>(1, rows / 100);
    SnbGenerator g(config);
    DataFrame edges = g.Edges(session).value();
    Stopwatch timer;
    (void)IndexedDataFrame::Create(edges, "edge_source").value();
    const double seconds = timer.ElapsedSeconds();
    std::printf("%-14llu %-16.2f %-16.0f\n",
                static_cast<unsigned long long>(rows), seconds,
                static_cast<double>(rows) / seconds);
  }
  std::printf("(per-row cost of createIndex matches bulk appendRows: same "
              "shuffle + insert path)\n");
  if (!shuffle_out.empty() &&
      !WriteShuffleJson(shuffle_out, session.cluster().scheduler_threads(),
                        last_rows_per_append, appends, last_rows_per_s)) {
    return 1;
  }
  bench::PrintFooter();
  return 0;
}
