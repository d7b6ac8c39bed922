#include "layers.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "render/plan.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "spreadsheet/spreadsheet.h"
#include "storage/columnar_file.h"
#include "storage/mmap_file.h"
#include "storage/scan.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace gesturebench {

using namespace hillview;  // NOLINT

namespace {

constexpr uint64_t kProbeSeed = 1;

Result<Buckets> BucketsFor(Spreadsheet* sheet, const std::string& col,
                           int count) {
  HV_ASSIGN_OR_RETURN(RangeResult range, sheet->ColumnRange(col));
  if (!range.is_string) return Buckets(PlanNumericBuckets(range, count));
  HV_ASSIGN_OR_RETURN(BottomKResult bottom, sheet->DistinctStrings(col));
  return Buckets(PlanStringBuckets(bottom, range, count));
}

}  // namespace

LayerProbe::Counters LayerProbe::Sample(cluster::RootSession* session) {
  Counters c;
  for (const RedoLogEntry& e : session->redo_log().Entries()) {
    if (e.kind == "sketch") ++c.sketch_entries;
  }
  ComputationCache::Stats cache = cluster_->shared_cache().Snapshot();
  c.cache_served = cache.hits + cache.coalesced_hits;
  return c;
}

template <typename R>
void LayerProbe::Probe(cluster::RootSession* session, const GestureRecord& rec,
                       std::shared_ptr<const Sketch<R>> sketch,
                       const std::string& kind, double* attributed_ms) {
  QuerySpan span;
  // cluster: the root's full query path, uncached.
  const int sid = session->session_id();
  const auto traffic = cluster_->network()->SessionSnapshot(sid);
  cluster::RootSession::QueryStats stats;
  Stopwatch watch;
  Result<R> result = session->RunSketch<R>(rec.dataset_id, sketch, kProbeSeed,
                                           /*cacheable=*/false, &stats);
  span.cluster_ms = watch.ElapsedMillis();
  if (!result.ok()) return;
  const auto after = cluster_->network()->SessionSnapshot(sid);
  span.bytes_up = static_cast<double>(after.bytes_up - traffic.bytes_up);
  span.bytes_down = static_cast<double>(after.bytes_down - traffic.bytes_down);
  span.messages_up =
      static_cast<double>(after.messages_up - traffic.messages_up);
  span.transport_retries = stats.transport_retries;

  // core: every worker's local execution tree, run concurrently.
  const AnySketch any = AnySketch::Wrap<R>(sketch);
  const auto& workers = cluster_->workers();
  watch.Restart();
  std::vector<StreamPtr<PartialResult<AnySummary>>> streams;
  for (size_t w = 0; w < workers.size(); ++w) {
    Result<DataSetPtr> local = workers[w]->GetDataSet(rec.dataset_id);
    if (!local.ok()) return;
    cluster::Worker* worker = workers[w].get();
    SketchOptions options;
    options.seed = MixSeed(kProbeSeed, w);
    options.aux_pool = [worker] { return worker->aux_pool(); };
    options.key_cache = [worker] { return worker->key_cache(); };
    streams.push_back(local.value()->RunSketch(any, options));
  }
  AnySummary core_result = any.Zero();
  for (auto& stream : streams) {
    auto last = stream->BlockingLast();
    if (!stream->final_status().ok() || !last.has_value()) return;
    core_result = any.Merge(core_result, last->value);
  }
  span.core_ms = watch.ElapsedMillis();

  // sketch (+ storage filter for zoomed views): the same partitions, one
  // thread per worker, summarized and merged with no engine around them
  // (but with the worker's sort-key cache, as the engine would pass it).
  const size_t num_workers = workers.size();
  std::vector<AnySummary> partial(num_workers);
  std::vector<double> summarize_ms(num_workers, 0), merge_ms(num_workers, 0),
      filter_ms(num_workers, 0), rows(num_workers, 0);
  watch.Restart();
  std::vector<std::thread> threads;
  for (size_t w = 0; w < num_workers; ++w) {
    threads.emplace_back([&, w] {
      cluster::Worker* worker = workers[w].get();
      SketchContext context;
      context.key_cache = [worker] { return worker->key_cache(); };
      for (size_t p = w; p < partitions_->size(); p += num_workers) {
        TablePtr table = (*partitions_)[p];
        Stopwatch f;
        for (const Zoom& z : rec.spec.view) {
          ColumnPtr col = table->GetColumnOrNull(z.column);
          table = table->WithMembership(
              FilterRangeMembership(*col, *table->members(), z.lo, z.hi));
        }
        filter_ms[w] += f.ElapsedMillis();
        Stopwatch s;
        AnySummary part =
            any.Summarize(*table, MixSeed(kProbeSeed, p), context);
        summarize_ms[w] += s.ElapsedMillis();
        rows[w] += table->num_rows();
        Stopwatch m;
        partial[w] = partial[w].empty() ? part : any.Merge(partial[w], part);
        merge_ms[w] += m.ElapsedMillis();
      }
    });
  }
  for (auto& t : threads) t.join();
  Stopwatch root_merge;
  AnySummary merged = any.Zero();
  for (const AnySummary& s : partial) {
    if (!s.empty()) merged = any.Merge(merged, s);
  }
  const double root_merge_ms = root_merge.ElapsedMillis();
  span.sketch_ms = watch.ElapsedMillis();
  span.summarize_ms = *std::max_element(summarize_ms.begin(),
                                        summarize_ms.end());
  span.merge_ms = root_merge_ms;
  double row_ms = 0;
  for (size_t w = 0; w < num_workers; ++w) {
    span.merge_ms += merge_ms[w];
    span.rows += rows[w];
    row_ms += summarize_ms[w];
  }
  span.row_seconds = row_ms / 1e3;
  span.summary_bytes = static_cast<double>(any.Serialize(merged).size());

  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  KindStats& k = kinds_[kind];
  ++k.n;
  k.summarize_ms += span.summarize_ms;
  k.merge_ms += span.merge_ms;
  k.summary_bytes += span.summary_bytes;
  if (!rec.spec.view.empty()) {
    for (double f : filter_ms) filter_ms_ += f;
    filters_ += 1;
  }
  *attributed_ms += span.cluster_ms;
}

void LayerProbe::AfterGesture(cluster::RootSession* session,
                              const GestureRecord& rec,
                              const Counters& before, double render_ms) {
  Stopwatch probe_watch;
  const Counters after = Sample(session);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++gestures_;
    queries_ += static_cast<double>(after.sketch_entries -
                                    before.sketch_entries +
                                    after.cache_served - before.cache_served);
    render_ms_ += render_ms;
    if (rec.first_partial_ms >= 0) {
      ++progressive_;
      partials_ += rec.partials;
    }
  }
  if (!rec.ok) return;

  const GestureSpec& g = rec.spec;
  Spreadsheet sheet(session, rec.dataset_id, kScreen);
  Result<int64_t> rows = sheet.RowCount();
  if (!rows.ok()) return;
  const auto n = static_cast<uint64_t>(rows.value());
  const int bars = HistogramBucketCount(kScreen);
  double attributed = 0;
  const RecordOrder* order =
      g.order >= 0 ? &SortOrders()[static_cast<size_t>(g.order)] : nullptr;
  switch (g.op) {
    case 1:
    case 2:
    case 3:
      Probe<NextItemsResult>(
          session, rec,
          std::make_shared<NextItemsSketch>(*order, std::vector<std::string>{},
                                            std::nullopt, kPageRows),
          "next_items", &attributed);
      break;
    case 4: {
      const uint64_t size = QuantileSampleSize(std::min(kScreen.height, 100));
      Probe<QuantileResult>(
          session, rec,
          std::make_shared<QuantileSketch>(*order, SampleRateForSize(size, n),
                                           static_cast<int>(2 * size)),
          "quantile", &attributed);
      // ScrollTo then reads the page after the quantile's key.
      Probe<NextItemsResult>(
          session, rec,
          std::make_shared<NextItemsSketch>(*order, std::vector<std::string>{},
                                            rec.page->rows[0].values,
                                            kPageRows),
          "next_items", &attributed);
      break;
    }
    case 5:
    case 6:
    case 7: {
      Result<Buckets> b = BucketsFor(&sheet, g.x, bars);
      if (!b.ok()) break;
      const double rate = SampleRateForSize(
          HistogramSampleSize(kScreen.height, b.value().count()), n);
      Probe<HistogramResult>(
          session, rec,
          std::make_shared<SampledHistogramSketch>(g.x, b.value(), rate),
          "histogram", &attributed);
      break;
    }
    case 8: {
      Probe<HeavyHittersResult>(
          session, rec,
          std::make_shared<SampledHeavyHittersSketch>(
              g.x, g.k, SampleRateForSize(HeavyHittersSampleSize(g.k), n)),
          "heavy_hitters", &attributed);
      break;
    }
    case 9:
      Probe<HllResult>(session, rec, std::make_shared<HyperLogLogSketch>(g.x),
                       "hyperloglog", &attributed);
      break;
    case 10:
    case 11: {
      int xs = bars, ys = ChartDefaults::kMaxStackColors;
      double rate = 1.0;
      if (g.op == 11) {
        HeatMapPlan plan = PlanHeatMap(n, kScreen);
        xs = plan.x_bins;
        ys = plan.y_bins;
        rate = plan.sample_rate;
      }
      Result<Buckets> xb = BucketsFor(&sheet, g.x, xs);
      Result<Buckets> yb = BucketsFor(&sheet, g.y, ys);
      if (!xb.ok() || !yb.ok()) break;
      if (g.op == 10) {
        rate = SampleRateForSize(
            StackedHistogramSampleSize(kScreen.height, xb.value().count()), n);
      }
      Probe<Histogram2DResult>(
          session, rec,
          std::make_shared<Histogram2DSketch>(g.x, xb.value(), g.y,
                                              yb.value(), rate),
          "histogram2d", &attributed);
      break;
    }
    default:
      break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  unattributed_ms_ += rec.ms - render_ms - attributed;
  probe_ms_ += probe_watch.ElapsedMillis();
}

void LayerProbe::OpenFiles(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    Stopwatch watch;
    Result<MappedTable> mapped = MapTableFile(path);
    const double ms = watch.ElapsedMillis();
    if (!mapped.ok()) continue;
    MappedFile::Stats s = mapped.value().mapping->Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    open_ms_ += ms;
    ++opens_;
    mapped_bytes_ += static_cast<double>(s.mapped_bytes);
    resident_bytes_ += static_cast<double>(s.resident_bytes);
  }
}

void LayerProbe::AfterRestart(int worker) {
  const size_t w = static_cast<size_t>(worker);
  const size_t num_workers = cluster_->workers().size();
  std::vector<std::string> mine;
  for (size_t p = w; p < files_.size(); p += num_workers) {
    mine.push_back(files_[p]);
  }
  OpenFiles(mine);
}

double LayerProbe::HealProbeMs(cluster::RootSession* session) {
  auto query = [&] {
    Stopwatch watch;
    Result<RangeResult> r = session->RunSketch<RangeResult>(
        "flights", std::make_shared<RangeSketch>("DepDelay"), kProbeSeed,
        /*cacheable=*/false);
    return r.ok() ? watch.ElapsedMillis() : NAN;
  };
  std::vector<double> warm;
  for (int i = 0; i < 3; ++i) warm.push_back(query());
  session->RestartWorker(0);
  return query() - Percentile(warm, 0.5);
}

std::vector<LayerProbe::Metric> LayerProbe::Report(const Summary& summary) {
  std::vector<Metric> m;
  const std::vector<GestureRecord>& records = *summary.records;

  // spreadsheet / render / reactive
  std::vector<double> per_op[kNumOps + 1];
  int64_t ok = 0;  // successful gestures of the timed phase
  for (const GestureRecord& r : records) {
    if (!r.ok) continue;
    if (r.round >= 0) ++ok;
    per_op[r.spec.op].push_back(r.ms);
  }
  for (int op = 1; op <= kNumOps; ++op) {
    m.push_back({"spreadsheet.gesture_ms.O" + std::to_string(op),
                 Percentile(per_op[op], 0.5), "ms"});
  }
  const double g = static_cast<double>(std::max<int64_t>(1, gestures_));
  m.push_back({"spreadsheet.gestures", static_cast<double>(gestures_),
               "count"});
  m.push_back({"spreadsheet.queries_per_gesture", queries_ / g, "count"});
  m.push_back({"render.chart_ms", render_ms_ / g, "ms"});
  m.push_back({"reactive.progressive_gestures",
               static_cast<double>(progressive_), "count"});
  m.push_back({"reactive.partials_per_gesture",
               partials_ / static_cast<double>(std::max<int64_t>(1, progressive_)),
               "count"});

  // cluster / core / sketch spans
  QuerySpan total;
  for (const QuerySpan& s : spans_) {
    total.cluster_ms += s.cluster_ms;
    total.core_ms += s.core_ms;
    total.sketch_ms += s.sketch_ms;
    total.bytes_up += s.bytes_up;
    total.bytes_down += s.bytes_down;
    total.messages_up += s.messages_up;
    total.rows += s.rows;
    total.row_seconds += s.row_seconds;
    total.transport_retries += s.transport_retries;
  }
  const double q = static_cast<double>(std::max<size_t>(1, spans_.size()));
  m.push_back({"cluster.queries_probed", static_cast<double>(spans_.size()),
               "count"});
  m.push_back({"cluster.run_sketch_ms", total.cluster_ms / q, "ms"});
  m.push_back({"cluster.self_ms", (total.cluster_ms - total.core_ms) / q,
               "ms"});
  m.push_back({"cluster.bytes_up_per_query", total.bytes_up / q, "bytes"});
  m.push_back({"cluster.bytes_down_per_query", total.bytes_down / q,
               "bytes"});
  m.push_back({"cluster.messages_up_per_query", total.messages_up / q,
               "count"});
  cluster::QueryScheduler::Stats sched = cluster_->scheduler().Snapshot();
  m.push_back({"cluster.scheduler.max_running",
               static_cast<double>(sched.max_running), "count"});
  m.push_back({"cluster.scheduler.shed",
               static_cast<double>(sched.shed_session_budget +
                                   sched.shed_queue_full +
                                   sched.shed_unhealthy),
               "count"});
  m.push_back({"cluster.scheduler.submitted",
               static_cast<double>(sched.submitted), "count"});
  const RedoLog::Stats redo = summary.session->redo_log().Snapshot();
  const int64_t replays = redo.replays_started;
  const int64_t replayed = redo.entries_replayed;
  const int64_t redo_entries = redo.entries;
  m.push_back({"cluster.replay_heals", static_cast<double>(replays), "count"});
  m.push_back({"cluster.transport_retries",
               static_cast<double>(total.transport_retries), "count"});
  m.push_back({"cluster.health.failures",
               static_cast<double>(cluster_->health().Snapshot().failures),
               "count"});
  m.push_back({"core.local_sketch_ms", total.core_ms / q, "ms"});
  m.push_back({"core.self_ms", (total.core_ms - total.sketch_ms) / q, "ms"});
  ComputationCache::Stats cache = cluster_->shared_cache().Snapshot();
  const int64_t lookups = cache.hits + cache.misses + cache.coalesced_hits;
  m.push_back({"core.cache.lookups", static_cast<double>(lookups), "count"});
  m.push_back({"core.cache.hit_rate",
               static_cast<double>(cache.hits + cache.coalesced_hits) /
                   static_cast<double>(std::max<int64_t>(1, lookups)),
               "ratio"});
  m.push_back({"core.cache.coalesced",
               static_cast<double>(cache.coalesced_hits), "count"});
  m.push_back({"core.cache.entries", static_cast<double>(cache.entries),
               "count"});
  m.push_back({"core.redo_log.entries", static_cast<double>(redo_entries),
               "count"});
  m.push_back({"core.redo_log.entries_replayed_per_heal",
               static_cast<double>(replayed) /
                   static_cast<double>(std::max<int64_t>(1, replays)),
               "count"});
  for (const char* kind : {"histogram", "histogram2d", "heavy_hitters",
                           "hyperloglog", "next_items", "quantile"}) {
    const KindStats& k = kinds_[kind];
    const double n = std::max(1, k.n);
    m.push_back({std::string("sketch.summarize_ms.") + kind,
                 k.summarize_ms / n, "ms"});
    m.push_back({std::string("sketch.merge_ms.") + kind, k.merge_ms / n,
                 "ms"});
    m.push_back({std::string("sketch.summary_bytes.") + kind,
                 k.summary_bytes / n, "bytes"});
  }
  m.push_back({"sketch.rows_per_s",
               total.rows / std::max(1e-9, total.row_seconds), "1/s"});

  // storage
  size_t key_bytes = 0;
  int64_t key_hits = 0, key_misses = 0, key_evictions = 0;
  for (const auto& w : cluster_->workers()) {
    SortKeyCache::Stats s = w->key_cache()->Snapshot();
    key_bytes += s.bytes_used;
    key_hits += s.hits + s.coalesced_builds;
    key_misses += s.misses;
    key_evictions += s.evictions;
  }
  m.push_back({"storage.filter_ms",
               filter_ms_ / static_cast<double>(std::max<int64_t>(1, filters_)),
               "ms"});
  m.push_back({"storage.sort_key_cache.lookups",
               static_cast<double>(key_hits + key_misses), "count"});
  m.push_back({"storage.sort_key_cache.hit_rate",
               static_cast<double>(key_hits) /
                   static_cast<double>(
                       std::max<int64_t>(1, key_hits + key_misses)),
               "ratio"});
  m.push_back({"storage.sort_key_cache.evictions",
               static_cast<double>(key_evictions), "count"});
  m.push_back({"storage.sort_key_cache.bytes_used",
               static_cast<double>(key_bytes), "bytes"});

  // Probes that disturb the cluster run last. Workloads without a spill
  // write one partition to time the file path; workloads without crashes
  // time one heal.
  double spill_s = summary.spill_s;
  if (files_.empty() && !partitions_->empty()) {
    const std::string path = workdir_ + "/probe.hvcf";
    Stopwatch spill;
    if (WriteTableFile(*(*partitions_)[0], path).ok()) {
      spill_s = spill.ElapsedSeconds();
      OpenFiles({path});
    }
  }
  // The first successful gesture after each crash, against the median of
  // its kind's other gestures.
  double heal_ms = 0;
  std::vector<bool> healing(records.size(), false);
  for (size_t c : summary.crash_records) {
    size_t i = c;
    while (i < records.size() && records[i].round == records[c].round &&
           !records[i].ok) {
      ++i;
    }
    if (i < records.size() && records[i].round == records[c].round) {
      healing[i] = true;
    }
  }
  std::vector<double> warm[kNumOps + 1];
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].ok && !healing[i]) {
      warm[records[i].spec.op].push_back(records[i].ms);
    }
  }
  std::vector<double> post;
  for (size_t i = 0; i < records.size(); ++i) {
    if (healing[i]) {
      post.push_back(records[i].ms -
                     Percentile(warm[records[i].spec.op], 0.5));
    }
  }
  if (!post.empty()) {
    heal_ms = Percentile(post, 0.5);
  } else {
    heal_ms = HealProbeMs(summary.session);
  }
  m.push_back({"cluster.heal_ms", heal_ms, "ms"});
  const double opens = static_cast<double>(std::max<int64_t>(1, opens_));
  m.push_back({"storage.open_ms", open_ms_ / opens, "ms"});
  m.push_back({"storage.mapped_bytes", mapped_bytes_ / opens, "bytes"});
  m.push_back({"storage.resident_bytes", resident_bytes_ / opens, "bytes"});

  m.push_back({"workload.generate_s", summary.generate_s, "s"});
  m.push_back({"workload.spill_s", spill_s, "s"});
  m.push_back({"unattributed_ms", unattributed_ms_ / g, "ms"});
  m.push_back({"trace.gestures_per_s",
               static_cast<double>(ok) / summary.timed_s, "1/s"});
  m.push_back({"trace.probe_ms_per_gesture", probe_ms_ / g, "ms"});
  return m;
}

}  // namespace gesturebench
