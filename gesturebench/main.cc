// Gesture benchmark: closed-loop user gestures against an in-process
// cluster::Cluster, through the public Spreadsheet API.
//
//   gesturebench --workload explore|crash_recover
//                --seed N --seconds S --trace 0|1 --workdir DIR
//   gesturebench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics untraced, per-layer metrics with
// --trace 1). Progress and diagnostics go to standard error.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/root.h"
#include "gesture.h"
#include "layers.h"
#include "oracle.h"
#include "render/chart.h"
#include "render/plan.h"
#include "spreadsheet/spreadsheet.h"
#include "storage/columnar_file.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/flights.h"

namespace gesturebench {

using namespace hillview;  // NOLINT

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

// Input size: 4M flights rows in 16 micropartitions, so one gesture scans
// for tens of milliseconds instead of measuring fixed overhead.
constexpr uint64_t kRows = 4'000'000;
constexpr uint32_t kRowsPerPartition = 250'000;
constexpr char kDataset[] = "flights";

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_run";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->selftest ||
         ((args->workload == "explore" ||
           args->workload == "crash_recover") &&
          args->seconds > 0);
}

// ---------------------------------------------------------------------------
// Inputs and deployment.

struct Inputs {
  // The oracle's copy of the data. crash_recover drops it once spilled, so
  // that its resident set is the program's, and regenerates it afterwards.
  std::vector<TablePtr> partitions;
  std::vector<std::string> files;    // HVCF spill (crash_recover)
  std::vector<LocalDataSet::Loader> loaders;
  double generate_s = 0;
  double spill_s = 0;
};

template <typename Fn>
void ParallelFor(int n, int threads, Fn fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::min(n, threads); ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

void GeneratePartitions(uint64_t seed, int cpus,
                        std::vector<TablePtr>* partitions) {
  std::vector<uint32_t> counts = PartitionRowCounts(kRows, kRowsPerPartition);
  partitions->resize(counts.size());
  ParallelFor(static_cast<int>(counts.size()), cpus, [&](int p) {
    (*partitions)[p] = workload::GenerateFlights(counts[p], MixSeed(seed, p));
  });
}

Status MakeInputs(const Args& args, int cpus, Inputs* in) {
  Stopwatch gen;
  GeneratePartitions(args.seed, cpus, &in->partitions);
  in->generate_s = gen.ElapsedSeconds();
  const size_t parts = in->partitions.size();
  if (args.workload != "crash_recover") {
    for (const TablePtr& t : in->partitions) {
      in->loaders.push_back([t]() -> Result<TablePtr> { return t; });
    }
    return Status::OK();
  }
  // Spill with the generator's file names, then let FlightsFileLoaders find
  // the files and hand out mmap loaders.
  Stopwatch spill;
  const std::string dir = args.workdir + "/hvcf";
  std::filesystem::create_directories(dir);
  std::vector<Status> written(parts);
  in->files.resize(parts);
  ParallelFor(static_cast<int>(parts), cpus, [&](int p) {
    char name[40];
    std::snprintf(name, sizeof(name), "/flights_%04d.hvcf", p);
    in->files[p] = dir + name;
    written[p] = WriteTableFile(*in->partitions[p], in->files[p]);
  });
  for (const Status& s : written) HV_RETURN_IF_ERROR(s);
  HV_ASSIGN_OR_RETURN(in->loaders,
                      workload::FlightsFileLoaders(dir, kRows,
                                                   kRowsPerPartition,
                                                   args.seed,
                                                   StorageBackend::kMmap));
  in->spill_s = spill.ElapsedSeconds();
  // The layer probes of a traced run read the tables during the run.
  if (!args.trace) in->partitions.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Gestures.

// Numeric charts use the double-valued columns only: on integer columns the
// histogram kernel misplaces values that sit exactly on a bucket boundary
// (see CHANGES.md), which would fail the exact-bucket check on some seeds.
const std::vector<std::string> kChartColumns = {
    "DepDelay", "ArrDelay", "Distance", "AirTime",
    "TaxiIn",   "TaxiOut",  "WeatherDelay"};
const std::vector<std::string> kStringColumns = {"Origin", "Dest",
                                                 "OriginState", "DestState",
                                                 "Airline"};
const std::vector<std::string> kDistinctColumns = {"FlightNumber",
                                                   "CrsDepTime", "DepTime"};
const std::vector<std::pair<std::string, std::string>> kHeatPairs = {
    {"DepDelay", "ArrDelay"}, {"Distance", "AirTime"},
    {"TaxiOut", "TaxiIn"},    {"DepDelay", "TaxiOut"},
    {"ArrDelay", "AirTime"}};
const std::vector<std::string> kStackX = {"DepDelay", "ArrDelay", "Distance",
                                          "AirTime", "TaxiOut"};
const std::vector<std::string> kStackY = {"Airline", "OriginState",
                                          "DestState"};

// Zoom grids: integer bounds, so every range prints exactly in the derived
// dataset id.
struct ZoomGrid {
  const char* column;
  int lo, step, steps;
};
const std::vector<ZoomGrid> kZoomGrids = {
    {"DepDelay", -10, 5, 26},  {"ArrDelay", -40, 5, 36},
    {"Distance", 150, 50, 40}, {"AirTime", 20, 10, 40},
    {"CrsDepTime", 0, 100, 24}, {"DepTime", 0, 100, 24},
    {"TaxiOut", 10, 2, 20}};

/// Parameter draws for the `index`-th round of a seeded walk. The k-th draw
/// of every round visits its list as a seeded permutation, each element once
/// per cycle of rounds, so every seed issues the same mix of gestures; seeds
/// differ in the data, the order of the gestures' parameters and the free
/// draws (zoom positions, scroll targets).
class Draws {
 public:
  Draws(uint64_t seed, int64_t index)
      : seed_(seed),
        index_(static_cast<uint64_t>(index)),
        rng_(MixSeed(seed, static_cast<uint64_t>(index))) {}

  /// The next stratified draw from [0, n).
  uint64_t Slot(uint64_t n) {
    const uint64_t stream = next_stream_++;
    std::vector<uint64_t> perm(n);
    for (uint64_t i = 0; i < n; ++i) perm[i] = i;
    Random shuffle(MixSeed(MixSeed(seed_, 0x5eed + stream), index_ / n));
    for (uint64_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[shuffle.NextUint64(i)]);
    }
    return perm[index_ % n];
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Slot(v.size())];
  }
  /// A free (unstratified) draw from [0, n).
  uint64_t Free(uint64_t n) { return rng_.NextUint64(n); }

 private:
  uint64_t seed_;
  uint64_t index_;
  uint64_t next_stream_ = 0;
  Random rng_;
};

/// A zoom on a stratified grid column, 1/16 to 1/2 of its grid wide, at a
/// free position.
Zoom RandomZoom(Draws* draws) {
  const ZoomGrid& g = draws->Pick(kZoomGrids);
  const int width = std::max(1, g.steps >> (4 - draws->Slot(4)));
  const int a = static_cast<int>(draws->Free(g.steps - width + 1));
  return Zoom{g.column, static_cast<double>(g.lo + a * g.step),
              static_cast<double>(g.lo + (a + width) * g.step)};
}

/// One analyst's Fig 5 round: O1..O11 with drawn parameters. O9 runs on the
/// view O6 zoomed into.
std::vector<GestureSpec> ExploreRound(Draws* draws) {
  std::vector<GestureSpec> round(kNumOps);
  for (int i = 0; i < kNumOps; ++i) round[i].op = i + 1;
  round[0].order = NumericOrder(static_cast<int>(draws->Slot(kNumericOrders)));
  round[1].order = WideOrder(static_cast<int>(draws->Slot(kWideOrders)));
  round[2].order = StringOrder(static_cast<int>(draws->Slot(kStringOrders)));
  round[3].order = WideOrder(static_cast<int>(draws->Slot(kWideOrders)));
  round[3].q = 0.05 + 0.01 * static_cast<double>(draws->Free(91));
  round[4].x = draws->Pick(kChartColumns);
  round[5].view = {RandomZoom(draws)};
  round[5].x = draws->Pick(kChartColumns);
  round[6].x = draws->Pick(kStringColumns);
  round[7].x = draws->Pick(kStringColumns);
  round[7].k = draws->Pick(std::vector<int>{10, 20, 50, 100});
  round[8].view = round[5].view;
  round[8].x = draws->Pick(kDistinctColumns);
  round[9].x = draws->Pick(kStackX);
  round[9].y = draws->Pick(kStackY);
  const auto& pair = draws->Pick(kHeatPairs);
  round[10].x = pair.first;
  round[10].y = pair.second;
  return round;
}

/// What follows a crash in crash_recover: one gesture that today cannot
/// heal (a progressive histogram on even rounds, a zoom on odd ones), then
/// a blocking chart whose query heals the worker by redo-log replay. Each
/// parity has its own draws, indexed by round / 2.
std::vector<GestureSpec> AfterCrash(uint64_t seed, int64_t round) {
  Draws draws(MixSeed(seed, 0xc4a5 + static_cast<uint64_t>(round % 2)),
              round / 2);
  GestureSpec first;
  if (round % 2 == 0) {
    first.op = 5;  // column ranges are cached by the warm-up
    first.x = draws.Pick(kChartColumns);
  } else {
    first.op = 6;
    first.view = {RandomZoom(&draws)};
    first.x = draws.Pick(kChartColumns);
  }
  GestureSpec heal;
  heal.op = 7;
  heal.x = draws.Pick(kStringColumns);
  return {first, heal};
}

struct Session {
  std::shared_ptr<cluster::RootSession> root;
  std::map<std::string, std::string> views;  // zoom key -> dataset id
};

struct Deployment {
  std::vector<cluster::WorkerPtr> workers;
  cluster::SimulatedNetwork network;  // delay model off: bytes only
  std::unique_ptr<cluster::Cluster> cluster;
  Session session;  // declared last: closed before the cluster goes
};

/// A fresh cluster of `num_workers` single-threaded workers with one session
/// that has loaded the flights dataset.
Status Deploy(int num_workers, const std::vector<LocalDataSet::Loader>& loaders,
              Deployment* d) {
  for (int w = 0; w < num_workers; ++w) {
    d->workers.push_back(std::make_shared<cluster::Worker>(
        "worker" + std::to_string(w), 1));
  }
  d->cluster = std::make_unique<cluster::Cluster>(d->workers, &d->network);
  d->session.root = d->cluster->OpenSession();
  return d->session.root->LoadDataSet(kDataset, loaders);
}

std::string ViewId(const View& view) {
  std::string key;
  for (const Zoom& z : view) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/%s[%.17g,%.17g]", z.column.c_str(),
                  z.lo, z.hi);
    key += buf;
  }
  return key;
}

/// The view a gesture runs on. Every gesture gets a fresh Spreadsheet object,
/// so its sampling seeds depend only on the view and the gesture itself, and
/// a fault-free rerun of the same gesture must return the same bytes.
/// `rezoom` applies the last zoom again even if this session has it.
Result<Spreadsheet> ViewFor(Session* s, const View& view, bool rezoom) {
  if (view.empty()) return Spreadsheet(s->root.get(), kDataset, kScreen);
  const std::string key = ViewId(view);
  auto it = s->views.find(key);
  if (it != s->views.end() && !rezoom) {
    return Spreadsheet(s->root.get(), it->second, kScreen);
  }
  HV_ASSIGN_OR_RETURN(Spreadsheet parent,
                      ViewFor(s, View(view.begin(), view.end() - 1), false));
  const Zoom& z = view.back();
  HV_ASSIGN_OR_RETURN(Spreadsheet zoomed,
                      parent.FilterRange(z.column, z.lo, z.hi));
  s->views[key] = zoomed.dataset_id();
  return zoomed;
}

void SerializeItems(const std::vector<HeavyHittersResult::Item>& items,
                    ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(items.size()));
  for (const auto& item : items) {
    SerializeValue(item.value, w);
    w->WriteI64(item.count);
  }
}

std::string RenderPage(const NextItemsResult& page) {
  std::string out;
  for (const RowSnapshot& row : page.rows) {
    for (const Value& v : row.values) out += ValueToString(v) + '\t';
    out += std::to_string(row.count) + '\n';
  }
  return out;
}

/// Runs a progressive histogram: the first partial is rendered as soon as
/// it arrives, the final one when the stream completes. The first partial
/// is timed from the stream's query, after the column's range (which the
/// stream would fetch for its buckets) is in hand: from the gesture's start,
/// a zoom's first partial also holds the zoom and the new view's range
/// query, and the median of both kinds fell in the gap between them (about
/// 1.3 ms without a zoom, 3 to 18 ms with one), jumping twofold between
/// runs.
Status ProgressiveHistogram(Spreadsheet* sheet, const std::string& column,
                            GestureRecord* rec, size_t* sink) {
  HV_RETURN_IF_ERROR(sheet->ColumnRange(column).status());
  Stopwatch watch;
  HV_ASSIGN_OR_RETURN(auto stream, sheet->HistogramStream(column));
  std::mutex mu;
  int partials = 0;
  double first_ms = -1;
  stream->Subscribe([&](const PartialResult<HistogramResult>& p) {
    std::lock_guard<std::mutex> lock(mu);
    if (partials++ == 0) {
      *sink += RenderHistogram(p.value, kScreen).bar_heights.size();
      first_ms = watch.ElapsedMillis();
    }
  });
  auto last = stream->BlockingLast();
  HV_RETURN_IF_ERROR(stream->final_status());
  if (!last.has_value()) return Status::Internal("empty histogram stream");
  std::lock_guard<std::mutex> lock(mu);
  rec->first_partial_ms = first_ms;
  rec->partials = partials;
  rec->coverage = std::min(rec->coverage, last->coverage);
  rec->hists.push_back(last->value);
  return Status::OK();
}

Status Execute(Session* s, const GestureSpec& g, GestureRecord* rec,
               double* render_ms, size_t* sink) {
  const bool rezoom = g.op == 6;
  HV_ASSIGN_OR_RETURN(Spreadsheet sheet, ViewFor(s, g.view, rezoom));
  rec->dataset_id = sheet.dataset_id();
  Stopwatch render;
  double render_total = 0;
  auto rendered = [&] { render_total += render.ElapsedMillis(); };
  const RecordOrder* order =
      g.order >= 0 ? &SortOrders()[static_cast<size_t>(g.order)] : nullptr;
  switch (g.op) {
    case 1:
    case 2:
    case 3: {
      HV_ASSIGN_OR_RETURN(NextItemsResult page,
                          sheet.TableView(*order, {}, std::nullopt,
                                          kPageRows));
      render.Restart();
      *sink += RenderPage(page).size();
      rendered();
      rec->page = std::move(page);
      break;
    }
    case 4: {
      HV_ASSIGN_OR_RETURN(NextItemsResult page,
                          sheet.ScrollTo(*order, {}, g.q, kPageRows));
      render.Restart();
      *sink += RenderPage(page).size();
      rendered();
      rec->page = std::move(page);
      break;
    }
    case 5:
    case 6: {
      if (g.op == 6) {
        HV_ASSIGN_OR_RETURN(rec->rows, sheet.RowCount());
      }
      HV_RETURN_IF_ERROR(ProgressiveHistogram(&sheet, g.x, rec, sink));
      HV_ASSIGN_OR_RETURN(HistogramResult cdf, sheet.Cdf(g.x));
      render.Restart();
      *sink += RenderHistogram(rec->hists[0], kScreen).bar_heights.size();
      *sink += RenderCdf(cdf, kScreen).pixel_y.size();
      rendered();
      rec->hists.push_back(std::move(cdf));
      break;
    }
    case 7: {
      HV_ASSIGN_OR_RETURN(HistogramResult h, sheet.Histogram(g.x));
      render.Restart();
      *sink += RenderHistogram(h, kScreen).bar_heights.size();
      rendered();
      rec->hists.push_back(std::move(h));
      break;
    }
    case 8: {
      HV_ASSIGN_OR_RETURN(rec->hitters,
                          sheet.HeavyHitters(g.x, g.k, /*sampled=*/true));
      render.Restart();
      for (const auto& item : rec->hitters) {
        *sink += ValueToString(item.value).size();
      }
      rendered();
      break;
    }
    case 9: {
      HV_ASSIGN_OR_RETURN(rec->distinct, sheet.DistinctCount(g.x));
      render.Restart();
      *sink += std::to_string(std::llround(rec->distinct)).size();
      rendered();
      break;
    }
    case 10: {
      HV_ASSIGN_OR_RETURN(Histogram2DResult h2,
                          sheet.StackedHistogram(g.x, g.y));
      HV_ASSIGN_OR_RETURN(HistogramResult cdf, sheet.Cdf(g.x));
      render.Restart();
      *sink += RenderStackedHistogram(h2, kScreen, false).bar_heights.size();
      *sink += RenderCdf(cdf, kScreen).pixel_y.size();
      rendered();
      rec->h2 = std::move(h2);
      rec->hists.push_back(std::move(cdf));
      break;
    }
    case 11: {
      HV_ASSIGN_OR_RETURN(Histogram2DResult h2,
                          sheet.HeatMap(g.x, g.y));
      render.Restart();
      *sink += RenderHeatMap(h2).color.size();
      rendered();
      rec->h2 = std::move(h2);
      break;
    }
    default:
      return Status::InvalidArgument("unknown gesture");
  }
  rec->coverage = std::min(rec->coverage, sheet.view_coverage());
  *render_ms = render_total;
  return Status::OK();
}

std::vector<uint8_t> ResultBytes(const GestureRecord& rec) {
  ByteWriter w;
  for (const auto& h : rec.hists) h.Serialize(&w);
  if (rec.h2.has_value()) rec.h2->Serialize(&w);
  if (rec.page.has_value()) rec.page->Serialize(&w);
  SerializeItems(rec.hitters, &w);
  w.WriteDouble(rec.distinct);
  w.WriteI64(rec.rows);
  return w.Take();
}

std::atomic<size_t> rendered_cells{0};

GestureRecord RunGesture(Session* s, const GestureSpec& g, int64_t round,
                         LayerProbe* probe) {
  GestureRecord rec;
  rec.spec = g;
  rec.round = round;
  size_t sink = 0;
  double render_ms = 0;
  const LayerProbe::Counters before =
      probe ? probe->Sample(s->root.get()) : LayerProbe::Counters{};
  Stopwatch watch;
  Status st = Execute(s, g, &rec, &render_ms, &sink);
  rec.ms = watch.ElapsedMillis();
  rec.ok = st.ok();
  if (!st.ok()) rec.error = st.ToString();
  if (rec.ok) rec.bytes = ResultBytes(rec);
  rendered_cells += sink;  // keeps the rendering from being optimized away
  if (probe != nullptr) {
    probe->AfterGesture(s->root.get(), rec, before, render_ms);
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Workloads: the session runs whole rounds until the time is up.

struct RunResult {
  std::vector<GestureRecord> records;
  double timed_s = 0;
  uint64_t root_bytes = 0;
  // crash_recover: index in `records` of the first gesture after each crash.
  std::vector<size_t> crash_records;
};

void RunExplore(Session* s, const Args& args, LayerProbe* probe,
                RunResult* out) {
  Stopwatch timed;
  for (int64_t round = 0; timed.ElapsedSeconds() < args.seconds; ++round) {
    Draws draws(args.seed, round);
    for (const GestureSpec& g : ExploreRound(&draws)) {
      out->records.push_back(RunGesture(s, g, round, probe));
    }
  }
  out->timed_s = timed.ElapsedSeconds();
}

/// crash_recover: each round is two explore rounds (22 gestures) with one
/// crash at a seeded point, followed by the two gestures of AfterCrash: 24
/// gestures, of which exactly one fails today. The workers crash in turn, one
/// per round, so each worker's soft state is rebuilt every W rounds.
void RunCrashRecover(Deployment* d, const Args& args, LayerProbe* probe,
                     RunResult* out) {
  Session* s = &d->session;
  Stopwatch timed;
  for (int64_t round = 0; timed.ElapsedSeconds() < args.seconds; ++round) {
    Draws first(args.seed, 2 * round), second(args.seed, 2 * round + 1);
    std::vector<GestureSpec> gestures = ExploreRound(&first);
    std::vector<GestureSpec> more = ExploreRound(&second);
    gestures.insert(gestures.end(), more.begin(), more.end());
    const size_t crash_at = first.Free(gestures.size() + 1);
    const int worker =
        static_cast<int>(round % static_cast<int64_t>(d->workers.size()));
    std::vector<GestureSpec> after = AfterCrash(args.seed, round);
    gestures.insert(gestures.begin() + static_cast<long>(crash_at),
                    after.begin(), after.end());
    for (size_t i = 0; i < gestures.size(); ++i) {
      if (i == crash_at) {
        s->root->RestartWorker(worker);
        out->crash_records.push_back(out->records.size());
        if (probe != nullptr) probe->AfterRestart(worker);
      }
      out->records.push_back(RunGesture(s, gestures[i], round, probe));
    }
  }
  out->timed_s = timed.ElapsedSeconds();
}

/// The failure the two named faults give: a worker that lost its soft state
/// answers a stream or a map without replaying the redo log.
bool IsNamedFault(const std::string& error) {
  return error.rfind("Unavailable: ", 0) == 0 &&
         error.find(std::string("no dataset '") + kDataset + "'") !=
             std::string::npos;
}

/// Only the gesture right after a crash may fail, and only with the named
/// faults' error. A run in which it succeeds (a mended fault) is correct.
std::string CheckFailures(const RunResult& run) {
  const std::set<size_t> may_fail(run.crash_records.begin(),
                                  run.crash_records.end());
  for (size_t i = 0; i < run.records.size(); ++i) {
    const GestureRecord& r = run.records[i];
    if (r.ok || (may_fail.count(i) != 0 && IsNamedFault(r.error))) continue;
    return "gesture O" + std::to_string(r.spec.op) + " in round " +
           std::to_string(r.round) + " failed: " + r.error;
  }
  return "";
}

/// Every successful gesture from a crash to the end of its round must be
/// byte-identical to the same gesture on a fresh cluster that never
/// crashed, or be marked partial. The reference cluster is built over the
/// same loaders after the timed deployment is gone.
std::string CheckHealed(const RunResult& run, int num_workers,
                        const std::vector<LocalDataSet::Loader>& loaders,
                        int64_t* compared) {
  Deployment ref;
  Status deployed = Deploy(num_workers, loaders, &ref);
  if (!deployed.ok()) return "fault-free cluster: " + deployed.ToString();
  for (size_t c : run.crash_records) {
    for (size_t i = c;
         i < run.records.size() && run.records[i].round == run.records[c].round;
         ++i) {
      const GestureRecord& r = run.records[i];
      if (!r.ok || r.coverage < 1.0) continue;  // failed, or marked partial
      GestureRecord again = RunGesture(&ref.session, r.spec, r.round, nullptr);
      if (!again.ok) return "fault-free rerun failed: " + again.error;
      std::string diff = Oracle::SameBytes(again.bytes, r.bytes);
      if (!diff.empty()) {
        return "healed gesture O" + std::to_string(r.spec.op) +
               " in round " + std::to_string(r.round) +
               " differs from the fault-free run: " + diff;
      }
      ++*compared;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Metrics.

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// String bucket boundaries as the program plans them for a view.
StringGeometry ProgramGeometry(Session* s) {
  return [s](const View& view, const std::string& col,
             int count) -> Result<Buckets> {
    HV_ASSIGN_OR_RETURN(Spreadsheet sheet, ViewFor(s, view, false));
    HV_ASSIGN_OR_RETURN(RangeResult range, sheet.ColumnRange(col));
    HV_ASSIGN_OR_RETURN(BottomKResult bottom, sheet.DistinctStrings(col));
    return Buckets(PlanStringBuckets(bottom, range, count));
  };
}

int Run(const Args& args) {
  const int cpus = UsableCpus();
  // One single-threaded worker per two cores, and the client thread on the
  // other half: the load never oversubscribes the cores, which keeps
  // host-level CPU contention from stalling a fan-out on one late worker.
  const int num_workers = std::max(1, cpus / 2);
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  Inputs inputs;
  Status made = MakeInputs(args, cpus, &inputs);
  if (!made.ok()) {
    std::fprintf(stderr, "input setup failed: %s\n", made.ToString().c_str());
    return 2;
  }
  auto d = std::make_unique<Deployment>();
  Status loaded = Deploy(num_workers, inputs.loaders, d.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 2;
  }
  // Warm-up: materialize every partition and cache the base view's
  // preparation queries (row count, every column's range, string samples).
  {
    Spreadsheet base(d->session.root.get(), kDataset, kScreen);
    bool warm = base.RowCount().ok();
    const Schema schema = workload::FlightsSchema();
    for (const ColumnDescription& c : schema.columns()) {
      warm = warm && base.ColumnRange(c.name).ok();
      if (c.kind == DataKind::kCategory) {
        warm = warm && base.DistinctStrings(c.name).ok();
      }
    }
    if (!warm) {
      std::fprintf(stderr, "warm-up failed\n");
      return 2;
    }
  }
  const double setup_s = SecondsSinceStart();

  std::unique_ptr<LayerProbe> probe;
  if (args.trace) {
    probe = std::make_unique<LayerProbe>(d->cluster.get(), &inputs.partitions,
                                         inputs.files, args.workdir);
  }
  RunResult run;
  const uint64_t bytes_before = d->network.bytes_received_by_root();
  if (args.workload == "explore") {
    RunExplore(&d->session, args, probe.get(), &run);
  } else {
    RunCrashRecover(d.get(), args, probe.get(), &run);
  }
  run.root_bytes = d->network.bytes_received_by_root() - bytes_before;
  const double peak_rss_mb = PeakRssMb();

  // Metrics are computed before the checks below issue more queries.
  std::vector<double> latencies, first_partials;
  int64_t ok = 0;
  for (const GestureRecord& r : run.records) {
    latencies.push_back(r.ok ? r.ms : INFINITY);
    if (!r.ok) continue;
    ++ok;
    if (r.first_partial_ms >= 0) first_partials.push_back(r.first_partial_ms);
  }
  const int64_t attempted = static_cast<int64_t>(run.records.size());
  const int64_t failed = attempted - ok;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"gesture_ms_p50", Percentile(latencies, 0.5), "ms"},
        {"gesture_ms_p90", Percentile(latencies, 0.9), "ms"},
        {"gestures_per_s", static_cast<double>(ok) / run.timed_s, "1/s"},
        {"first_partial_ms_p50", Percentile(first_partials, 0.5), "ms"},
        {"root_kb_per_gesture",
         static_cast<double>(run.root_bytes) / 1024.0 /
             static_cast<double>(std::max<int64_t>(1, attempted)),
         "KB"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // A census after the timed phase: one explore round (one gesture of
    // every kind, round -1), so every per-kind figure has a sample in every
    // workload.
    std::vector<GestureRecord> traced = run.records;
    Draws census(MixSeed(args.seed, 0xce5u), 0);
    for (const GestureSpec& g : ExploreRound(&census)) {
      traced.push_back(RunGesture(&d->session, g, -1, probe.get()));
    }
    LayerProbe::Summary summary;
    summary.records = &traced;
    summary.timed_s = run.timed_s;
    summary.generate_s = inputs.generate_s;
    summary.spill_s = inputs.spill_s;
    summary.session = d->session.root.get();
    summary.crash_records = run.crash_records;
    for (const auto& m : probe->Report(summary)) {
      metrics.push_back({m.name, m.value, m.unit});
    }
    probe.reset();
  }

  // Correctness: the failures, the independent oracle, then byte identity
  // of the healed gestures against a fresh cluster.
  Stopwatch checking;
  std::string problem = CheckFailures(run);
  if (inputs.partitions.empty()) {
    GeneratePartitions(args.seed, cpus, &inputs.partitions);
  }
  Oracle oracle(&inputs.partitions, kScreen, ProgramGeometry(&d->session));
  int64_t checked = 0, compared = 0;
  if (problem.empty()) problem = oracle.CheckAll(run.records, cpus, &checked);
  d.reset();
  if (problem.empty() && args.workload == "crash_recover") {
    problem = CheckHealed(run, num_workers, inputs.loaders, &compared);
  }
  std::fprintf(stderr,
               "%s: %" PRId64 " gestures (%" PRId64 " failed) in %.2fs, "
               "setup %.2fs, %" PRId64 " results checked and %" PRId64
               " healed results compared in %.2fs%s%s\n",
               args.workload.c_str(), attempted, failed, run.timed_s, setup_s,
               checked, compared, checking.ElapsedSeconds(),
               problem.empty() ? "" : "; WRONG: ", problem.c_str());

  inputs.loaders.clear();
  std::filesystem::remove_all(args.workdir, ec);
  PrintResult(problem.empty(), attempted, failed, metrics);
  return problem.empty() ? 0 : 1;
}

/// Shows that every check can fail: runs a small deployment, confirms the
/// clean results pass, then corrupts one result at a time.
int RunSelfTest() {
  std::vector<TablePtr> parts;
  for (uint32_t p = 0; p < 4; ++p) {
    parts.push_back(workload::GenerateFlights(25000, MixSeed(7, p)));
  }
  std::vector<LocalDataSet::Loader> loaders;
  for (const TablePtr& t : parts) {
    loaders.push_back([t]() -> Result<TablePtr> { return t; });
  }
  Deployment d;
  if (!Deploy(2, loaders, &d).ok()) return 2;
  Session& s = d.session;

  Draws draws(7, 0);
  std::vector<GestureSpec> specs = ExploreRound(&draws);
  std::vector<GestureRecord> recs;
  for (const GestureSpec& g : specs) {
    recs.push_back(RunGesture(&s, g, 0, nullptr));
  }
  Oracle oracle(&parts, kScreen, ProgramGeometry(&s));
  int64_t checked = 0;
  std::string clean = oracle.CheckAll(recs, 1, &checked);
  int failures = 0;
  std::printf("clean results (%lld checked): %s\n",
              static_cast<long long>(checked),
              clean.empty() ? "accepted" : clean.c_str());
  if (!clean.empty() || checked != static_cast<int64_t>(recs.size())) {
    ++failures;
  }

  // recs[i] holds operation O(i+1).
  struct Corruption {
    const char* what;
    int op;
    std::function<void(GestureRecord*)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"histogram bucket off by one", 5,
       [](GestureRecord* r) { r->hists[0].counts[3] += 1; }},
      {"cdf bucket off by one", 5,
       [](GestureRecord* r) { r->hists[1].counts[10] -= 1; }},
      {"zoom row count off by one", 6, [](GestureRecord* r) { r->rows += 1; }},
      {"string histogram bucket off by one", 7,
       [](GestureRecord* r) { r->hists[0].counts[0] += 1; }},
      {"swapped sort page rows", 1,
       [](GestureRecord* r) { std::swap(r->page->rows[0], r->page->rows[1]); }},
      {"sort page duplicate count off by one", 3,
       [](GestureRecord* r) { r->page->rows[2].count += 1; }},
      {"scroll landing shifted", 4,
       [](GestureRecord* r) { r->page->rows_before += 1; }},
      {"heavy hitter dropped", 8,
       [](GestureRecord* r) { r->hitters.erase(r->hitters.begin()); }},
      {"distinct count outside its bound", 9,
       [](GestureRecord* r) { r->distinct *= 1.2; }},
      {"stacked histogram segment off by one", 10,
       [](GestureRecord* r) { r->h2->xy[0] += 1; }},
      {"heat map cell off by one", 11,
       [](GestureRecord* r) { r->h2->xy[r->h2->xy.size() / 2] += 1; }},
  };
  for (const Corruption& c : corruptions) {
    GestureRecord bad = recs[static_cast<size_t>(c.op - 1)];
    c.apply(&bad);
    std::string verdict = oracle.Check(bad);
    std::printf("%-40s %s\n", c.what,
                verdict.empty() ? "ACCEPTED" : ("rejected: " + verdict).c_str());
    if (verdict.empty()) ++failures;
  }
  // Byte identity: a healed summary with one flipped byte.
  std::vector<uint8_t> healed = recs[6].bytes;
  healed[healed.size() / 2] ^= 0x01;
  std::string verdict = Oracle::SameBytes(recs[6].bytes, healed);
  std::printf("%-40s %s\n", "healed summary with one flipped byte",
              verdict.empty() ? "ACCEPTED" : ("rejected: " + verdict).c_str());
  if (verdict.empty()) ++failures;

  // Failures: only the gesture right after a crash may fail, and only with
  // the named faults' error. The first case takes its error from a real
  // crash; today it fails, and a mended program passes it too.
  s.root->RestartWorker(0);
  GestureRecord after = RunGesture(&s, AfterCrash(7, 1)[0], 1, nullptr);
  std::printf("zoom right after a crash: %s\n",
              after.ok ? "ok" : after.error.c_str());
  struct FailureCase {
    const char* what;
    std::vector<size_t> crashes;
    size_t at;
    std::string error;
    bool accept;
  };
  const std::vector<FailureCase> failure_cases = {
      {"gesture after a crash, as it ran", {3}, 3, after.error, true},
      {"named fault away from the crash", {3}, 4,
       "Unavailable: worker worker0: no dataset 'flights'", false},
      {"other error after the crash", {3}, 3,
       "DeadlineExceeded: worker worker0: attempt timed out", false},
  };
  for (const FailureCase& c : failure_cases) {
    RunResult run;
    run.records = recs;
    run.crash_records = c.crashes;
    run.records[c.at].ok = c.error.empty();
    run.records[c.at].error = c.error;
    verdict = CheckFailures(run);
    const bool right = verdict.empty() == c.accept;
    std::printf("%-40s %s%s\n", c.what,
                verdict.empty() ? "accepted" : ("rejected: " + verdict).c_str(),
                right ? "" : " (WRONG)");
    if (!right) ++failures;
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

const std::vector<RecordOrder>& SortOrders() {
  static const std::vector<RecordOrder> kOrders = [] {
    std::vector<RecordOrder> orders;
    const char* numeric[] = {"DepDelay", "ArrDelay",   "Distance",
                             "AirTime",  "TaxiIn",     "TaxiOut",
                             "CrsDepTime", "DepTime",  "FlightNumber",
                             "WeatherDelay"};
    for (bool asc : {true, false}) {
      for (const char* c : numeric) {
        orders.emplace_back(std::vector<ColumnSortOrientation>{{c, asc}});
      }
    }
    const char* leading[] = {"Year", "Month", "DayOfWeek", "CrsDepTime",
                             "DepTime"};
    for (bool asc : {true, false}) {
      for (const char* c : leading) {
        orders.emplace_back(std::vector<ColumnSortOrientation>{
            {c, asc},
            {"DayOfMonth", true},
            {"DepDelay", asc},
            {"Distance", true},
            {"FlightNumber", true}});
      }
    }
    const char* strings[] = {"Origin", "Dest", "Airline", "OriginState",
                             "DestState"};
    for (bool asc : {true, false}) {
      for (const char* c : strings) {
        orders.emplace_back(std::vector<ColumnSortOrientation>{
            {c, asc}, {"FlightNumber", true}});
      }
    }
    return orders;
  }();
  return kOrders;
}

}  // namespace gesturebench

int main(int argc, char** argv) {
  gesturebench::Args args;
  if (!gesturebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gesturebench --workload "
                 "explore|crash_recover --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] | --selftest\n");
    return 2;
  }
  if (args.selftest) return gesturebench::RunSelfTest();
  return gesturebench::Run(args);
}
