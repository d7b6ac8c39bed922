// Per-layer spans for the traced run (--trace 1).
//
// Nothing inside the program is instrumented. After each gesture the probe
// issues that gesture's vizketch queries again, uncached and with the same
// parameters, through each layer's public entry point, and records a span
// around each call:
//   cluster  RootSession::RunSketch (scheduler, fan-out, wire, merge)
//   core     Worker::GetDataSet + the worker-local execution tree
//   sketch   Sketch::Summarize / Merge on the generated partition tables
//   storage  FilterRangeMembership, MapTableFile, SortKeyCache snapshots
// A layer's self time is its span minus the span of the layer below for the
// same query. Counts come from the public Snapshot() structs.
#ifndef GESTUREBENCH_LAYERS_H_
#define GESTUREBENCH_LAYERS_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/root.h"
#include "gesture.h"
#include "storage/table.h"

namespace gesturebench {

class LayerProbe {
 public:
  /// Session-local counters sampled before a gesture.
  struct Counters {
    int64_t sketch_entries = 0;  // redo-log "sketch" entries (queries run)
    int64_t cache_served = 0;    // shared-cache hits + coalesced
  };
  struct Summary {
    const std::vector<GestureRecord>* records = nullptr;
    double timed_s = 0;
    double generate_s = 0;
    double spill_s = 0;
    hillview::cluster::RootSession* session = nullptr;
    std::vector<size_t> crash_records;  // first record after each crash
  };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  LayerProbe(hillview::cluster::Cluster* cluster,
             const std::vector<hillview::TablePtr>* partitions,
             std::vector<std::string> files, std::string workdir)
      : cluster_(cluster),
        partitions_(partitions),
        files_(std::move(files)),
        workdir_(std::move(workdir)) {}

  Counters Sample(hillview::cluster::RootSession* session);

  /// Re-issues the gesture's queries through every layer. Thread-safe.
  void AfterGesture(hillview::cluster::RootSession* session,
                    const GestureRecord& rec, const Counters& before,
                    double render_ms);

  /// Times re-opening the crashed worker's partition files.
  void AfterRestart(int worker);

  std::vector<Metric> Report(const Summary& summary);

 private:
  struct QuerySpan {
    double cluster_ms = 0, core_ms = 0, sketch_ms = 0;
    double summarize_ms = 0, merge_ms = 0;
    double summary_bytes = 0;
    double rows = 0, row_seconds = 0;
    double bytes_up = 0, bytes_down = 0, messages_up = 0;
    int transport_retries = 0;
  };
  struct KindStats {
    int n = 0;
    double summarize_ms = 0, merge_ms = 0, summary_bytes = 0;
  };

  template <typename R>
  void Probe(hillview::cluster::RootSession* session, const GestureRecord& rec,
             std::shared_ptr<const hillview::Sketch<R>> sketch,
             const std::string& kind, double* attributed_ms);

  void OpenFiles(const std::vector<std::string>& files);
  double HealProbeMs(hillview::cluster::RootSession* session);

  hillview::cluster::Cluster* cluster_;
  const std::vector<hillview::TablePtr>* partitions_;
  std::vector<std::string> files_;
  std::string workdir_;

  std::mutex mu_;  // guards everything below
  int64_t gestures_ = 0;
  double queries_ = 0;
  double render_ms_ = 0;
  double unattributed_ms_ = 0;
  double probe_ms_ = 0;
  int64_t progressive_ = 0;
  double partials_ = 0;
  std::vector<QuerySpan> spans_;
  std::map<std::string, KindStats> kinds_;
  double filter_ms_ = 0;
  int64_t filters_ = 0;
  double open_ms_ = 0;
  int64_t opens_ = 0;
  double mapped_bytes_ = 0, resident_bytes_ = 0;
};

}  // namespace gesturebench

#endif  // GESTUREBENCH_LAYERS_H_
