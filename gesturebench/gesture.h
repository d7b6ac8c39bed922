// Gesture vocabulary shared by the driver, the oracle and the layer probes.
//
// A gesture is one user action issued through hillview::Spreadsheet (the
// paper's Fig 4 operations O1..O11, parameterised by column, zoom range and
// sort order), timed from the call until its result has been rendered.
#ifndef GESTUREBENCH_GESTURE_H_
#define GESTUREBENCH_GESTURE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "render/screen.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/next_items.h"
#include "storage/row_order.h"

namespace gesturebench {

/// Display geometry of every chart: at this size and the row counts below,
/// histogram, CDF, stacked-histogram and heat-map plans all sample at rate 1
/// (exact), while heavy hitters and the scroll quantile sample.
inline constexpr hillview::ScreenResolution kScreen{400, 200};
inline constexpr int kPageRows = 20;
inline constexpr int kNumOps = 11;

/// A zoom: rows of the base table whose `column` lies in [lo, hi].
struct Zoom {
  std::string column;
  double lo = 0;
  double hi = 0;
  bool operator==(const Zoom&) const = default;
};

/// A view: zooms applied one after the other to the base table (empty for
/// the base table itself).
using View = std::vector<Zoom>;

struct GestureSpec {
  int op = 0;                 // 1..11, Fig 4 numbering
  View view;                  // view the gesture runs on; op 6 adds its last zoom
  std::string x, y;           // chart columns
  int order = -1;             // index into SortOrders()
  double q = 0;               // scroll target (op 4)
  int k = 0;                  // heavy-hitter threshold 1/k (op 8)
};

/// What a gesture returned; the oracle checks these after the timed phase.
struct GestureRecord {
  GestureSpec spec;
  std::string dataset_id;  // the view's dataset on the cluster
  int64_t round = 0;
  bool ok = false;
  std::string error;
  double ms = 0;
  double first_partial_ms = -1;  // progressive gestures only
  int partials = 0;
  double coverage = 1.0;
  std::vector<hillview::HistogramResult> hists;  // histogram, then CDF
  std::optional<hillview::Histogram2DResult> h2;
  std::optional<hillview::NextItemsResult> page;
  std::vector<hillview::HeavyHittersResult::Item> hitters;
  double distinct = 0;
  int64_t rows = -1;             // zoom row count (op 6)
  std::vector<uint8_t> bytes;    // serialized results, for byte identity
};

/// Nearest-rank percentile (p in (0, 1]); 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The sort orders the table gestures visit. A sort-key column costs 8 bytes
/// per row, 16 MB for a worker holding 2M rows, so the pool (40 orders)
/// outgrows the 128 MiB SortKeyCache budget of every worker.
const std::vector<hillview::RecordOrder>& SortOrders();
/// Index ranges in SortOrders(): single numeric, five-column, string.
inline constexpr int kNumericOrders = 20;
inline constexpr int kWideOrders = 10;
inline constexpr int kStringOrders = 10;
inline int NumericOrder(int i) { return i % kNumericOrders; }
inline int WideOrder(int i) { return kNumericOrders + i % kWideOrders; }
inline int StringOrder(int i) {
  return kNumericOrders + kWideOrders + i % kStringOrders;
}

}  // namespace gesturebench

#endif  // GESTUREBENCH_GESTURE_H_
