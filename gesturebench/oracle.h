// Independent correctness checks for gesture results.
//
// The oracle recomputes what every gesture should have returned with plain
// loops over the generated partition tables: its own row filter for zooms,
// its own column ranges and numeric bucket geometry, its own tallies, top-k
// and distinct counts. The only program output it takes as given is the
// boundary list of string buckets, which the program derives from a
// bottom-k sample; the counts inside those buckets are still recomputed.
#ifndef GESTUREBENCH_ORACLE_H_
#define GESTUREBENCH_ORACLE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "gesture.h"
#include "sketch/buckets.h"
#include "storage/table.h"

namespace gesturebench {

/// String bucket boundaries for (view, column, bucket count).
using StringGeometry = std::function<hillview::Result<hillview::Buckets>(
    const View&, const std::string&, int)>;

class Oracle {
 public:
  Oracle(const std::vector<hillview::TablePtr>* partitions,
         hillview::ScreenResolution screen, StringGeometry geometry)
      : partitions_(partitions),
        screen_(screen),
        geometry_(std::move(geometry)) {}

  /// Empty when `rec` is correct, otherwise what is wrong with it. Failed
  /// gestures have no result and pass.
  std::string Check(const GestureRecord& rec);

  /// Checks every record on `threads` threads; returns the first problem.
  std::string CheckAll(const std::vector<GestureRecord>& records, int threads,
                       int64_t* checked);

  /// Byte identity of two serialized results (healed vs fault-free).
  static std::string SameBytes(const std::vector<uint8_t>& a,
                               const std::vector<uint8_t>& b);

 private:
  struct ColumnStats {
    double min = 0, max = 0;
    int64_t present = 0, missing = 0;
    bool integral = false;
  };

  /// Expected tallies of a view: bucket counts (y empty) or a grid.
  struct Tally {
    std::vector<int64_t> cells;  // buckets, or the grid row-major by x
    std::vector<int64_t> xs;     // grid: per-x totals
    int64_t missing_x = 0, missing_y = 0, out_of_range = 0;
  };
  using RowLists = std::vector<std::vector<uint32_t>>;
  /// A table page: the first k distinct tuples (with duplicate counts) at
  /// or after a start tuple, and the rows before it.
  struct Page {
    std::vector<std::pair<std::vector<hillview::Value>, int64_t>> rows;
    int64_t before = 0;
  };
  std::shared_ptr<const Page> ExpectedPage(
      const View& view, int order_index,
      const std::vector<hillview::Value>* start);

  /// Member rows of a zoom per partition (nullptr for the base view).
  std::shared_ptr<const RowLists> Members(const View& view);
  template <typename Fn>
  void ForEachRow(const View& view, Fn fn,
                  int only_partition = -1);
  std::shared_ptr<const Tally> Expected(const View& view,
                                        const std::string& x,
                                        const hillview::Buckets& xb,
                                        const std::string& y,
                                        const hillview::Buckets& yb);
  ColumnStats Stats(const View& view, const std::string& col);
  hillview::Result<hillview::Buckets> Geometry(const View& view,
                                               const std::string& col,
                                               int count);
  int64_t ViewRows(const View& view);

  std::string CheckHistogram(const GestureRecord& rec,
                             const hillview::HistogramResult& h,
                             const std::string& col, int count, bool cdf);
  std::string CheckGrid(const GestureRecord& rec, int x_count, int y_count);
  std::string CheckPage(const GestureRecord& rec);
  std::string CheckHitters(const GestureRecord& rec);
  std::string CheckDistinct(const GestureRecord& rec);

  const std::vector<hillview::TablePtr>* partitions_;
  hillview::ScreenResolution screen_;
  StringGeometry geometry_;
  std::mutex mu_;  // guards the memo tables and geometry_ calls
  std::map<std::string, ColumnStats> stats_;
  std::map<std::string, int64_t> rows_;
  std::map<std::string, hillview::Buckets> buckets_;
  std::map<std::string, std::shared_ptr<const Tally>> tallies_;
  std::map<std::string, std::shared_ptr<const Page>> pages_;
  std::map<std::string, std::shared_ptr<const RowLists>> members_;
  std::vector<std::string> member_order_;
  size_t member_rows_ = 0;
};

}  // namespace gesturebench

#endif  // GESTUREBENCH_ORACLE_H_
