#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "render/chart.h"
#include "sketch/sample_size.h"

namespace gesturebench {

using namespace hillview;  // NOLINT

namespace {

/// Typed cell access to one column of one partition, read straight from the
/// column's raw arrays.
struct Cells {
  enum class Kind { kNone, kDouble, kInt, kDate, kCode };

  Cells(const Table& table, const std::string& name) {
    col = table.GetColumnOrNull(name).get();
    if (col == nullptr) return;
    nulls = &col->null_mask();
    has_nulls = !nulls->empty();
    if ((d = col->RawDouble()) != nullptr) {
      kind = Kind::kDouble;
    } else if ((i = col->RawInt()) != nullptr) {
      kind = Kind::kInt;
    } else if ((l = col->RawDate()) != nullptr) {
      kind = Kind::kDate;
    } else if ((c = col->RawCodes()) != nullptr) {
      kind = Kind::kCode;
      const StringDictionary& dict = col->Dictionary();
      for (uint32_t k = 0; k < dict.size(); ++k) strings.emplace_back(dict[k]);
    }
  }
  bool Missing(uint32_t r) const {
    if (has_nulls && nulls->IsMissing(r)) return true;
    return kind == Kind::kDouble && std::isnan(d[r]);
  }
  double Num(uint32_t r) const {
    switch (kind) {
      case Kind::kDouble:
        return d[r];
      case Kind::kInt:
        return i[r];
      case Kind::kDate:
        return static_cast<double>(l[r]);
      case Kind::kCode:
        return c[r];
      default:
        return 0;
    }
  }
  const std::string& Str(uint32_t r) const { return strings[c[r]]; }
  bool is_string() const { return kind == Kind::kCode; }

  const IColumn* col = nullptr;
  const NullMask* nulls = nullptr;
  bool has_nulls = false;
  Kind kind = Kind::kNone;
  const double* d = nullptr;
  const int32_t* i = nullptr;
  const int64_t* l = nullptr;
  const uint32_t* c = nullptr;
  std::vector<std::string> strings;
};

std::string ViewKey(const View& view) {
  std::string key = "base";
  for (const Zoom& z : view) {
    key += "/" + z.column + "[" + std::to_string(z.lo) + "," +
           std::to_string(z.hi) + "]";
  }
  return key;
}

/// Equi-width bucket of v over [lo, hi] with `count` buckets, the top value
/// landing in the last bucket; -1 outside. Computed exactly: in integers for
/// integer cells and bounds, in extended precision otherwise, so a value on
/// a bucket boundary lands in the bucket that starts there.
int NumericBucket(double v, double lo, double hi, int count) {
  if (v < lo || v > hi) return -1;
  if (v == hi) return count - 1;
  int64_t idx = 0;
  if (std::trunc(v) == v && std::trunc(lo) == lo && std::trunc(hi) == hi &&
      std::fabs(hi - lo) < 1e15) {
    const auto offset = static_cast<__int128>(v - lo);
    idx = static_cast<int64_t>(offset * count /
                               static_cast<__int128>(hi - lo));
  } else {
    idx = static_cast<int64_t>((static_cast<long double>(v) - lo) * count /
                               (static_cast<long double>(hi) - lo));
  }
  return static_cast<int>(std::min<int64_t>(idx, count - 1));
}

/// Missing-last three-way comparison of two cells.
int CompareCells(const Value& a, const Value& b) {
  const bool ma = std::holds_alternative<std::monostate>(a);
  const bool mb = std::holds_alternative<std::monostate>(b);
  if (ma || mb) return ma == mb ? 0 : (ma ? 1 : -1);
  const auto* sa = std::get_if<std::string>(&a);
  const auto* sb = std::get_if<std::string>(&b);
  if (sa != nullptr && sb != nullptr) {
    int c = sa->compare(*sb);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const auto* ia = std::get_if<int64_t>(&a);
  const auto* ib = std::get_if<int64_t>(&b);
  if (ia != nullptr && ib != nullptr) {
    return *ia < *ib ? -1 : (*ia > *ib ? 1 : 0);
  }
  const double da = ia ? static_cast<double>(*ia) : std::get<double>(a);
  const double db = ib ? static_cast<double>(*ib) : std::get<double>(b);
  return da < db ? -1 : (da > db ? 1 : 0);
}

struct TupleLess {
  const std::vector<bool>* asc;
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = CompareCells(a[i], b[i]);
      if (c != 0) return (*asc)[i] ? c < 0 : c > 0;
    }
    return false;
  }
};

/// Encodes one order column of one partition as doubles that order like
/// TupleLess on that column: numbers as themselves, strings by rank in the
/// partition's dictionary, missing last (first when descending).
struct ColumnKey {
  ColumnKey(const Table& t, const std::string& col, bool ascending)
      : cells(t, col), asc(ascending) {
    if (cells.is_string()) {
      sorted = cells.strings;
      std::sort(sorted.begin(), sorted.end());
      for (const std::string& str : cells.strings) {
        code_rank.push_back(Rank(str));
      }
    }
  }
  double Of(uint32_t r) const {
    if (cells.Missing(r)) return asc ? INFINITY : -INFINITY;
    double v = cells.is_string() ? code_rank[cells.c[r]] : cells.Num(r);
    return asc ? v : -v;
  }
  double OfValue(const Value& v) const {
    if (std::holds_alternative<std::monostate>(v)) {
      return asc ? INFINITY : -INFINITY;
    }
    double x = 0;
    if (const auto* s = std::get_if<std::string>(&v)) {
      x = Rank(*s);
    } else if (const auto* i = std::get_if<int64_t>(&v)) {
      x = static_cast<double>(*i);
    } else {
      x = std::get<double>(v);
    }
    return asc ? x : -x;
  }
  double Rank(const std::string& s) const {
    auto it = std::lower_bound(sorted.begin(), sorted.end(), s);
    double rank = static_cast<double>(it - sorted.begin());
    return (it != sorted.end() && *it == s) ? rank : rank - 0.5;
  }
  Cells cells;
  bool asc;
  std::vector<std::string> sorted;
  std::vector<double> code_rank;
};

}  // namespace

std::shared_ptr<const Oracle::RowLists> Oracle::Members(
    const View& view) {
  if (view.empty()) return nullptr;
  const std::string key = ViewKey(view);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = members_.find(key);
    if (it != members_.end()) return it->second;
  }
  // The parent view's rows, narrowed by the last zoom.
  const View parent_view(view.begin(), view.end() - 1);
  std::shared_ptr<const RowLists> parent = Members(parent_view);
  const Zoom& zoom = view.back();
  auto lists = std::make_shared<RowLists>(partitions_->size());
  for (size_t p = 0; p < partitions_->size(); ++p) {
    Cells z(*(*partitions_)[p], zoom.column);
    const uint32_t n = (*partitions_)[p]->universe_size();
    std::vector<uint32_t>& rows = (*lists)[p];
    auto keep = [&](auto* values, uint32_t r) {
      const double v = static_cast<double>(values[r]);
      if (v >= zoom.lo && v <= zoom.hi && !z.Missing(r)) rows.push_back(r);
    };
    auto scan = [&](auto* values) {
      if (parent == nullptr) {
        for (uint32_t r = 0; r < n; ++r) keep(values, r);
      } else {
        for (uint32_t r : (*parent)[p]) keep(values, r);
      }
    };
    switch (z.kind) {
      case Cells::Kind::kDouble:
        scan(z.d);
        break;
      case Cells::Kind::kInt:
        scan(z.i);
        break;
      case Cells::Kind::kDate:
        scan(z.l);
        break;
      default:
        break;
    }
  }
  size_t rows = 0;
  for (const auto& l : *lists) rows += l.size();
  std::lock_guard<std::mutex> lock(mu_);
  // Checks run grouped by view, so the most recent views suffice: keep at
  // most 16M member rows (64 MB).
  if (members_.emplace(key, lists).second) {
    member_order_.push_back(key);
    member_rows_ += rows;
  }
  while (member_rows_ > (16u << 20) && member_order_.size() > 1) {
    auto old = members_.find(member_order_.front());
    for (const auto& l : *old->second) member_rows_ -= l.size();
    members_.erase(old);
    member_order_.erase(member_order_.begin());
  }
  return lists;
}

template <typename Fn>
void Oracle::ForEachRow(const View& view, Fn fn,
                        int only_partition) {
  std::shared_ptr<const RowLists> lists = Members(view);
  for (size_t p = 0; p < partitions_->size(); ++p) {
    if (only_partition >= 0 && p != static_cast<size_t>(only_partition)) {
      continue;
    }
    if (lists == nullptr) {
      const uint32_t n = (*partitions_)[p]->universe_size();
      for (uint32_t r = 0; r < n; ++r) fn(p, r);
    } else {
      for (uint32_t r : (*lists)[p]) fn(p, r);
    }
  }
}

int64_t Oracle::ViewRows(const View& view) {
  const std::string key = ViewKey(view);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rows_.find(key);
    if (it != rows_.end()) return it->second;
  }
  int64_t n = 0;
  ForEachRow(view, [&](size_t, uint32_t) { ++n; });
  std::lock_guard<std::mutex> lock(mu_);
  rows_[key] = n;
  return n;
}

Oracle::ColumnStats Oracle::Stats(const View& view,
                                  const std::string& col) {
  const std::string key = ViewKey(view) + "/" + col;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stats_.find(key);
    if (it != stats_.end()) return it->second;
  }
  ColumnStats s;
  s.min = INFINITY;
  s.max = -INFINITY;
  std::vector<Cells> cells;
  for (const TablePtr& t : *partitions_) cells.emplace_back(*t, col);
  s.integral = cells[0].kind == Cells::Kind::kInt;
  ForEachRow(view, [&](size_t p, uint32_t r) {
    if (cells[p].Missing(r)) {
      ++s.missing;
      return;
    }
    ++s.present;
    const double v = cells[p].Num(r);
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  });
  std::lock_guard<std::mutex> lock(mu_);
  stats_[key] = s;
  return s;
}

Result<Buckets> Oracle::Geometry(const View& view,
                                 const std::string& col, int count) {
  Cells probe(*(*partitions_)[0], col);
  if (probe.col == nullptr) return Status::NotFound("no column " + col);
  if (probe.is_string()) {
    const std::string key =
        ViewKey(view) + "/" + col + "/" + std::to_string(count);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(key);
    if (it != buckets_.end()) return it->second;
    HV_ASSIGN_OR_RETURN(Buckets b, geometry_(view, col, count));
    buckets_[key] = b;
    return b;
  }
  // Numeric geometry from the oracle's own range: degenerate ranges widen
  // by one, integer columns get at most one bucket per integer.
  ColumnStats s = Stats(view, col);
  double lo = s.min, hi = s.max;
  if (s.present == 0) {
    lo = 0;
    hi = 1;
  } else if (lo == hi) {
    hi = lo + 1;
  }
  if (s.integral && hi - lo + 1 < count) count = static_cast<int>(hi - lo + 1);
  return Buckets(NumericBuckets(lo, hi, count));
}

namespace {

/// Bucket of each row of one partition under `b`: -2 for a missing cell,
/// -1 outside every bucket.
struct Bucketer {
  Bucketer(const Cells& c, const Buckets& b) : cells(c), numeric(b.is_numeric()) {
    if (numeric) {
      lo = b.numeric().min();
      hi = b.numeric().max();
      count = b.numeric().count();
      scale = count / (hi - lo);
    } else if (c.is_string()) {
      for (const std::string& str : c.strings) {
        code_bucket.push_back(b.string().IndexOf(str));
      }
    }
  }
  int Of(uint32_t r) const {
    if (cells.Missing(r)) return -2;
    if (!numeric) return cells.is_string() ? code_bucket[cells.c[r]] : -1;
    const double v = cells.Num(r);
    if (v < lo || v > hi) return -1;
    // A fast estimate, and exact arithmetic for values near a boundary.
    const double x = (v - lo) * scale;
    const double frac = x - std::floor(x);
    if (frac > 1e-6 && frac < 1 - 1e-6 && v != hi) {
      return std::min(static_cast<int>(x), count - 1);
    }
    return NumericBucket(v, lo, hi, count);
  }
  const Cells& cells;
  bool numeric;
  double lo = 0, hi = 1, scale = 1;
  int count = 1;
  std::vector<int> code_bucket;
};

/// Sampled counts must lie within five standard deviations of the truth
/// (binomial sampling at `rate`), plus two sampled rows of slack.
bool WithinSampleBound(int64_t sampled, int64_t truth, double rate) {
  if (rate >= 1.0) return sampled == truth;
  const double sd = std::sqrt(static_cast<double>(truth) * (1 - rate) / rate);
  return std::fabs(static_cast<double>(sampled) / rate -
                   static_cast<double>(truth)) <= 5 * sd + 2 / rate;
}

}  // namespace

namespace {

std::string GeometryKey(const Buckets& b) {
  char buf[96];
  if (b.is_numeric()) {
    std::snprintf(buf, sizeof(buf), "n%.17g:%.17g:%d", b.numeric().min(),
                  b.numeric().max(), b.numeric().count());
  } else {
    std::snprintf(buf, sizeof(buf), "s%d", b.count());
  }
  return buf;
}

}  // namespace

std::shared_ptr<const Oracle::Tally> Oracle::Expected(
    const View& view, const std::string& x, const Buckets& xb,
    const std::string& y, const Buckets& yb) {
  const std::string key = ViewKey(view) + "/" + x + "/" + GeometryKey(xb) +
                          "/" + y + "/" + GeometryKey(yb);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tallies_.find(key);
    if (it != tallies_.end()) return it->second;
  }
  // The 1-D tally (y empty) keeps bucket counts in `cells`; the 2-D one
  // follows the grid's rules: X missing or outside drops the row, Y missing
  // still counts toward the X bar.
  auto t = std::make_shared<Tally>();
  const bool grid = !y.empty();
  const int by = grid ? yb.count() : 1;
  t->cells.assign(static_cast<size_t>(xb.count()) * by, 0);
  t->xs.assign(xb.count(), 0);
  std::vector<Cells> xc, yc;
  for (const TablePtr& part : *partitions_) {
    xc.emplace_back(*part, x);
    yc.emplace_back(*part, grid ? y : x);
  }
  std::vector<Bucketer> xk, yk;
  for (size_t p = 0; p < xc.size(); ++p) {
    xk.emplace_back(xc[p], xb);
    yk.emplace_back(yc[p], grid ? yb : xb);
  }
  ForEachRow(view, [&](size_t p, uint32_t r) {
    const int ix = xk[p].Of(r);
    if (ix == -2) {
      ++t->missing_x;
      return;
    }
    if (ix < 0) {
      ++t->out_of_range;
      return;
    }
    if (!grid) {
      ++t->cells[ix];
      return;
    }
    const int iy = yk[p].Of(r);
    if (iy == -2) {
      ++t->missing_y;
      ++t->xs[ix];
      return;
    }
    if (iy < 0) {
      ++t->out_of_range;
      return;
    }
    ++t->xs[ix];
    ++t->cells[static_cast<size_t>(ix) * by + iy];
  });
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.emplace(key, t);
  return t;
}

std::string Oracle::CheckHistogram(const GestureRecord& rec,
                                   const HistogramResult& h,
                                   const std::string& col, int count,
                                   bool cdf) {
  auto geometry = Geometry(rec.spec.view, col, count);
  if (!geometry.ok()) return geometry.status().ToString();
  const Buckets& b = geometry.value();
  if (static_cast<int>(h.counts.size()) != b.count()) {
    return "histogram of " + col + " has " + std::to_string(h.counts.size()) +
           " buckets, expected " + std::to_string(b.count());
  }
  std::shared_ptr<const Tally> tally =
      Expected(rec.spec.view, col, b, "", Buckets());
  const std::vector<int64_t>& expect = tally->cells;
  const int64_t missing = tally->missing_x;
  const int64_t out_of_range = tally->out_of_range;
  for (int i = 0; i < b.count(); ++i) {
    if (!WithinSampleBound(h.counts[i], expect[i], h.sample_rate)) {
      return std::string(cdf ? "cdf" : "histogram") + " of " + col +
             " bucket " + std::to_string(i) + ": " +
             std::to_string(h.counts[i]) + " at rate " +
             std::to_string(h.sample_rate) + ", expected " +
             std::to_string(expect[i]) + " (" +
             std::to_string(h.TotalCount()) + " rows counted, " +
             std::to_string(h.rows_scanned) + " scanned)";
    }
  }
  if (!WithinSampleBound(h.missing, missing, h.sample_rate) ||
      !WithinSampleBound(h.out_of_range, out_of_range, h.sample_rate)) {
    return "histogram of " + col + ": missing/out-of-range tallies wrong";
  }
  if (h.sample_rate >= 1.0) {
    int64_t sum = h.missing + h.out_of_range;
    for (int64_t c : h.counts) sum += c;
    if (sum != ViewRows(rec.spec.view)) {
      return "histogram of " + col + ": buckets plus missing add up to " +
             std::to_string(sum) + ", view has " +
             std::to_string(ViewRows(rec.spec.view)) + " rows";
    }
  }
  if (cdf) {
    CdfPlot plot = RenderCdf(h, screen_);
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] < 0) return "cdf of " + col + " decreases";
    }
    for (size_t i = 1; i < plot.pixel_y.size(); ++i) {
      if (plot.pixel_y[i] < plot.pixel_y[i - 1]) {
        return "rendered cdf of " + col + " decreases at pixel " +
               std::to_string(i);
      }
    }
    if (!plot.pixel_y.empty() && h.TotalCount() > 0 &&
        plot.pixel_y.back() != plot.height) {
      return "rendered cdf of " + col + " ends at " +
             std::to_string(plot.pixel_y.back()) + ", not at the total";
    }
  }
  return "";
}

std::string Oracle::CheckGrid(const GestureRecord& rec, int x_count,
                              int y_count) {
  const Histogram2DResult& h = *rec.h2;
  auto xb = Geometry(rec.spec.view, rec.spec.x, x_count);
  auto yb = Geometry(rec.spec.view, rec.spec.y, y_count);
  if (!xb.ok() || !yb.ok()) return "no geometry for " + rec.spec.x;
  const int bx = xb.value().count(), by = yb.value().count();
  if (h.x_buckets != bx || h.y_buckets != by) {
    return "grid " + rec.spec.x + "x" + rec.spec.y + " is " +
           std::to_string(h.x_buckets) + "x" + std::to_string(h.y_buckets) +
           ", expected " + std::to_string(bx) + "x" + std::to_string(by);
  }
  std::shared_ptr<const Tally> tally = Expected(
      rec.spec.view, rec.spec.x, xb.value(), rec.spec.y, yb.value());
  const std::vector<int64_t>& xy = tally->cells;
  const std::vector<int64_t>& xs = tally->xs;
  const int64_t missing_x = tally->missing_x, missing_y = tally->missing_y,
                out_of_range = tally->out_of_range;
  const double rate = h.sample_rate;
  for (size_t i = 0; i < xy.size(); ++i) {
    if (!WithinSampleBound(h.xy[i], xy[i], rate)) {
      return "grid " + rec.spec.x + "x" + rec.spec.y + " cell " +
             std::to_string(i) + ": " + std::to_string(h.xy[i]) +
             ", expected " + std::to_string(xy[i]);
    }
  }
  for (int i = 0; i < bx; ++i) {
    if (!WithinSampleBound(h.x_counts[i], xs[i], rate)) {
      return "stacked bar " + std::to_string(i) + " of " + rec.spec.x +
             " wrong";
    }
  }
  if (!WithinSampleBound(h.missing_x, missing_x, rate) ||
      !WithinSampleBound(h.missing_y, missing_y, rate) ||
      !WithinSampleBound(h.out_of_range, out_of_range, rate)) {
    return "grid " + rec.spec.x + "x" + rec.spec.y + ": missing tallies wrong";
  }
  return "";
}

std::shared_ptr<const Oracle::Page> Oracle::ExpectedPage(
    const View& view, int order_index,
    const std::vector<Value>* start) {
  const std::string key = ViewKey(view) + "#" + std::to_string(order_index);
  if (start == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pages_.find(key);
    if (it != pages_.end()) return it->second;
  }
  const RecordOrder& order = SortOrders()[static_cast<size_t>(order_index)];
  const auto& orient = order.orientations();
  std::vector<bool> asc;
  for (const auto& o : orient) asc.push_back(o.ascending);
  const TupleLess less{&asc};

  // Per partition: rows before the page start, and the k smallest distinct
  // tuples at or after it, compared on per-partition numeric encodings of
  // the order columns; then merged across partitions as cell values.
  int64_t before = 0;
  std::map<std::vector<Value>, int64_t, TupleLess> merged(less);
  for (size_t p = 0; p < partitions_->size(); ++p) {
    const Table& t = *(*partitions_)[p];
    std::vector<ColumnKey> keys;
    std::vector<const IColumn*> cols;
    for (const auto& o : orient) {
      keys.emplace_back(t, o.column, o.ascending);
      cols.push_back(t.GetColumnOrNull(o.column).get());
    }
    // Three-way comparison of row r against an encoded tuple.
    auto compare = [&](uint32_t r, const std::vector<double>& e) {
      for (size_t i = 0; i < keys.size(); ++i) {
        const double a = keys[i].Of(r);
        if (a != e[i]) return a < e[i] ? -1 : 1;
      }
      return 0;
    };
    std::vector<double> start_key;
    if (start != nullptr) {
      for (size_t i = 0; i < keys.size(); ++i) {
        start_key.push_back(keys[i].OfValue((*start)[i]));
      }
    }
    // encoded tuple -> (representative row, duplicates)
    std::map<std::vector<double>, std::pair<uint32_t, int64_t>> top;
    std::vector<double> enc(keys.size());
    ForEachRow(
        view,
        [&](size_t, uint32_t r) {
          if (start != nullptr && compare(r, start_key) < 0) {
            ++before;
            return;
          }
          if (static_cast<int>(top.size()) == kPageRows &&
              compare(r, std::prev(top.end())->first) > 0) {
            return;
          }
          for (size_t i = 0; i < keys.size(); ++i) enc[i] = keys[i].Of(r);
          auto it = top.find(enc);
          if (it != top.end()) {
            ++it->second.second;
            return;
          }
          top.emplace(enc, std::make_pair(r, int64_t{1}));
          if (static_cast<int>(top.size()) > kPageRows) {
            top.erase(std::prev(top.end()));
          }
        },
        static_cast<int>(p));
    for (const auto& [e, entry] : top) {
      std::vector<Value> v;
      for (const IColumn* c : cols) v.push_back(c->GetValue(entry.first));
      merged[v] += entry.second;
    }
  }
  auto page = std::make_shared<Page>();
  page->before = before;
  page->rows.assign(merged.begin(), merged.end());
  if (page->rows.size() > static_cast<size_t>(kPageRows)) {
    page->rows.resize(kPageRows);
  }
  if (start == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    pages_.emplace(key, page);
  }
  return page;
}

std::string Oracle::CheckPage(const GestureRecord& rec) {
  const NextItemsResult& page = *rec.page;
  const bool scroll = rec.spec.op == 4;
  if (page.rows.empty()) return "empty table page";
  std::shared_ptr<const Page> expected = ExpectedPage(
      rec.spec.view, rec.spec.order, scroll ? &page.rows[0].values : nullptr);
  const auto& expect = expected->rows;
  const int64_t before = expected->before;
  if (page.rows.size() != expect.size()) {
    return "table page has " + std::to_string(page.rows.size()) +
           " rows, expected " + std::to_string(expect.size());
  }
  for (size_t i = 0; i < expect.size(); ++i) {
    const RowSnapshot& row = page.rows[i];
    bool same = row.values.size() == expect[i].first.size() &&
                row.count == expect[i].second;
    for (size_t j = 0; same && j < row.values.size(); ++j) {
      same = CompareCells(row.values[j], expect[i].first[j]) == 0 &&
             row.values[j].index() == expect[i].first[j].index();
    }
    if (!same) {
      return "table page row " + std::to_string(i) + " differs (order " +
             std::to_string(rec.spec.order) + ")";
    }
  }
  if (scroll) {
    if (page.rows_before != before) {
      return "scroll reports " + std::to_string(page.rows_before) +
             " rows before the page, expected " + std::to_string(before);
    }
    // Quantile sampling: n = V^2 + 1 keys (V = 100 scroll positions);
    // five standard deviations of the sampled rank.
    const double n = static_cast<double>(
        QuantileSampleSize(std::min(screen_.height, 100)));
    const double q = rec.spec.q;
    const double eps = 5 * std::sqrt(q * (1 - q) / n) + 2 / n;
    const double rank = static_cast<double>(before) /
                        static_cast<double>(ViewRows(rec.spec.view));
    if (std::fabs(rank - q) > eps) {
      return "scroll to " + std::to_string(q) + " landed at rank " +
             std::to_string(rank);
    }
  }
  return "";
}

std::string Oracle::CheckHitters(const GestureRecord& rec) {
  std::map<std::string, int64_t> truth;
  std::vector<Cells> cells;
  for (const TablePtr& t : *partitions_) cells.emplace_back(*t, rec.spec.x);
  std::vector<std::vector<int64_t>> codes(partitions_->size());
  for (size_t p = 0; p < cells.size(); ++p) {
    codes[p].assign(cells[p].strings.size() + 1, 0);
  }
  ForEachRow(rec.spec.view, [&](size_t p, uint32_t r) {
    if (!cells[p].Missing(r)) ++codes[p][cells[p].c[r]];
  });
  for (size_t p = 0; p < cells.size(); ++p) {
    for (size_t k = 0; k < cells[p].strings.size(); ++k) {
      if (codes[p][k] > 0) truth[cells[p].strings[k]] += codes[p][k];
    }
  }
  const double n = static_cast<double>(ViewRows(rec.spec.view));
  const double k = rec.spec.k;
  for (const auto& [value, count] : truth) {
    if (static_cast<double>(count) <= n / k) continue;
    bool found = false;
    for (const auto& item : rec.hitters) {
      const auto* s = std::get_if<std::string>(&item.value);
      found = found || (s != nullptr && *s == value);
    }
    if (!found) {
      return "heavy hitters of " + rec.spec.x + " miss '" + value +
             "' (frequency " + std::to_string(count / n) + " > 1/" +
             std::to_string(rec.spec.k) + ")";
    }
  }
  for (const auto& item : rec.hitters) {
    const auto* s = std::get_if<std::string>(&item.value);
    const int64_t count = s ? truth[*s] : 0;
    if (static_cast<double>(count) < n / (4 * k)) {
      return "heavy hitters of " + rec.spec.x + " report '" +
             ValueToString(item.value) + "' below 1/(4k)";
    }
  }
  return "";
}

std::string Oracle::CheckDistinct(const GestureRecord& rec) {
  ColumnStats s = Stats(rec.spec.view, rec.spec.x);
  std::vector<Cells> cells;
  for (const TablePtr& t : *partitions_) cells.emplace_back(*t, rec.spec.x);
  int64_t exact = 0;
  if (s.present > 0 && s.integral && s.max - s.min < 1e7) {
    std::vector<uint8_t> seen(static_cast<size_t>(s.max - s.min) + 1, 0);
    ForEachRow(rec.spec.view, [&](size_t p, uint32_t r) {
      if (!cells[p].Missing(r)) {
        seen[static_cast<size_t>(cells[p].Num(r) - s.min)] = 1;
      }
    });
    for (uint8_t b : seen) exact += b;
  } else {
    std::unordered_set<double> seen;
    ForEachRow(rec.spec.view, [&](size_t p, uint32_t r) {
      if (!cells[p].Missing(r)) seen.insert(cells[p].Num(r));
    });
    exact = static_cast<int64_t>(seen.size());
  }
  // HyperLogLog with 2^12 registers: standard error 1.04/64; allow four.
  const double bound = 4 * 1.04 / 64 * static_cast<double>(exact) + 2;
  if (std::fabs(rec.distinct - static_cast<double>(exact)) > bound) {
    return "distinct count of " + rec.spec.x + " is " +
           std::to_string(rec.distinct) + ", exact " + std::to_string(exact);
  }
  return "";
}

std::string Oracle::Check(const GestureRecord& rec) {
  if (!rec.ok) return "";
  const GestureSpec& g = rec.spec;
  const int bars = HistogramBucketCount(screen_);
  switch (g.op) {
    case 1:
    case 2:
    case 3:
    case 4:
      return rec.page.has_value() ? CheckPage(rec) : "no table page";
    case 5:
    case 6: {
      if (g.op == 6 && rec.rows != ViewRows(g.view)) {
        return "zoom row count " + std::to_string(rec.rows) + ", expected " +
               std::to_string(ViewRows(g.view));
      }
      if (rec.hists.size() != 2) return "missing histogram or cdf";
          std::string e = CheckHistogram(rec, rec.hists[0], g.x, bars, false);
      if (!e.empty()) return e;
      return CheckHistogram(rec, rec.hists[1], g.x,
                            std::max(1, screen_.width), true);
    }
    case 7:
      if (rec.hists.size() != 1) return "missing histogram";
      return CheckHistogram(rec, rec.hists[0], g.x,
                            std::min(bars, ChartDefaults::kMaxStringBuckets),
                            false);
    case 8:
      return CheckHitters(rec);
    case 9:
      return CheckDistinct(rec);
    case 10: {
      if (!rec.h2.has_value() || rec.hists.size() != 1) return "missing chart";
      std::string e = CheckGrid(
          rec, bars,
          std::min(ChartDefaults::kMaxStackColors,
                   ChartDefaults::kMaxStringBuckets));
      if (!e.empty()) return e;
      return CheckHistogram(rec, rec.hists[0], g.x,
                            std::max(1, screen_.width), true);
    }
    case 11:
      if (!rec.h2.has_value()) return "missing heat map";
      return CheckGrid(rec, HeatMapBucketsX(screen_), HeatMapBucketsY(screen_));
    default:
      return "unknown gesture";
  }
}

std::string Oracle::CheckAll(const std::vector<GestureRecord>& records,
                             int threads, int64_t* checked) {
  // Grouped by view, so each zoom's member rows are found once.
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ViewKey(records[a].spec.view) < ViewKey(records[b].spec.view);
  });
  std::atomic<size_t> next{0};
  std::atomic<int64_t> count{0};
  std::mutex mu;
  std::string problem;
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t k = next++; k < order.size(); k = next++) {
        const GestureRecord& rec = records[order[k]];
        std::string e = Check(rec);
        if (rec.ok) ++count;
        if (e.empty()) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (problem.empty()) {
          problem = "O" + std::to_string(rec.spec.op) + " on " +
                    ViewKey(rec.spec.view) + " round " +
                    std::to_string(rec.round) + ": " + e;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  *checked = count;
  return problem;
}

std::string Oracle::SameBytes(const std::vector<uint8_t>& a,
                              const std::vector<uint8_t>& b) {
  if (a.size() != b.size()) {
    return "result sizes differ (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " bytes)";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return "results differ at byte " + std::to_string(i);
  }
  return "";
}

}  // namespace gesturebench
