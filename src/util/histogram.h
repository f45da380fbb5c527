// A log-bucketed histogram for latency measurements.
//
// Values (microseconds, typically) are counted in buckets whose width
// grows geometrically, giving ~4% relative resolution over nine decades
// with fixed memory. Supports mean, percentiles, min/max, and merging.

#ifndef FLEXSTREAM_UTIL_HISTOGRAM_H_
#define FLEXSTREAM_UTIL_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace flexstream {

class BinaryReader;
class BinaryWriter;

class Histogram {
 public:
  Histogram();

  /// Records one sample (negative samples count into the first bucket).
  void Add(double value);

  void Merge(const Histogram& other);

  /// The histogram of samples recorded *after* `earlier` was snapshotted,
  /// assuming `earlier` is a prefix of this histogram (same instance,
  /// snapshotted twice). Per-bucket subtraction, clamped at zero so a
  /// mismatched pair degrades to an empty/short delta instead of
  /// underflowing. min/max are reconstructed from the surviving buckets'
  /// bounds (the exact extrema of the window are not recoverable), so the
  /// delta's percentiles are bucket-accurate (~4%) like everything else.
  /// The SLO controller uses this for per-control-interval percentiles.
  Histogram DeltaSince(const Histogram& earlier) const;

  int64_t count() const { return count_; }
  double mean() const;
  double min() const;
  double max() const;

  /// Value at quantile q in [0, 1], interpolated within the bucket.
  /// Returns 0 for an empty histogram.
  double Percentile(double q) const;

  /// "count=... mean=... p50=... p95=... p99=... p999=... max=..."
  std::string Summary() const;

  /// "p50=... p95=... p99=... p999=..." — the tail-latency quartet every
  /// stats table and watchdog snapshot reports. Values in the histogram's
  /// native unit (microseconds throughout the engine), printed with no
  /// decimals.
  std::string PercentilesSummary() const;

  void Reset();

  /// Exact structural equality (buckets, count, sum, min, max). Two
  /// histograms built by merging the same samples in any grouping compare
  /// equal — the property the merge tests assert.
  friend bool operator==(const Histogram& a, const Histogram& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_ && a.min_ == b.min_ &&
           a.max_ == b.max_ && a.buckets_ == b.buckets_;
  }
  friend bool operator!=(const Histogram& a, const Histogram& b) {
    return !(a == b);
  }

  /// Largest value that still lands in a finite bucket; anything above
  /// falls into the shared overflow bucket (tests pin this behavior).
  static double MaxTrackable() { return 1e9; }

  /// Durable-checkpoint serialization (util/binary_io.h): the exact
  /// internal state — bucket counts, count, sum, min, max — so a decoded
  /// histogram compares operator== to the original. Non-empty buckets are
  /// run-length indexed (most of the 290 buckets are zero in practice).
  friend void Put(BinaryWriter* w, const Histogram& h);
  friend Status Get(BinaryReader* r, Histogram* h);

 private:
  static constexpr int kBucketsPerDecade = 32;
  static constexpr int kDecades = 9;  // 1 us .. 1e9 us
  static constexpr int kBucketCount = kBucketsPerDecade * kDecades + 2;

  static int BucketFor(double value);
  static double BucketLowerBound(int bucket);

  std::array<int64_t, kBucketCount> buckets_{};
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_UTIL_HISTOGRAM_H_
