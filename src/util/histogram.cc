#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/binary_io.h"

namespace flexstream {

Histogram::Histogram() = default;

int Histogram::BucketFor(double value) {
  if (!(value >= 1.0)) return 0;  // <1 (and NaN) in the underflow bucket
  const double log_value = std::log10(value);
  const int bucket =
      1 + static_cast<int>(log_value * kBucketsPerDecade);
  return std::min(bucket, kBucketCount - 1);
}

double Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0.0;
  return std::pow(10.0, static_cast<double>(bucket - 1) /
                            kBucketsPerDecade);
}

void Histogram::Add(double value) {
  ++buckets_[static_cast<size_t>(BucketFor(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram Histogram::DeltaSince(const Histogram& earlier) const {
  Histogram delta;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    delta.buckets_[i] = std::max<int64_t>(0, buckets_[i] - earlier.buckets_[i]);
    delta.count_ += delta.buckets_[i];
  }
  if (delta.count_ == 0) return delta;
  delta.sum_ = std::max(0.0, sum_ - earlier.sum_);
  // Extrema of the window are not recoverable from bucket counts; use the
  // bounds of the first/last surviving bucket, tightened by the lifetime
  // extrema (a window sample can never undercut the lifetime min or exceed
  // the lifetime max).
  for (int b = 0; b < kBucketCount; ++b) {
    if (delta.buckets_[static_cast<size_t>(b)] == 0) continue;
    delta.min_ = std::max(BucketLowerBound(b), min_);
    break;
  }
  for (int b = kBucketCount - 1; b >= 0; --b) {
    if (delta.buckets_[static_cast<size_t>(b)] == 0) continue;
    delta.max_ = std::min(BucketLowerBound(b + 1), max_);
    break;
  }
  delta.max_ = std::max(delta.max_, delta.min_);
  return delta;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }

double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_ - 1);
  int64_t cumulative = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    const int64_t in_bucket = buckets_[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) > target) {
      // Interpolate within the bucket.
      const double lo = std::max(BucketLowerBound(b), min_);
      const double hi = std::min(BucketLowerBound(b + 1), max_);
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + frac * std::max(0.0, hi - lo);
    }
    cumulative += in_bucket;
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "count=%lld mean=%.1f p50=%.1f p95=%.1f p99=%.1f p999=%.1f max=%.1f",
      static_cast<long long>(count_), mean(), Percentile(0.50),
      Percentile(0.95), Percentile(0.99), Percentile(0.999), max());
  return buf;
}

std::string Histogram::PercentilesSummary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p50=%.0f p95=%.0f p99=%.0f p999=%.0f",
                Percentile(0.50), Percentile(0.95), Percentile(0.99),
                Percentile(0.999));
  return buf;
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void Put(BinaryWriter* w, const Histogram& h) {
  constexpr int kBucketCount = Histogram::kBucketCount;
  uint32_t nonzero = 0;
  for (int64_t b : h.buckets_) {
    if (b != 0) ++nonzero;
  }
  w->U32(nonzero);
  for (int i = 0; i < kBucketCount; ++i) {
    if (h.buckets_[i] == 0) continue;
    w->U32(static_cast<uint32_t>(i));
    w->I64(h.buckets_[i]);
  }
  Put(w, h.count_, h.sum_, h.min_, h.max_);
}

Status Get(BinaryReader* r, Histogram* out) {
  constexpr int kBucketCount = Histogram::kBucketCount;
  Histogram h;
  uint32_t nonzero = 0;
  Status s = r->U32(&nonzero);
  if (!s.ok()) return s;
  if (nonzero > static_cast<uint32_t>(kBucketCount)) {
    return Status::InvalidArgument("histogram bucket count out of range");
  }
  for (uint32_t i = 0; i < nonzero; ++i) {
    uint32_t index = 0;
    int64_t value = 0;
    s = r->U32(&index);
    if (s.ok()) s = r->I64(&value);
    if (!s.ok()) return s;
    if (index >= static_cast<uint32_t>(kBucketCount)) {
      return Status::InvalidArgument("histogram bucket index out of range");
    }
    h.buckets_[index] = value;
  }
  s = Get(r, &h.count_, &h.sum_, &h.min_, &h.max_);
  if (!s.ok()) return s;
  *out = h;
  return Status::Ok();
}

}  // namespace flexstream
