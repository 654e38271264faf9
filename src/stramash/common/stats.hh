/**
 * @file
 * Lightweight statistics collection.
 *
 * Every simulated component owns a StatGroup and registers named
 * counters with it. At the end of a run the groups can be dumped as a
 * flat name=value table, which the bench harnesses post-process into
 * the paper's tables and figures.
 */

#ifndef STRAMASH_COMMON_STATS_HH
#define STRAMASH_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "stramash/common/logging.hh"

namespace stramash
{

/**
 * A monotonically increasing named counter.
 *
 * Increments are relaxed atomics so parallel host sessions (several
 * lanes bumping the same message-layer counter) stay race-free; the
 * final value is an exact sum regardless of interleaving, which is
 * what keeps parallel runs bit-identical to the single-thread
 * reference. Reads are meaningful at serial points (epoch barriers,
 * end of run).
 */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
        return *this;
    }

    Counter &
    operator++()
    {
        value_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A fixed-bucket histogram for latency-style distributions (used by
 * the IPI characterisation experiment).
 *
 * sample() is guarded by a tiny spinlock so concurrent lanes of a
 * parallel host session can share one histogram: the recorded
 * multiset of samples — and therefore count/sum/min/max and every
 * percentile — is order-independent, keeping parallel runs
 * bit-identical. Readers run at serial points only.
 */
class Histogram
{
  public:
    /** Buckets are [edges[i], edges[i+1]); an overflow bucket follows. */
    explicit Histogram(std::vector<std::uint64_t> edges)
        : edges_(std::move(edges)), buckets_(edges_.size() + 1, 0)
    {
        panic_if(edges_.empty(), "Histogram with no bucket edges");
    }

    void
    sample(std::uint64_t v)
    {
        while (lock_.test_and_set(std::memory_order_acquire)) {
        }
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        std::size_t i = 0;
        while (i < edges_.size() && v >= edges_[i])
            ++i;
        ++buckets_[i];
        lock_.clear(std::memory_order_release);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /**
     * Estimate the @p p quantile (p in [0, 1]) by linear
     * interpolation within the containing bucket. The first bucket
     * is bounded below by the observed minimum and the overflow
     * bucket above by the observed maximum, so p=0 / p=1 return the
     * exact extremes.
     */
    double percentile(double p) const;

    /** Forget every sample (keeps the bucket edges). */
    void reset();

    /**
     * Fold @p other's samples into this histogram. Both must share
     * the same bucket edges. The result is exactly what sampling the
     * union multiset would have produced, so per-epoch scratch
     * histograms (e.g. run-queue depth sampled every scheduler
     * epoch) can be merged into a long-lived one instead of
     * re-registering it. Serial points only.
     */
    void merge(const Histogram &other);

    const std::vector<std::uint64_t> &edges() const { return edges_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
};

/**
 * A named collection of counters and histograms. Stats register on
 * first use; hot paths hold a CounterHandle or HistogramHandle so
 * that every later use is by pointer, not name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register (or fetch) a counter by name. Pointers stay stable. */
    Counter &counter(const std::string &name);

    /**
     * Register (or fetch) a histogram by name. @p edges is only used
     * on first registration; later fetches return the existing
     * histogram unchanged. Pointers stay stable.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> edges);

    /** True if a counter of this name has been registered. */
    bool has(const std::string &name) const;

    /** True if a histogram of this name has been registered. */
    bool hasHistogram(const std::string &name) const;

    /** Value of a registered counter; 0 if never registered. */
    std::uint64_t value(const std::string &name) const;

    /** A registered histogram, or nullptr. */
    const Histogram *findHistogram(const std::string &name) const;

    /** Reset every counter and histogram. */
    void resetAll();

    /**
     * Dump one line per stat, sorted by name. Counters keep the
     * original two-token format the bench post-processing splits on:
     *
     *     group.counter VALUE
     *
     * Histogram lines are distinguishable by their "hist" marker
     * token and carry the distribution summary:
     *
     *     group.name hist count=N min=A max=B mean=C p50=D p99=E
     *         p999=F
     */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** Snapshot of all counters, for diffing before/after a phase. */
    std::map<std::string, std::uint64_t> snapshot() const;

    /** All registered counters, sorted by name. */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    /** All registered histograms, sorted by name. */
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    // std::map keeps pointer stability under insertion and gives the
    // sorted dump order for free. Registration (the by-name lookup
    // that may insert) is mutex-guarded so two host lanes hitting a
    // lazily registered counter for the first time cannot race the
    // map; the returned references stay lock-free to use.
    mutable std::mutex regMu_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * A counter of a StatGroup, looked up by name on its first use and by
 * pointer after that, for hot paths that would otherwise pay a
 * string-keyed lookup per event. Registration stays lazy, exactly as
 * with StatGroup::counter(): a stat that never fires never appears in
 * the group. Lane-safe: lanes racing on the first use both register
 * through the group's mutex, get the same stable pointer, and publish
 * it with release ordering, so an acquire load that sees the pointer
 * sees a registered counter.
 */
class CounterHandle
{
  public:
    CounterHandle(StatGroup &group, std::string name)
        : group_(group), name_(std::move(name))
    {
    }

    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    Counter &
    get()
    {
        Counter *c = ptr_.load(std::memory_order_acquire);
        if (!c) {
            c = &group_.counter(name_);
            ptr_.store(c, std::memory_order_release);
        }
        return *c;
    }

    CounterHandle &
    operator+=(std::uint64_t delta)
    {
        get() += delta;
        return *this;
    }

  private:
    StatGroup &group_;
    std::string name_;
    std::atomic<Counter *> ptr_{nullptr};
};

/** A histogram of a StatGroup, resolved like CounterHandle. */
class HistogramHandle
{
  public:
    HistogramHandle(StatGroup &group, std::string name,
                    std::vector<std::uint64_t> edges)
        : group_(group), name_(std::move(name)), edges_(std::move(edges))
    {
    }

    HistogramHandle(const HistogramHandle &) = delete;
    HistogramHandle &operator=(const HistogramHandle &) = delete;

    Histogram &
    get()
    {
        Histogram *h = ptr_.load(std::memory_order_acquire);
        if (!h) {
            h = &group_.histogram(name_, edges_);
            ptr_.store(h, std::memory_order_release);
        }
        return *h;
    }

    void sample(std::uint64_t v) { get().sample(v); }

  private:
    StatGroup &group_;
    std::string name_;
    std::vector<std::uint64_t> edges_;
    std::atomic<Histogram *> ptr_{nullptr};
};

} // namespace stramash

#endif // STRAMASH_COMMON_STATS_HH
