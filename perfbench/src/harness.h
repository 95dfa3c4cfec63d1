#pragma once

/**
 * @file
 * Shared machinery of the perfbench workloads: wall-clock helpers,
 * percentiles, the outside-in span tracer, telemetry-registry deltas and
 * the result printer.
 *
 * Everything here observes the library from outside: spans wrap calls to
 * public functions, counters are read from the telemetry registry the
 * library already maintains. Nothing in src/ is modified or subclassed
 * except through the public EmbeddingGenerator interface.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace perfbench {

/** Steady-clock nanoseconds (same clock as serving::DefaultClock). */
inline uint64_t
NowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Command-line options every workload receives. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string thresholds;  ///< pinned hybrid plan (core::LoadThresholds)
    std::string work_dir;    ///< working files (store files, traces)
};

/**
 * Nearest-rank percentile (p in [0, 1]) of `v`; NaN when empty. The
 * value returned for p has n - ceil(p * n) samples above it.
 */
double Percentile(std::vector<double> v, double p);

/** True when the nearest-rank p-percentile has >= 10 samples beyond it. */
bool TailSupported(size_t n, double p);

/**
 * The p-percentile of `v` (samples in the order they were taken) as the
 * median over consecutive equal blocks: ten blocks, or fewer so that each
 * block's p-percentile keeps ten samples beyond it. A host slowdown that
 * covers a few blocks does not move it.
 */
double BlockPercentile(const std::vector<double>& v, double p);

double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);

/** Peak resident set size of this process, MiB. */
double PeakRssMb();

/**
 * Outside-in span recorder. Spans carry name, start, end, parent span and
 * request id; they are kept in memory and written as a chrome://tracing
 * document on request. Disabled, a Scope costs one relaxed load.
 */
class Tracer
{
  public:
    struct Span
    {
        const char* name;
        uint64_t start_ns;
        uint64_t end_ns;
        int64_t parent;    ///< index into spans(), -1 for a root
        uint64_t request;  ///< request id shared by a request's spans
        uint32_t tid;
    };

    static Tracer& Get();

    void set_on(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** RAII span. request = 0 inherits the enclosing span's request. */
    class Scope
    {
      public:
        explicit Scope(const char* name, uint64_t request = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        int64_t index_ = -1;
        int64_t saved_parent_ = -1;
        uint64_t saved_request_ = 0;
    };

    /** Copy of every finished span. */
    std::vector<Span> Spans() const;
    /** Σ duration (ns) and count of the spans named `name`. */
    std::pair<double, int64_t> Total(const std::string& name) const;
    bool WriteChromeTrace(const std::string& path) const;

  private:
    Tracer() = default;
    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;  ///< guarded by mu_
};

/**
 * Telemetry-registry counters and histograms captured at segment
 * boundaries; Delta() is what the library counted in between.
 */
struct CounterSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, secemb::telemetry::Histogram::Snapshot> hists;

    static CounterSnapshot Take();
    /** this - before for a counter (0 when absent). */
    double Delta(const CounterSnapshot& before,
                 const std::string& name) const;
};

/** Result accumulator; Print() writes the detail line and the result. */
class Report
{
  public:
    void Metric(const std::string& name, double value,
                const std::string& unit);
    /** Informational value (issue-level names, sample counts, ...). */
    void Detail(const std::string& name, double value);
    void Detail(const std::string& name, const std::string& value);
    /** Record a failed check; makes `correct` false. */
    void Fail(const std::string& what);

    int64_t attempted = 0;
    int64_t failed = 0;

    bool correct() const { return failures_.empty(); }
    /** Prints the detail object, then the result object as last line. */
    void Print(const std::string& workload) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
    std::vector<std::string> failures_;
};

/** Machine fingerprint: nproc, ISA tier, compiler, build type, dtype. */
void AddFingerprint(Report& report);

/**
 * What the output checks and obliviousness guards of a run found. A
 * guard failure means no output can be trusted: every request fails.
 */
struct CheckResult
{
    int64_t checked = 0;  ///< sampled requests whose outputs were checked
    int64_t bad = 0;      ///< of those, the ones that failed a check
    bool guard_failed = false;
};

/**
 * Sets report.failed from `checks` and returns ok_share: the share of
 * checked requests that passed (0 when a guard failed).
 */
double ApplyChecks(Report& report, const CheckResult& checks);

/** The end-to-end metrics every untraced run prints (BENCHMARK.json). */
struct EndToEnd
{
    double setup_s = 0.0;
    double emb_state_mb = 0.0;
    double lat_p50_ms = 0.0;
    double lat_tail_ms = 0.0;
    double items_per_s = 0.0;
};

/** Applies `checks`, then prints every end-to-end metric. */
void EmitEndToEnd(Report& report, const EndToEnd& e,
                  const CheckResult& checks);

/** A closed-loop segment: per-request latency and completion times. */
struct Segment
{
    std::vector<double> lat_ms;
    std::vector<uint64_t> end_ns;
    uint64_t start_ns = 0;
    double wall_s = 0.0;
};

/**
 * One client's closed loop: `request(i)` runs the segment's i-th request
 * and is timed; the loop stops once `seconds` have passed and
 * `enough(segment)` holds (the tail has its samples), or at 3 x seconds.
 */
template <typename Request, typename Enough>
Segment
ClosedLoop(double seconds, Request&& request, Enough&& enough)
{
    Segment seg;
    seg.start_ns = NowNs();
    for (;;) {
        const uint64_t t0 = NowNs();
        request(seg.lat_ms.size());
        const uint64_t t1 = NowNs();
        seg.lat_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        seg.end_ns.push_back(t1);
        const double elapsed = static_cast<double>(t1 - seg.start_ns) * 1e-9;
        if ((elapsed >= seconds && enough(seg)) || elapsed >= 3.0 * seconds) {
            seg.wall_s = elapsed;
            return seg;
        }
    }
}

/**
 * Throughput of a closed-loop segment: items per second in each of ten
 * consecutive blocks of equal request count, median over the blocks, so a
 * host slowdown confined to a few blocks does not move it.
 */
double BlockThroughput(const Segment& seg, double items_per_request);

/** Both halves of a traced run and the counters around the traced one. */
struct TracedRun
{
    Segment plain;   ///< telemetry and spans off: the overhead baseline
    Segment traced;  ///< telemetry and spans on
    CounterSnapshot before;
    CounterSnapshot after;

    /** Traced over untraced mean request latency, minus one. */
    double OverheadShare() const;
};

/**
 * The traced-run sequence: `measure(false)` with telemetry and spans off,
 * then the registry reset and `measure(true)` with both on. Telemetry is
 * off again on return.
 */
template <typename Measure>
TracedRun
RunTraced(Measure&& measure)
{
    TracedRun r;
    secemb::telemetry::SetEnabled(false);
    r.plain = measure(false);
    secemb::telemetry::SetEnabled(true);
    secemb::telemetry::Registry::Instance().ResetAll();
    r.before = CounterSnapshot::Take();
    Tracer::Get().set_on(true);
    r.traced = measure(true);
    Tracer::Get().set_on(false);
    r.after = CounterSnapshot::Take();
    secemb::telemetry::SetEnabled(false);
    return r;
}

/** Drops every packed weight panel from the process-wide kernel cache. */
void ClearKernelCache();

/**
 * Times `setup` `reps` times and returns the median in seconds. The last
 * call's product is what the workload measures; `teardown` (untimed)
 * destroys each earlier one before the next set-up starts.
 */
template <typename Setup, typename Teardown>
double
MedianSetupSeconds(int reps, Setup&& setup, Teardown&& teardown)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        if (i > 0) teardown();
        // Every set-up packs its weights from an empty kernel cache, and
        // no earlier set-up's panels stay resident.
        ClearKernelCache();
        const uint64_t t0 = NowNs();
        setup();
        t.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    return Median(t);
}

}  // namespace perfbench
