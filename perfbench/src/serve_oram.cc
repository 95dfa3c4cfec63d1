/**
 * @file
 * serve-oram: the Criteo-Kaggle features (tables scaled 1/200) behind
 * ORAM, fronted by a serving::Server (nthreads = 2): small tables use
 * in-RAM Circuit ORAM, mid tables Path ORAM behind the coalescing
 * OramProxy, and the largest RAW ORAM over a file store whose page cache
 * is smaller than the tree. Durability is off, so no fsync sits on the
 * timed path. A query is one Criteo sample: one request per feature,
 * single-hot or a pooled bag, with Zipfian ids (the proxy has duplicates
 * to coalesce, the page cache has a hot set). There is no GEMM here.
 *
 * The end-to-end metrics come from a closed loop that calls the
 * generators directly, one query at a time, the work the Server's batcher
 * does for a lone query: on a 4-vCPU VM the Server path's thread
 * hand-offs made open-loop latency and capacity move by up to 2x between
 * runs of identical code. The traced run adds the open loop: seeded
 * Poisson arrivals at a fixed absolute rate into the Server, latency
 * timed from each query's due time to its last response, and max_ok_qps
 * from a fixed number of geometric bisection steps over a fixed rate
 * range.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/paged_generators.h"
#include "core/table_generators.h"
#include "dlrm/config.h"
#include "reference.h"
#include "serving/server.h"
#include "timed_generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace secemb;

constexpr int64_t kScale = 200;
constexpr int64_t kDim = 16;
constexpr int kThreads = 2;
constexpr int kSetupReps = 5;
/** Tables with at least this many rows use Path ORAM behind the proxy. */
constexpr int64_t kProxyMinRows = 1000;
/** Tables with at least this many rows use RAW ORAM over a file store. */
constexpr int64_t kRawMinRows = 30000;
constexpr int64_t kRawCachePages = 64;
/** One 8-slot bucket per page: the tree spans thousands of pages. */
constexpr int64_t kRawPageBytes = 512;
constexpr double kZipfS = 1.05;
constexpr size_t kQueryPool = 1024;
/** Every kPooledEvery-th feature is multi-hot: kBags bags of kBagIds. */
constexpr size_t kPooledEvery = 4;
constexpr int kBags = 2;
constexpr int kBagIds = 2;

/**
 * Rate the latency metrics are reported at (queries/s): about a fifth of
 * capacity here, so host speed noise is not amplified by queueing.
 */
constexpr double kFixedRate = 25.0;
/** Traced runs: share of --seconds for each closed-loop half and for the
 *  open-loop phase, and for each bisection step. */
constexpr double kTracedSeconds = 0.3;
constexpr double kStepSeconds = 0.06;
/**
 * Tail percentile of the open-loop latency and of the max_ok_qps limit. A
 * phase holds one to a few hundred queries, so p90 is the highest
 * percentile with ten samples beyond it in every phase.
 */
constexpr double kTail = 0.90;
/**
 * Tail of the gated closed-loop latency. About a tenth of the queries
 * meet the costly RAW ORAM evictions, so p90 sits on the cliff between
 * the two modes and moved by 17 % between runs of identical code; p95
 * lies inside the upper mode. The whole run's p99 is on the detail line.
 */
constexpr double kDirectTail = 0.95;
/** Tail limit (from due time) that max_ok_qps must meet. */
constexpr double kLimitMs = 30.0;
/** Bisection range and step count: 3.5x range, 6 halvings -> 1.98% apart.
 *  A capacity outside the range reads as the range end. */
constexpr double kRateLo = 60.0;
constexpr double kRateHi = 210.0;
constexpr int kBisectSteps = 6;
/** Unfinished queries at the last send above which the backlog grows
 *  (the server queue holds about ten queries' requests). */
constexpr size_t kBacklogLimit = 8;
/** The generator fell behind when its median send lag exceeds this. */
constexpr double kMaxLagMs = 1.0;
/** Queries per phase floor: the tail keeps ten samples beyond it. */
constexpr size_t kMinPhaseRequests = 120;
constexpr size_t kCheckEvery = 31;
/** The client spins (instead of sleeping) this long before a send. */
constexpr uint64_t kSpinNs = 300000;

struct Deployment
{
    std::vector<TimedGenerator*> gens;  ///< owned by server
    std::vector<Tensor> tables;         ///< plain rows, for the checks
    std::vector<core::OramTable*> circuit;
    std::vector<core::ProxiedOramTable*> proxy;
    std::vector<core::RawOramTable*> raw;
    std::unique_ptr<serving::Server> server;
};

std::unique_ptr<Deployment>
Deploy(const dlrm::DlrmConfig& cfg, const std::string& store_dir)
{
    auto d = std::make_unique<Deployment>();
    Rng rng(0x0a11ce);
    std::vector<std::shared_ptr<core::EmbeddingGenerator>> features;
    for (size_t f = 0; f < cfg.table_sizes.size(); ++f) {
        const int64_t rows = cfg.table_sizes[f];
        d->tables.push_back(Tensor::Randn({rows, kDim}, rng, 0.25f));
        const Tensor& t = d->tables.back();
        std::unique_ptr<core::EmbeddingGenerator> g;
        const char* span = nullptr;
        if (rows >= kRawMinRows) {
            store::StoreConfig sc;
            sc.backend = store::StoreBackend::kFile;
            sc.path = store_dir + "/feature" + std::to_string(f) + ".store";
            sc.cache_pages = kRawCachePages;
            sc.page_bytes = kRawPageBytes;
            auto raw = std::make_unique<core::RawOramTable>(t, rng, sc);
            d->raw.push_back(raw.get());
            g = std::move(raw);
            span = "core.raw";
        } else if (rows >= kProxyMinRows) {
            oram::ProxyConfig pc;
            pc.nthreads = kThreads;
            auto px = std::make_unique<core::ProxiedOramTable>(
                t, oram::OramKind::kPath, rng, nullptr, pc);
            d->proxy.push_back(px.get());
            g = std::move(px);
            span = "core.proxy";
        } else {
            auto c = std::make_unique<core::OramTable>(
                t, oram::OramKind::kCircuit, rng);
            d->circuit.push_back(c.get());
            g = std::move(c);
            span = "core.circuit";
        }
        auto timed = std::make_shared<TimedGenerator>(std::move(g), span);
        d->gens.push_back(timed.get());
        features.push_back(std::move(timed));
    }
    serving::ServerConfig sc;
    sc.queue_capacity = 256;
    // One batch holds a whole query, so a query costs one batcher wake-up.
    sc.max_batch = 32;
    sc.flush_deadline_us = 50;
    sc.default_deadline_us = 250000;
    sc.nthreads = kThreads;
    sc.precision = kernels::Dtype::kF32;
    sc.flight_recorder_capacity = size_t{1} << 17;
    d->server = std::make_unique<serving::Server>(std::move(features), sc);
    return d;
}

/** Inverse-CDF Zipf(kZipfS) sampler over [0, rows). */
class Zipf
{
  public:
    explicit Zipf(int64_t rows) : cdf_(static_cast<size_t>(rows))
    {
        double acc = 0.0;
        for (int64_t r = 0; r < rows; ++r) {
            acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
            cdf_[static_cast<size_t>(r)] = acc;
        }
        for (double& c : cdf_) c /= acc;
    }

    int64_t
    Sample(Rng& rng) const
    {
        const double u = rng.NextDouble();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<int64_t>(it - cdf_.begin(),
                                 static_cast<int64_t>(cdf_.size()) - 1);
    }

  private:
    std::vector<double> cdf_;
};

/**
 * One client query: a Criteo sample, sent as one Server request per
 * feature at the same due time. Every query does the same public amount
 * of work, so queueing, not the request mix, sets the tail.
 */
using Query = std::vector<serving::Request>;

std::vector<Query>
MakeQueries(const dlrm::DlrmConfig& cfg, uint64_t seed)
{
    std::vector<Zipf> zipf;
    for (int64_t rows : cfg.table_sizes) zipf.emplace_back(rows);
    Rng rng(seed);
    std::vector<Query> pool(kQueryPool);
    for (Query& q : pool) {
        for (size_t f = 0; f < zipf.size(); ++f) {
            serving::Request r;
            r.feature = static_cast<int>(f);
            if (f % kPooledEvery == 1) {
                r.pooled_offsets.push_back(0);
                for (int b = 0; b < kBags; ++b) {
                    for (int e = 0; e < kBagIds; ++e) {
                        r.indices.push_back(zipf[f].Sample(rng));
                    }
                    r.pooled_offsets.push_back(
                        static_cast<int64_t>(r.indices.size()));
                }
            } else {
                r.indices.push_back(zipf[f].Sample(rng));
            }
            q.push_back(std::move(r));
        }
    }
    return pool;
}

/** A query kept for the output checks: its rows, feature by feature. */
struct Sample
{
    size_t query = 0;
    std::vector<Tensor> rows;
};

/** What one offered-load phase measured. */
struct Phase
{
    std::vector<double> lat_ms;  ///< due -> last response; +inf if failed
    std::vector<double> lag_ms;  ///< due -> first send
    std::vector<uint64_t> ids;   ///< server request ids, ok or not
    size_t ok = 0;
    size_t backlog = 0;          ///< unfinished queries at the last send

    double
    Tail() const
    {
        return Percentile(lat_ms, kTail);
    }
    bool
    Passed() const
    {
        return ok == lat_ms.size() && Tail() <= kLimitMs &&
               backlog <= kBacklogLimit;
    }
};

/**
 * Offer Poisson query arrivals at `rate` for `seconds` (at least
 * kMinPhaseRequests queries) from this thread alone: wait for each due
 * time, submit the query's requests, and collect whichever queries have
 * completed in between. A query's latency runs from its due time to its
 * last response.
 */
Phase
RunPhase(Deployment& d, const std::vector<Query>& pool, size_t& cursor,
         double rate, double seconds, uint64_t seed,
         std::vector<Sample>* samples)
{
    struct InFlight
    {
        uint64_t due;
        size_t query;
        std::vector<uint64_t> sent;
        std::vector<std::future<serving::Response>> futs;
    };
    Phase ph;
    const size_t n = std::max(kMinPhaseRequests,
                              static_cast<size_t>(rate * seconds));
    Rng arrivals(seed);
    std::deque<InFlight> inflight;
    auto collect = [&](InFlight& f) {
        double lat = 0.0;
        bool ok = true;
        Sample kept{f.query, {}};
        for (size_t i = 0; i < f.futs.size(); ++i) {
            serving::Response r = f.futs[i].get();
            ph.ids.push_back(r.request_id);
            ok &= r.status.ok();
            lat = std::max(lat, static_cast<double>(f.sent[i] - f.due +
                                                    r.e2e_ns) *
                                    1e-6);
            kept.rows.push_back(std::move(r.embeddings));
        }
        ph.ok += ok ? 1 : 0;
        ph.lat_ms.push_back(ok ? lat
                               : std::numeric_limits<double>::infinity());
        if (ok && samples != nullptr && f.query % kCheckEvery == 0) {
            samples->push_back(std::move(kept));
        }
    };
    auto done = [](InFlight& f) {
        for (auto& fut : f.futs) {
            if (fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                return false;
            }
        }
        return true;
    };

    double offset_s = 0.0;
    const uint64_t start = NowNs() + 1000000;  // first arrival in 1 ms
    for (size_t i = 0; i < n; ++i) {
        offset_s += -std::log(1.0 - arrivals.NextDouble()) / rate;
        const uint64_t due = start + static_cast<uint64_t>(offset_s * 1e9);
        while (!inflight.empty() && done(inflight.front())) {
            collect(inflight.front());
            inflight.pop_front();
        }
        // Sleep to just before the due time, then spin: a sleeping vCPU
        // can take milliseconds to wake, which would show up as lag.
        if (due > NowNs() + kSpinNs) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due - kSpinNs)));
        }
        while (NowNs() < due) {
        }
        InFlight f{due, cursor++ % pool.size(), {}, {}};
        ph.lag_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
        for (const serving::Request& r : pool[f.query]) {
            f.sent.push_back(NowNs());
            f.futs.push_back(d.server->Submit(r));
        }
        inflight.push_back(std::move(f));
    }
    for (InFlight& f : inflight) ph.backlog += done(f) ? 0 : 1;
    for (InFlight& f : inflight) collect(f);
    return ph;
}

/** ORAM and page-cache counters summed over the features. */
struct OramCounts
{
    double physical = 0.0;
    double proxy_real = 0.0;
    double proxy_physical = 0.0;
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    double writebacks = 0.0;
    double ids = 0.0;
};

OramCounts
Count(const Deployment& d)
{
    OramCounts c;
    for (auto* g : d.circuit) {
        c.physical += static_cast<double>(g->oram().stats().accesses);
    }
    for (auto* g : d.proxy) {
        const oram::ProxyStats s = g->proxy().stats();
        c.physical += static_cast<double>(s.physical_accesses);
        c.proxy_physical += static_cast<double>(s.physical_accesses);
        c.proxy_real += static_cast<double>(s.real_accesses);
    }
    for (auto* g : d.raw) {
        c.physical += static_cast<double>(g->oram().stats().accesses);
        const store::PageCacheStats s = g->oram().cache_stats();
        c.cache_hits += static_cast<double>(s.hits);
        c.cache_misses += static_cast<double>(s.misses);
        c.writebacks += static_cast<double>(s.writebacks);
    }
    for (auto* g : d.gens) c.ids += static_cast<double>(g->ids());
    return c;
}

/**
 * Output checks on the sampled queries: every row must equal the plain
 * table's row and a direct generator call. Guard: with padding kept,
 * exactly one physical ORAM access per logical id.
 */
CheckResult
Check(Deployment& d, const std::vector<Query>& pool,
      const std::vector<Sample>& samples, Report& report)
{
    CheckResult result;
    result.checked = static_cast<int64_t>(samples.size());
    for (const Sample& s : samples) {
        std::string why;
        const Query& q = pool[s.query];
        for (size_t i = 0; i < q.size() && why.empty(); ++i) {
            const serving::Request& r = q[i];
            const size_t f = static_cast<size_t>(r.feature);
            // Through the decorator, so its id count matches the accesses.
            Tensor plain = GatherRows(d.tables[f], r.indices);
            Tensor direct({static_cast<int64_t>(r.indices.size()), kDim});
            d.gens[f]->Generate(r.indices, direct);
            if (!r.pooled_offsets.empty()) {
                plain = PoolRows(plain, r.pooled_offsets);
                direct = PoolRows(direct, r.pooled_offsets);
            }
            std::string diff = CompareRows(s.rows[i], plain, true);
            if (diff.empty()) diff = CompareRows(s.rows[i], direct, true);
            if (!diff.empty()) {
                why = "feature " + std::to_string(f) + " (" +
                      std::string(d.gens[f]->name()) + "): " + diff;
            }
        }
        if (!why.empty()) {
            report.Fail(why);
            ++result.bad;
        }
    }
    const OramCounts c = Count(d);
    if (c.physical != c.ids) {
        report.Fail("ORAM accesses " + std::to_string(c.physical) +
                    " != ids " + std::to_string(c.ids));
        result.guard_failed = true;
    }
    return result;
}

/**
 * Closed loop: one client calls every feature's generator in turn for one
 * query at a time, the work the Server's batcher does for a lone query,
 * until `seconds` have passed and (when min_tail) the tail has ten
 * samples beyond it.
 */
Segment
RunDirect(Deployment& d, const std::vector<Query>& pool, size_t& cursor,
          double seconds, bool min_tail, std::vector<Sample>* samples)
{
    return ClosedLoop(
        seconds,
        [&](size_t) {
            const size_t query = cursor++ % pool.size();
            Sample kept{query, {}};
            for (const serving::Request& r : pool[query]) {
                TimedGenerator& g = *d.gens[static_cast<size_t>(r.feature)];
                const bool pooled = !r.pooled_offsets.empty();
                const int64_t rows = static_cast<int64_t>(
                    pooled ? r.pooled_offsets.size() - 1 : r.indices.size());
                Tensor out({rows, kDim});
                if (pooled) {
                    g.GeneratePooled(r.indices, r.pooled_offsets, out);
                } else {
                    g.Generate(r.indices, out);
                }
                kept.rows.push_back(std::move(out));
            }
            if (samples != nullptr && query % kCheckEvery == 0) {
                samples->push_back(std::move(kept));
            }
        },
        [&](const Segment& seg) {
            return !min_tail ||
                   TailSupported(seg.lat_ms.size(), kDirectTail);
        });
}

/**
 * max_ok_qps: geometric bisection over [kRateLo, kRateHi] for the highest
 * rate whose phase has no failures, a tail under kLimitMs and no growing
 * backlog; within the last bracket the tail is interpolated (log-rate) to
 * the limit. Adds the queries it offered to `attempted`.
 */
double
BisectMaxOk(Deployment& d, const std::vector<Query>& pool, size_t& cursor,
            double step_seconds, uint64_t& phase_seed, int64_t& attempted,
            Report& report)
{
    double lo = kRateLo, hi = kRateHi;
    Phase lo_phase, hi_phase;
    for (int step = 0; step < kBisectSteps; ++step) {
        const double mid = std::sqrt(lo * hi);
        Phase ph = RunPhase(d, pool, cursor, mid, step_seconds, ++phase_seed,
                            nullptr);
        attempted += static_cast<int64_t>(ph.lat_ms.size());
        const std::string step_name = "step" + std::to_string(step);
        report.Detail(step_name + "_qps", mid);
        report.Detail(step_name + "_tail_ms", ph.Tail());
        if (ph.Passed()) {
            lo = mid;
            lo_phase = std::move(ph);
        } else {
            hi = mid;
            hi_phase = std::move(ph);
        }
    }
    report.Detail("capacity_in_range",
                  lo_phase.lat_ms.empty() || hi_phase.lat_ms.empty() ? "no"
                                                                     : "yes");
    std::vector<double> hi_ok;
    for (double l : hi_phase.lat_ms) {
        if (std::isfinite(l)) hi_ok.push_back(l);
    }
    const double p_lo = lo_phase.Tail();
    const double p_hi = Percentile(hi_ok, kTail);
    if (std::isfinite(p_lo) && std::isfinite(p_hi) && p_hi > kLimitMs &&
        p_hi > p_lo) {
        const double t =
            std::clamp((kLimitMs - p_lo) / (p_hi - p_lo), 0.0, 1.0);
        return lo * std::pow(hi / lo, t);
    }
    return lo;
}

/** Shut the server down, then delete the RAW ORAM store files. */
void
RemoveStores(std::unique_ptr<Deployment>& d, const std::string& store_dir)
{
    const size_t n = d->gens.size();
    d.reset();
    for (size_t f = 0; f < n; ++f) {
        std::error_code ec;
        std::filesystem::remove(
            store_dir + "/feature" + std::to_string(f) + ".store", ec);
    }
}

}  // namespace

void
RunServeOram(const Options& o, Report& report)
{
    const dlrm::DlrmConfig cfg =
        dlrm::DlrmConfig::CriteoKaggle().Scaled(kScale);
    const std::vector<Query> pool = MakeQueries(cfg, o.seed);
    const std::string store_dir = o.work_dir.empty() ? "." : o.work_dir;

    telemetry::SetEnabled(false);
    std::unique_ptr<Deployment> d;
    const double setup_s = MedianSetupSeconds(
        o.trace ? 1 : kSetupReps, [&] { d = Deploy(cfg, store_dir); },
        [&] { d.reset(); });
    double emb_bytes = 0.0;
    for (auto* g : d->gens) {
        emb_bytes += static_cast<double>(g->MemoryFootprintBytes());
    }
    report.Detail("circuit_features", static_cast<double>(d->circuit.size()));
    report.Detail("proxy_features", static_cast<double>(d->proxy.size()));
    report.Detail("raw_features", static_cast<double>(d->raw.size()));

    size_t cursor = 0;
    uint64_t phase_seed = o.seed * 1000003;
    // Warm-up: page caches and first-touch allocations, untimed.
    RunPhase(*d, pool, cursor, kRateLo, 0.0, ++phase_seed, nullptr);

    std::vector<Sample> samples;
    if (!o.trace) {
        const Segment seg =
            RunDirect(*d, pool, cursor, o.seconds, true, &samples);
        const size_t n = seg.lat_ms.size();
        report.attempted = static_cast<int64_t>(n);
        const CheckResult checks = Check(*d, pool, samples, report);
        if (!TailSupported(n, kDirectTail)) {
            report.Fail("too few samples for the tail: " + std::to_string(n));
        }
        EmitEndToEnd(report,
                     {setup_s, emb_bytes / 1048576.0,
                      BlockPercentile(seg.lat_ms, 0.5),
                      BlockPercentile(seg.lat_ms, kDirectTail),
                      BlockThroughput(seg, 1.0)},
                     checks);
        report.Detail("queries", static_cast<double>(n));
        report.Detail("tail_percentile", kDirectTail * 100.0);
        report.Detail("query_p50_ms", Percentile(seg.lat_ms, 0.5));
        report.Detail("query_p99_ms", Percentile(seg.lat_ms, 0.99));
        RemoveStores(d, store_dir);
        return;
    }

    // Traced run. Closed loop untraced, then traced: the core, oram and
    // store layers. Then the open loop through the Server at the fixed
    // rate, traced: the serving layer. Last, untraced, the max_ok_qps
    // bisection.
    OramCounts o0;
    const TracedRun run = RunTraced([&](bool traced) {
        if (traced) o0 = Count(*d);
        return RunDirect(*d, pool, cursor, kTracedSeconds * o.seconds, false,
                         traced ? &samples : nullptr);
    });
    const OramCounts o1 = Count(*d);
    const Segment& direct = run.traced;
    const double nd = static_cast<double>(direct.lat_ms.size());
    Tracer& tr = Tracer::Get();
    LayerValues v;
    v["core.circuit_ms"] = tr.Total("core.circuit").first * 1e-6 / nd;
    v["core.proxy_ms"] = tr.Total("core.proxy").first * 1e-6 / nd;
    v["core.raw_ms"] = tr.Total("core.raw").first * 1e-6 / nd;
    const double cache = (o1.cache_hits - o0.cache_hits) +
                         (o1.cache_misses - o0.cache_misses);
    v["oram.accesses_per_id"] = (o1.physical - o0.physical) / (o1.ids - o0.ids);
    v["oram.proxy_window_fill"] =
        (o1.proxy_real - o0.proxy_real) /
        std::max(1.0, o1.proxy_physical - o0.proxy_physical);
    v["store.cache_hit_share"] =
        cache > 0 ? (o1.cache_hits - o0.cache_hits) / cache : 0.0;
    v["store.fetch_pages"] = (o1.cache_misses - o0.cache_misses) / nd;
    v["store.writeback_pages"] = (o1.writebacks - o0.writebacks) / nd;
    v["trace.overhead_share"] = run.OverheadShare();

    telemetry::SetEnabled(true);
    telemetry::Registry::Instance().ResetAll();
    const serving::ServerStats s0 = d->server->GetStats();
    tr.set_on(true);
    const Phase traced = RunPhase(*d, pool, cursor, kFixedRate,
                                  kTracedSeconds * o.seconds, ++phase_seed,
                                  &samples);
    tr.set_on(false);
    const serving::ServerStats s1 = d->server->GetStats();
    // Before the bisection's traffic overwrites the ring.
    const std::vector<serving::FlightEvent> flight =
        d->server->flight_recorder()->Snapshot();
    const CounterSnapshot c1 = CounterSnapshot::Take();
    telemetry::SetEnabled(false);
    const double lag50 = Percentile(traced.lag_ms, 0.5);
    if (lag50 > kMaxLagMs) {
        report.Fail("open-loop generator fell behind: median lag " +
                    std::to_string(lag50) + " ms");
    }
    int64_t probes = 0;
    v["serving.max_ok_qps"] =
        BisectMaxOk(*d, pool, cursor, kStepSeconds * o.seconds, phase_seed,
                    probes, report);

    report.attempted =
        static_cast<int64_t>(direct.lat_ms.size() + traced.lat_ms.size());
    ApplyChecks(report, Check(*d, pool, samples, report));
    report.failed = std::min(
        report.attempted,
        report.failed +
            static_cast<int64_t>(traced.lat_ms.size() - traced.ok));
    // Flight-recorder hops of the traced requests: queue wait is
    // enqueue -> serve_start; the generator span that starts inside
    // serve_start -> respond is the group's generation. What neither
    // claims (batch assembly, copying, respond) is unattributed.
    std::vector<std::pair<uint64_t, uint64_t>> gen_spans;
    for (const auto& sp : tr.Spans()) {
        const std::string_view name(sp.name);
        if (name == "core.circuit" || name == "core.proxy" ||
            name == "core.raw") {
            gen_spans.push_back({sp.start_ns, sp.end_ns});
        }
    }
    std::sort(gen_spans.begin(), gen_spans.end());
    std::unordered_map<uint64_t, std::array<uint64_t, 3>> hops;
    for (uint64_t id : traced.ids) hops[id] = {0, 0, 0};
    for (const serving::FlightEvent& e : flight) {
        auto it = hops.find(e.request_id);
        if (it == hops.end()) continue;
        if (e.hop == serving::FlightHop::kEnqueue) it->second[0] = e.t_ns;
        if (e.hop == serving::FlightHop::kServeStart) it->second[1] = e.t_ns;
        if (e.hop == serving::FlightHop::kRespond) it->second[2] = e.t_ns;
    }
    std::vector<double> wait_ms;
    double e2e_ns = 0.0, claimed_ns = 0.0;
    for (const auto& [id, t] : hops) {
        if (t[0] == 0 || t[1] == 0 || t[2] == 0) continue;
        wait_ms.push_back(static_cast<double>(t[1] - t[0]) * 1e-6);
        e2e_ns += static_cast<double>(t[2] - t[0]);
        claimed_ns += static_cast<double>(t[1] - t[0]);
        const auto g = std::lower_bound(gen_spans.begin(), gen_spans.end(),
                                        std::make_pair(t[1], uint64_t{0}));
        if (g != gen_spans.end() && g->second <= t[2]) {
            claimed_ns += static_cast<double>(g->second - g->first);
        }
    }
    if (wait_ms.size() != hops.size()) {
        report.Fail("flight recorder lost hops: " +
                    std::to_string(wait_ms.size()) + " of " +
                    std::to_string(hops.size()) + " requests");
    }

    const auto batch = c1.hists.find("serving.batch_size");
    v["serving.queue_wait_p50_ms"] = Percentile(wait_ms, 0.5);
    v["serving.queue_wait_p99_ms"] = Percentile(wait_ms, 0.99);
    v["serving.batch_size"] =
        batch != c1.hists.end() ? batch->second.mean : 0.0;
    v["serving.shed"] = static_cast<double>(s1.shed - s0.shed);
    v["serving.deadline_exceeded"] =
        static_cast<double>(s1.deadline_exceeded - s0.deadline_exceeded);
    v["serving.retries"] = static_cast<double>(s1.retries - s0.retries);
    v["serving.degraded_batches"] =
        static_cast<double>(s1.degraded_batches - s0.degraded_batches);
    v["client.lag_ms"] = Percentile(traced.lag_ms, 0.99);
    v["trace.unattributed_share"] =
        e2e_ns > 0 ? 1.0 - claimed_ns / e2e_ns : 0.0;
    EmitPerLayer(report, v);
    report.Detail("queries", nd);
    report.Detail("open_loop_queries",
                  static_cast<double>(traced.lat_ms.size()));
    if (!o.work_dir.empty()) {
        tr.WriteChromeTrace(o.work_dir + "/serve-oram.trace.json");
        d->server->flight_recorder()->WriteChromeTrace(
            o.work_dir + "/serve-oram.flight.json");
    }
    RemoveStores(d, store_dir);
}

}  // namespace perfbench
