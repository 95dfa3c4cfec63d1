#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <thread>

#include "telemetry/metrics.h"
#include "tensor/kernels/kernels.h"

namespace perfbench {

double
Percentile(std::vector<double> v, double p)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    return v[rank - 1];
}

bool
TailSupported(size_t n, double p)
{
    const size_t rank =
        static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    return n >= rank + 10;
}

namespace {

constexpr size_t kBlocks = 10;

}  // namespace

double
BlockPercentile(const std::vector<double>& v, double p)
{
    size_t blocks = kBlocks;
    while (blocks > 1 && !TailSupported(v.size() / blocks, p)) --blocks;
    const size_t n = v.size();
    std::vector<double> per_block;
    for (size_t b = 0; b < blocks; ++b) {
        const auto first =
            v.begin() + static_cast<std::ptrdiff_t>(b * n / blocks);
        const auto last =
            v.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / blocks);
        per_block.push_back(Percentile({first, last}, p));
    }
    return Median(per_block);
}

double
Mean(const std::vector<double>& v)
{
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double
Median(std::vector<double> v)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
PeakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

thread_local int64_t tls_parent = -1;
thread_local uint64_t tls_request = 0;

uint32_t
ThreadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
}

}  // namespace

Tracer&
Tracer::Get()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Scope::Scope(const char* name, uint64_t request)
{
    Tracer& t = Get();
    if (!t.on_) return;
    saved_parent_ = tls_parent;
    saved_request_ = tls_request;
    const uint64_t req = request != 0 ? request : tls_request;
    {
        std::lock_guard<std::mutex> lock(t.mu_);
        index_ = static_cast<int64_t>(t.spans_.size());
        t.spans_.push_back({name, NowNs(), 0, tls_parent, req, ThreadId()});
    }
    tls_parent = index_;
    tls_request = req;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0) return;
    const uint64_t end = NowNs();
    Tracer& t = Get();
    {
        std::lock_guard<std::mutex> lock(t.mu_);
        t.spans_[static_cast<size_t>(index_)].end_ns = end;
    }
    tls_parent = saved_parent_;
    tls_request = saved_request_;
}

std::vector<Tracer::Span>
Tracer::Spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::pair<double, int64_t>
Tracer::Total(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double ns = 0.0;
    int64_t count = 0;
    for (const Span& s : spans_) {
        if (s.end_ns != 0 && name == s.name) {
            ns += static_cast<double>(s.end_ns - s.start_ns);
            ++count;
        }
    }
    return {ns, count};
}

bool
Tracer::WriteChromeTrace(const std::string& path) const
{
    const std::vector<Span> spans = Spans();
    std::ofstream out(path);
    if (!out) return false;
    const uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
            "\"parent\":%lld,\"request\":%llu}}",
            i == 0 ? "" : ",", s.name, s.tid,
            static_cast<double>(s.start_ns - epoch) * 1e-3,
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
            static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request));
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// CounterSnapshot
// ---------------------------------------------------------------------------

CounterSnapshot
CounterSnapshot::Take()
{
    const auto snap =
        secemb::telemetry::Registry::Instance().TakeSnapshot();
    CounterSnapshot s;
    for (const auto& [name, value] : snap.counters) s.counters[name] = value;
    for (const auto& [name, h] : snap.histograms) s.hists[name] = h;
    return s;
}

double
CounterSnapshot::Delta(const CounterSnapshot& before,
                       const std::string& name) const
{
    const auto a = counters.find(name);
    const auto b = before.counters.find(name);
    const uint64_t va = a == counters.end() ? 0 : a->second;
    const uint64_t vb = b == before.counters.end() ? 0 : b->second;
    return static_cast<double>(va - vb);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

std::string
Escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
Num(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

void
Report::Metric(const std::string& name, double value,
               const std::string& unit)
{
    if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
    metrics_.push_back({name, {value, unit}});
}

void
Report::Detail(const std::string& name, double value)
{
    details_.push_back({name, Num(value)});
}

void
Report::Detail(const std::string& name, const std::string& value)
{
    details_.push_back({name, "\"" + Escape(value) + "\""});
}

void
Report::Fail(const std::string& what)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    failures_.push_back(what);
}

void
Report::Print(const std::string& workload) const
{
    std::string detail = "{\"workload\":\"" + Escape(workload) + "\"";
    for (const auto& [name, value] : details_) {
        detail += ",\"" + Escape(name) + "\":" + value;
    }
    if (!failures_.empty()) {
        detail += ",\"failures\":[";
        for (size_t i = 0; i < failures_.size(); ++i) {
            detail += (i ? ",\"" : "\"") + Escape(failures_[i]) + "\"";
        }
        detail += "]";
    }
    detail += "}";
    std::printf("%s\n", detail.c_str());

    std::string line = "{\"correct\":";
    line += correct() ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(attempted);
    line += ",\"failed\":" + std::to_string(failed);
    line += ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const auto& [name, vu] = metrics_[i];
        line += (i ? ",\"" : "\"") + Escape(name) + "\":{\"value\":" +
                Num(vu.first) + ",\"unit\":\"" + Escape(vu.second) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
AddFingerprint(Report& report)
{
    namespace k = secemb::kernels;
    report.Detail("fp.nproc",
                  static_cast<double>(std::thread::hardware_concurrency()));
    report.Detail("fp.isa", k::IsaName(k::ActiveIsa()));
    report.Detail("fp.compiler", __VERSION__);
    report.Detail("fp.build_type", PERFBENCH_BUILD_TYPE);
    report.Detail("fp.precision", k::DtypeName(k::ActiveDtype()));
}

void
ClearKernelCache()
{
    secemb::kernels::PackedWeightCache::Instance().Clear();
}

double
ApplyChecks(Report& report, const CheckResult& checks)
{
    if (checks.checked <= 0) {
        report.Fail("no request was checked");
        report.failed = report.attempted;
        return 0.0;
    }
    if (checks.guard_failed) {
        report.failed = report.attempted;
        return 0.0;
    }
    report.failed = std::min(checks.bad, report.attempted);
    return static_cast<double>(checks.checked - checks.bad) /
           static_cast<double>(checks.checked);
}

void
EmitEndToEnd(Report& report, const EndToEnd& e, const CheckResult& checks)
{
    const double ok_share = ApplyChecks(report, checks);
    report.Metric("setup_s", e.setup_s, "s");
    report.Metric("rss_peak_mb", PeakRssMb(), "MB");
    report.Metric("emb_state_mb", e.emb_state_mb, "MB");
    report.Metric("ok_share", ok_share, "share");
    report.Metric("lat_p50_ms", e.lat_p50_ms, "ms");
    report.Metric("lat_tail_ms", e.lat_tail_ms, "ms");
    report.Metric("items_per_s", e.items_per_s, "1/s");
    report.Detail("checked_requests", static_cast<double>(checks.checked));
}

double
BlockThroughput(const Segment& seg, double items_per_request)
{
    const size_t n = seg.end_ns.size();
    const size_t blocks = std::min(kBlocks, n);
    std::vector<double> rates;
    for (size_t b = 0; b < blocks; ++b) {
        const size_t i0 = b * n / blocks;
        const size_t i1 = (b + 1) * n / blocks;
        const uint64_t begin = i0 == 0 ? seg.start_ns : seg.end_ns[i0 - 1];
        rates.push_back(static_cast<double>(i1 - i0) * items_per_request /
                        (static_cast<double>(seg.end_ns[i1 - 1] - begin) *
                         1e-9));
    }
    return Median(rates);
}

double
TracedRun::OverheadShare() const
{
    return Mean(traced.lat_ms) / Mean(plain.lat_ms) - 1.0;
}

}  // namespace perfbench
