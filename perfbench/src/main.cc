/**
 * @file
 * perfbench entry point:
 *
 *   perfbench --workload <dlrm-kaggle|llm-gen|serve-oram> --seed <n>
 *             --seconds <s> --trace <0|1> --thresholds <plan file>
 *             [--work-dir <dir>]
 *
 * Prints a detail object (issue-level metric names, sample counts,
 * machine fingerprint) and, as the last line, the result object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

void
EmitPerLayer(Report& report, const LayerValues& values)
{
    // Every traced run prints the same names: BENCHMARK.json's per_layer.
    static const std::vector<std::pair<const char*, const char*>> kLayers{
        {"core.dhe_ms", "ms"},
        {"core.scan_ms", "ms"},
        {"core.circuit_ms", "ms"},
        {"core.proxy_ms", "ms"},
        {"core.raw_ms", "ms"},
        {"core.plan_scan_features", "count"},
        {"core.plan_dhe_features", "count"},
        {"dhe.ids", "count"},
        {"oblivious.scan_rows", "count"},
        {"oblivious.argmax_ms", "ms"},
        {"dlrm.inference_ms", "ms"},
        {"dlrm.residual_ms", "ms"},
        {"tensor.gemm_calls", "count"},
        {"tensor.gemm_gflop", "GFLOP"},
        {"tensor.pack_b_floats", "count"},
        {"tensor.cache_hit_share", "share"},
        {"tensor.cache_repacks", "count"},
        {"tensor.pool_wake_us", "us"},
        {"llm.prefill_ms", "ms"},
        {"llm.decode_ms", "ms"},
        {"llm.embed_ms", "ms"},
        {"llm.trunk_ms", "ms"},
        {"serving.queue_wait_p50_ms", "ms"},
        {"serving.queue_wait_p99_ms", "ms"},
        {"serving.batch_size", "count"},
        {"serving.shed", "count"},
        {"serving.deadline_exceeded", "count"},
        {"serving.retries", "count"},
        {"serving.degraded_batches", "count"},
        {"serving.max_ok_qps", "1/s"},
        {"oram.accesses_per_id", "count"},
        {"oram.proxy_window_fill", "share"},
        {"store.cache_hit_share", "share"},
        {"store.fetch_pages", "count"},
        {"store.writeback_pages", "count"},
        {"client.lag_ms", "ms"},
        {"trace.overhead_share", "share"},
        {"trace.unattributed_share", "share"},
    };
    for (const auto& [name, unit] : kLayers) {
        const auto it = values.find(name);
        report.Metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values) {
        bool listed = false;
        for (const auto& layer : kLayers) listed |= name == layer.first;
        if (!listed) report.Fail("unlisted layer metric " + name);
    }
}

LayerValues
TensorLayers(const CounterSnapshot& c0, const CounterSnapshot& c1,
             double n)
{
    const double hits = c1.Delta(c0, "kernels.cache.hits");
    const double misses = c1.Delta(c0, "kernels.cache.misses");
    const auto wake = c1.hists.find("pool.wake.ns");
    LayerValues v;
    v["tensor.gemm_calls"] = c1.Delta(c0, "tensor.gemm.calls") / n;
    v["tensor.gemm_gflop"] = c1.Delta(c0, "tensor.gemm.flops") * 1e-9 / n;
    v["tensor.pack_b_floats"] = c1.Delta(c0, "kernels.pack_b.floats") / n;
    v["tensor.cache_hit_share"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    v["tensor.cache_repacks"] = c1.Delta(c0, "kernels.cache.repacks") / n;
    v["tensor.pool_wake_us"] =
        wake != c1.hists.end() && wake->second.count > 0
            ? wake->second.mean * 1e-3
            : 0.0;
    return v;
}

}  // namespace perfbench

namespace {

[[noreturn]] void
Usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<dlrm-kaggle|llm-gen|serve-oram> --seed <n> --seconds "
                 "<s> --trace <0|1> --thresholds <file> [--work-dir "
                 "<dir>]\n",
                 why);
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
{
    // Pin what the library would otherwise read from the environment:
    // f32 GEMMs, the auto-detected ISA tier, explicit thread counts.
    setenv("SECEMB_PRECISION", "f32", 1);
    unsetenv("SECEMB_ISA");
    unsetenv("SECEMB_THREADS");
    unsetenv("SECEMB_PERFMON");

    perfbench::Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), nullptr);
            have_seconds = o.seconds > 0.0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
            o.trace = value == "1";
            have_trace = true;
        } else if (flag == "--thresholds") {
            o.thresholds = value;
        } else if (flag == "--work-dir") {
            o.work_dir = value;
        } else {
            Usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace || o.thresholds.empty()) {
        Usage("--seed, --seconds, --trace and --thresholds are required");
    }

    perfbench::Report report;
    try {
        if (o.workload == "dlrm-kaggle") {
            perfbench::RunDlrmKaggle(o, report);
        } else if (o.workload == "llm-gen") {
            perfbench::RunLlmGen(o, report);
        } else if (o.workload == "serve-oram") {
            perfbench::RunServeOram(o, report);
        } else {
            Usage(("unknown workload " + o.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    perfbench::AddFingerprint(report);
    report.Print(o.workload);
    return 0;
}
