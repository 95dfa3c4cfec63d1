/**
 * @file
 * llm-gen: closed loop, one client, two worker threads. SecureGpt with
 * DHE token embeddings at the real 50257-token vocabulary in front of the
 * fig15 bench-scale trunk (dim 256, 4 layers). A request is 4 prompts ->
 * Prefill -> a fixed number of greedy tokens chosen by oblivious argmax.
 * GEMMs run skinny (m = 4) against the 50257-wide head while DHE embeds
 * one token per sequence per step, so the tensor layer is used
 * differently from dlrm-kaggle and the DHE layer is nearly bypassed.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/factory.h"
#include "dhe/dhe.h"
#include "llm/gpt.h"
#include "oblivious/scan.h"
#include "perfmon/perfmon.h"
#include "reference.h"
#include "timed_generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace secemb;

constexpr int64_t kVocab = 50257;
constexpr int64_t kDim = 256;
constexpr int64_t kLayers = 4;
constexpr int kThreads = 2;
constexpr int64_t kSequences = 4;
constexpr int64_t kPromptLen = 16;
/** Tokens generated per sequence: one from prefill, the rest decoded. */
constexpr int64_t kNewTokens = 16;
constexpr int kSetupReps = 5;
constexpr size_t kPromptPool = 64;
/** Every kCheckEvery-th token step keeps its logits for the checks. */
constexpr size_t kCheckEvery = 41;
constexpr size_t kNaiveDheChecks = 2;
/** TBT tail; a run holds a few hundred steps, so p90 is the highest
 *  percentile with ten samples beyond it in every run. */
constexpr double kTail = 0.90;
constexpr uint64_t kWeightSeed = 0x11e9e7;

using Prompts = std::vector<std::vector<int64_t>>;

struct Deployment
{
    TimedGenerator* gen = nullptr;  ///< owned by model
    std::shared_ptr<dhe::DheEmbedding> dhe;
    Rng dhe_rng;  ///< Rng state before the DHE was built
    std::unique_ptr<llm::SecureGpt> model;
};

llm::GptConfig
Config()
{
    llm::GptConfig cfg = llm::GptConfig::BenchScale(kDim, kVocab, kLayers);
    cfg.max_seq = kPromptLen + kNewTokens + 8;
    return cfg;
}

std::unique_ptr<Deployment>
Deploy(const Prompts& first)
{
    auto d = std::make_unique<Deployment>();
    Rng rng(kWeightSeed);
    d->dhe_rng = rng;
    d->dhe = std::make_shared<dhe::DheEmbedding>(
        dhe::DheConfig::ForLlm(kDim), rng, kThreads);
    core::GeneratorOptions opt;
    opt.nthreads = kThreads;
    opt.precision = kernels::Dtype::kF32;
    opt.dhe = d->dhe;
    auto gen = std::make_unique<TimedGenerator>(
        core::MakeGenerator(core::GenKind::kDheUniform, kVocab, kDim, rng,
                            opt),
        "core.dhe");
    d->gen = gen.get();
    Rng trunk_rng(kWeightSeed + 1);
    d->model = std::make_unique<llm::SecureGpt>(Config(), std::move(gen),
                                                trunk_rng, kThreads);
    // First prefill + decode step pack every weight: set-up work.
    const Tensor logits = d->model->Prefill(first);
    d->model->DecodeStep(d->model->GreedyTokens(logits));
    return d;
}

struct StepSample
{
    size_t request = 0;  ///< index of the request within its segment
    Tensor logits;
    std::vector<int64_t> tokens;  ///< what GreedyTokens returned
};

/** Token timings of a segment; the Segment itself times whole requests. */
struct TokenTimes
{
    std::vector<double> ttft_ms;
    std::vector<double> tbt_ms;
};

uint64_t g_next_request = 1;

std::vector<int64_t>
Greedy(Deployment& d, const Tensor& logits)
{
    Tracer::Scope span("oblivious.argmax");
    return d.model->GreedyTokens(logits);
}

/** Closed loop of whole requests until `seconds` have passed and the TBT
 *  tail (when min_tail) has ten samples beyond it. */
Segment
Measure(Deployment& d, const std::vector<Prompts>& pool, double seconds,
        bool min_tail, size_t& cursor, TokenTimes& times,
        std::vector<StepSample>* samples)
{
    size_t steps = 0;
    return ClosedLoop(
        seconds,
        [&](size_t i) {
            const Prompts& prompts = pool[cursor++ % pool.size()];
            const uint64_t t0 = NowNs();
            Tracer::Scope req("llm.request", g_next_request++);
            Tensor logits;
            {
                Tracer::Scope span("llm.prefill");
                logits = d.model->Prefill(prompts);
            }
            std::vector<int64_t> next = Greedy(d, logits);
            uint64_t prev = NowNs();
            times.ttft_ms.push_back(static_cast<double>(prev - t0) * 1e-6);
            for (int64_t s = 1; s < kNewTokens; ++s) {
                if (samples != nullptr && steps++ % kCheckEvery == 0) {
                    samples->push_back({i, logits, next});
                }
                {
                    Tracer::Scope span("llm.decode");
                    logits = d.model->DecodeStep(next);
                }
                next = Greedy(d, logits);
                const uint64_t now = NowNs();
                times.tbt_ms.push_back(static_cast<double>(now - prev) *
                                       1e-6);
                prev = now;
            }
        },
        [&](const Segment&) {
            return !min_tail || TailSupported(times.tbt_ms.size(), kTail);
        });
}

/** User-mode instructions retired by one ObliviousArgmax over `v`
 *  (minimum of five runs); 0 when the counter is unavailable. */
uint64_t
ArgmaxInstructions(perfmon::CounterGroup& group, std::span<const float> v)
{
    uint64_t best = UINT64_MAX;
    for (int rep = 0; rep < 5; ++rep) {
        const perfmon::Sample a = group.Read();
        const int64_t idx = oblivious::ObliviousArgmax(v);
        const perfmon::Sample b = group.Read();
        if (idx < 0) return 0;
        best = std::min(best, perfmon::Sample::Delta(a, b)[
                                  perfmon::Event::kInstructions]);
    }
    return best;
}

/**
 * Output checks and obliviousness guards. A request is checked when one
 * of its token steps was sampled; the DHE checks cover the deployment, so
 * their failure fails every request, as a guard failure does.
 */
CheckResult
Check(Deployment& d, const std::vector<Prompts>& pool,
      const std::vector<StepSample>& samples, uint64_t seed, Report& report)
{
    CheckResult result;
    std::map<size_t, bool> requests;  ///< sampled request -> all steps ok
    for (const StepSample& s : samples) {
        const auto plain = d.model->GreedyTokensNonSecure(s.logits);
        const bool ok = plain == s.tokens;
        if (!ok) {
            report.Fail("request " + std::to_string(s.request) +
                        ": GreedyTokens differs from GreedyTokensNonSecure");
        }
        const auto [it, fresh] = requests.emplace(s.request, ok);
        if (!fresh) it->second = it->second && ok;
    }
    result.checked = static_cast<int64_t>(requests.size());
    for (const auto& [request, ok] : requests) result.bad += ok ? 0 : 1;

    const NaiveDhe naive(dhe::DheConfig::ForLlm(kDim), d.dhe_rng, *d.dhe);
    for (size_t i = 0; i < std::min(kNaiveDheChecks, pool.size()); ++i) {
        std::vector<int64_t> flat;
        for (const auto& p : pool[i]) {
            flat.insert(flat.end(), p.begin(), p.end());
        }
        const Tensor got = d.gen->inner().GenerateBatch(flat);
        const std::string diff = CompareRows(got, naive.Forward(flat), false);
        if (!diff.empty()) {
            report.Fail("DHE token rows: " + diff);
            result.guard_failed = true;
        }
    }

    // Guard 1: DHE leaves the same canonical trace for unrelated tokens.
    Rng rng(seed ^ 0x70c3);
    std::vector<int64_t> a(static_cast<size_t>(kSequences)), b(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<int64_t>(rng.NextBounded(kVocab));
        b[i] = static_cast<int64_t>(rng.NextBounded(kVocab));
    }
    const std::string div = CompareTraces(d.gen->inner(), a, b);
    if (!div.empty()) {
        report.Fail("DHE trace guard: " + div);
        result.guard_failed = true;
        return result;
    }

    // Guard 2: oblivious argmax retires the same instruction count for
    // two logit rows whose maxima sit at different positions.
    // Without a readable instruction counter (no perf_event_open access)
    // the guard cannot run; the result says so.
    perfmon::SetEnabled(true);
    perfmon::CounterGroup group;
    if (samples.empty() || !group.Available(perfmon::Event::kInstructions)) {
        perfmon::SetEnabled(false);
        report.Detail("argmax_guard", "instruction counter unavailable");
        return result;
    }
    const auto row = samples.front().logits.row(0);
    const std::vector<float> rev(row.rbegin(), row.rend());
    const uint64_t ia = ArgmaxInstructions(group, row);
    const uint64_t ib = ArgmaxInstructions(group, rev);
    perfmon::SetEnabled(false);
    report.Detail("argmax_guard_instructions", static_cast<double>(ia));
    if (ia == 0 || ia != ib) {
        report.Fail("argmax guard: " + std::to_string(ia) + " vs " +
                    std::to_string(ib) + " instructions");
        result.guard_failed = true;
    }
    return result;
}

}  // namespace

void
RunLlmGen(const Options& o, Report& report)
{
    Rng prompt_rng(o.seed);
    std::vector<Prompts> pool(kPromptPool);
    for (Prompts& p : pool) {
        p.assign(kSequences, std::vector<int64_t>(kPromptLen));
        for (auto& seq : p) {
            for (auto& t : seq) {
                t = static_cast<int64_t>(prompt_rng.NextBounded(kVocab));
            }
        }
    }

    std::unique_ptr<Deployment> d;
    const double setup_s = MedianSetupSeconds(
        o.trace ? 1 : kSetupReps, [&] { d = Deploy(pool[0]); },
        [&] { d.reset(); });
    const double emb_mb =
        static_cast<double>(d->gen->MemoryFootprintBytes()) / 1048576.0;

    size_t cursor = 1;
    std::vector<StepSample> samples;
    if (!o.trace) {
        telemetry::SetEnabled(false);
        TokenTimes times;
        const Segment seg =
            Measure(*d, pool, o.seconds, true, cursor, times, &samples);
        report.attempted = static_cast<int64_t>(seg.lat_ms.size());
        const CheckResult checks = Check(*d, pool, samples, o.seed, report);
        if (!TailSupported(times.tbt_ms.size(), kTail)) {
            report.Fail("too few TBT samples for p90");
        }
        const double tbt50 = BlockPercentile(times.tbt_ms, 0.5);
        const double tbt90 = BlockPercentile(times.tbt_ms, kTail);
        EmitEndToEnd(report,
                     {setup_s, emb_mb, tbt50, tbt90,
                      BlockThroughput(seg, kSequences * kNewTokens)},
                     checks);
        report.Detail("requests", static_cast<double>(seg.lat_ms.size()));
        report.Detail("tbt_samples", static_cast<double>(times.tbt_ms.size()));
        report.Detail("tail_percentile", 90.0);
        report.Detail("ttft_p50_ms", Percentile(times.ttft_ms, 0.5));
        if (TailSupported(times.ttft_ms.size(), 0.9)) {
            report.Detail("ttft_p90_ms", Percentile(times.ttft_ms, 0.9));
        }
        report.Detail("tbt_p50_ms", Percentile(times.tbt_ms, 0.5));
        report.Detail("tbt_p90_ms", Percentile(times.tbt_ms, kTail));
        return;
    }

    const TracedRun run = RunTraced([&](bool traced) {
        TokenTimes times;
        return Measure(*d, pool, o.seconds / 2, false, cursor, times,
                       traced ? &samples : nullptr);
    });
    const CounterSnapshot& c0 = run.before;
    const CounterSnapshot& c1 = run.after;

    report.attempted = static_cast<int64_t>(run.traced.lat_ms.size());
    ApplyChecks(report, Check(*d, pool, samples, o.seed, report));

    const Tracer& tr = Tracer::Get();
    const auto spans = tr.Spans();
    double decode_embed_ns = 0.0;
    for (const auto& s : spans) {
        if (std::string_view(s.name) == "core.dhe" && s.parent >= 0 &&
            std::string_view(spans[static_cast<size_t>(s.parent)].name) ==
                "llm.decode") {
            decode_embed_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    const double n = static_cast<double>(run.traced.lat_ms.size());
    const auto [prefill_ns, prefills] = tr.Total("llm.prefill");
    const auto [decode_ns, decodes] = tr.Total("llm.decode");
    const auto [argmax_ns, argmaxes] = tr.Total("oblivious.argmax");

    LayerValues v = TensorLayers(c0, c1, n);
    v["core.dhe_ms"] = tr.Total("core.dhe").first * 1e-6 / n;
    v["dhe.ids"] = c1.Delta(c0, "dhe.forward.ids") / n;
    v["llm.prefill_ms"] = prefill_ns * 1e-6 / static_cast<double>(prefills);
    v["llm.decode_ms"] = decode_ns * 1e-6 / static_cast<double>(decodes);
    v["llm.embed_ms"] = decode_embed_ns * 1e-6 / static_cast<double>(decodes);
    v["llm.trunk_ms"] =
        (decode_ns - decode_embed_ns) * 1e-6 / static_cast<double>(decodes);
    v["oblivious.argmax_ms"] =
        argmax_ns * 1e-6 / static_cast<double>(argmaxes);
    v["trace.overhead_share"] = run.OverheadShare();
    v["trace.unattributed_share"] =
        1.0 - (prefill_ns + decode_ns + argmax_ns) * 1e-9 / run.traced.wall_s;
    EmitPerLayer(report, v);
    report.Detail("requests", n);
    if (!o.work_dir.empty()) {
        tr.WriteChromeTrace(o.work_dir + "/llm-gen.trace.json");
    }
}

}  // namespace perfbench
