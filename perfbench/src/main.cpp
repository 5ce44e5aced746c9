/**
 * @file
 * tcmbench: the tcmsim benchmark harness.
 *
 *   tcmbench --work DIR --digests FILE --workload NAME --seed N
 *            --seconds S --trace 0|1
 *
 * Untraced (--trace 0): set the workload up several times (median is
 * setup_s), run passes over its fixed job list for S seconds, check every
 * job's outputs, and print the end-to-end metrics. Traced (--trace 1):
 * measure every per-layer metric instead, with spans written to
 * DIR/spans/. The last line of standard output is the JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/numfmt.hpp"
#include "common/random.hpp"

namespace fs = std::filesystem;
using namespace tcmbench;

namespace {

/** Seed at which outputs are compared with the committed digests. */
constexpr std::uint64_t kDigestSeed = 1;
/** Set-ups timed before the timed phase. One more is timed after every
 *  pass, so setup_s, their median, samples the host over the same window
 *  as the passes do. */
constexpr int kSetupRepsBefore = 3;
/** Jobs per run re-run through the per-cycle oracle. */
constexpr std::size_t kOracleJobs = 2;

struct Args
{
    std::string work;
    std::string digests;
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            std::size_t used = 0;
            if (key == "--work") {
                a->work = val;
            } else if (key == "--digests") {
                a->digests = val;
            } else if (key == "--workload") {
                a->workload = val;
            } else if (key == "--seed") {
                a->seed = std::stoull(val, &used);
                haveSeed = used == val.size();
            } else if (key == "--seconds") {
                a->seconds = std::stoi(val, &used);
                if (used != val.size())
                    return false;
            } else if (key == "--trace") {
                a->trace = std::stoi(val, &used);
                if (used != val.size())
                    return false;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !a->work.empty() && !a->digests.empty() &&
           haveSeed && a->seconds >= 1 && (a->trace == 0 || a->trace == 1);
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Host fingerprint: the build and machine every number was taken on. */
std::string
hostFingerprint()
{
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    std::ostringstream s;
    s << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":\"" << TCMBENCH_COMPILER << "\",\"build_type\":\""
      << TCMBENCH_BUILD_TYPE << "\",\"asserts\":" << (asserts ? "true" : "false")
      << "}";
    return s.str();
}

/** Committed digest of @p workload at the digest seed ("" when absent). */
std::string
committedDigest(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    std::string name, hex;
    while (in >> name >> hex)
        if (name == workload)
            return hex;
    return "";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? tcm::formatDouble(m.value)
                                       : std::string("null")) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** The untraced run: end-to-end metrics. */
int
runUntraced(const Workload &w, const Args &a, const std::string &dir)
{
    SpanRecorder spans;

    std::vector<double> setupTimes;
    auto timedSetUp = [&] {
        const std::string d = dir + "/setup" + std::to_string(setupTimes.size());
        const auto t0 = Clock::now();
        Prepared fresh = setUp(w, d, spans, -1);
        setupTimes.push_back(secondsSince(t0));
        return std::make_pair(std::move(fresh), d);
    };
    Prepared p;
    for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
        p = Prepared{}; // each set-up starts cold
        p = timedSetUp().first;
    }

    // Timed phase: whole passes over the job list until they add up to
    // --seconds, with one more timed set-up after each.
    std::vector<PassResult> passes;
    double timed = 0.0;
    do {
        passes.push_back(runPass(
            w, p, dir + "/pass" + std::to_string(passes.size()) + ".jsonl",
            spans, -1));
        timed += passes.back().seconds;
        std::error_code ec;
        fs::remove_all(timedSetUp().second, ec);
    } while (timed < a.seconds);

    // Checks, all outside the timed phase.
    const std::size_t n = w.jobs.size();
    const std::vector<JobOutput> &first = passes.front().outputs;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<bool> firstFailed(n, false);
    auto report = [](const std::string &what, const std::string &why) {
        std::fprintf(stderr, "tcmbench: FAIL %s: %s\n", what.c_str(),
                     why.c_str());
    };
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const PassResult &pass = passes[k];
        const bool streamDiffers =
            w.viaSweepd && pass.stream != passes.front().stream;
        for (std::size_t j = 0; j < n; ++j) {
            ++attempted;
            const JobOutput &o = pass.outputs[j];
            std::string why;
            if (!o.ok)
                why = o.error;
            else if (o.text != first[j].text)
                why = "output differs from pass 0";
            else if (streamDiffers)
                why = "sweepd stream bytes differ from pass 0";
            if (why.empty())
                continue;
            ++failed;
            if (k == 0)
                firstFailed[j] = true;
            report("pass " + std::to_string(k) + " job " + std::to_string(j),
                   why);
        }
    }

    tcm::Pcg32 rng(a.seed, 0x0c1e);
    std::vector<std::size_t> sample;
    while (sample.size() < std::min(kOracleJobs, n)) {
        std::size_t j = rng.nextBelow(static_cast<std::uint32_t>(n));
        if (std::find(sample.begin(), sample.end(), j) == sample.end())
            sample.push_back(j);
    }
    for (std::size_t j : sample) {
        ++attempted;
        JobOutput o = runOracle(w, p, j);
        if (!o.ok || o.text != first[j].text) {
            ++failed;
            report("oracle job " + std::to_string(j),
                   "per-cycle oracle gives " + o.text + " vs " +
                       first[j].text);
        }
    }

    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digestOf(first)));
    std::printf("digest %s %s\n", w.name.c_str(), hex);
    if (a.seed == kDigestSeed) {
        const std::string want = committedDigest(a.digests, w.name);
        if (want != hex) {
            report("digest", "outputs digest " + std::string(hex) +
                                 " != committed '" + want + "'");
            for (std::size_t j = 0; j < n; ++j)
                if (!firstFailed[j])
                    ++failed;
        }
    }

    std::vector<double> rates;
    for (const PassResult &pass : passes)
        rates.push_back(static_cast<double>(n) / pass.seconds);
    double ws = 0.0, ms = 0.0;
    for (const JobOutput &o : first) {
        ws += o.ws;
        ms += o.ms;
    }
    const double jobsPerSec = quantile(rates, 0.5);
    std::printf("setup seconds:");
    for (double t : setupTimes)
        std::printf(" %.3f", t);
    std::printf("\npasses %zu, pass seconds:", passes.size());
    for (const PassResult &pass : passes)
        std::printf(" %.3f", pass.seconds);
    std::printf("\n");
    printResult(failed == 0, attempted, failed,
                {{"jobs_per_s", jobsPerSec, "jobs/s"},
                 {"sim_mcycles_per_s", jobsPerSec * w.cyclesPerJob() / 1e6,
                  "Mcycles/s"},
                 {"setup_s", quantile(setupTimes, 0.5), "s"},
                 {"peak_rss_mb", peakRssMiB(), "MiB"},
                 {"ok_ratio",
                  1.0 - static_cast<double>(failed) /
                            static_cast<double>(attempted),
                  "ratio"},
                 {"ws_mean", ws / static_cast<double>(n), "ratio"},
                 {"ms_mean", ms / static_cast<double>(n), "ratio"}});
    return 0;
}

/** Units and metric order of the traced run's output. */
const std::vector<std::pair<std::string, std::string>> &
layerUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"sim.steps_per_kcycle", "count"},
        {"sim.ctrl_ticks_per_step", "count"},
        {"sim.skip_len_p50", "cycles"},
        {"sim.skip_len_p99", "cycles"},
        {"sim.horizon_share.scheduler", "ratio"},
        {"sim.horizon_share.controller", "ratio"},
        {"sim.horizon_share.core", "ratio"},
        {"sim.horizon_share.telemetry", "ratio"},
        {"core.dormant_frac", "ratio"},
        {"core.streaming_frac", "ratio"},
        {"core.lockstep_frac", "ratio"},
        {"mem.scans_per_kcycle", "count"},
        {"mem.reads_examined_per_scan", "count"},
        {"mem.dominance_skip_frac", "ratio"},
        {"mem.scan_issue_ratio", "ratio"},
        {"mem.ctrl_tick_ns", "ns"},
        {"mem.write_drains_per_kcycle", "count"},
        {"mem.row_hit_rate", "ratio"},
        {"mem.read_latency_p99", "cycles"},
        {"dram.cmds_per_kcycle", "count"},
        {"dram.powerdowns_per_kcycle", "count"},
        {"dram.channel_ns_per_cmd", "ns"},
        {"dram.checker_ns_per_cmd", "ns"},
        {"dram.checker_overhead_frac", "ratio"},
        {"sched.tcm.tick_ns", "ns"},
        {"sched.atlas.tick_ns", "ns"},
        {"sched.stfm.tick_ns", "ns"},
        {"sched.parbs.tick_ns", "ns"},
        {"sched.frfcfs.tick_ns", "ns"},
        {"sched.bliss.tick_ns", "ns"},
        {"sched.ght.tick_ns", "ns"},
        {"sched.rank_epochs_per_kcycle", "count"},
        {"workload.trace_ns_per_item", "ns"},
        {"telemetry.overhead_frac", "ratio"},
        {"telemetry.events_per_kcycle", "count"},
        {"telemetry.bytes_per_kcycle", "bytes"},
        {"prof.overhead_frac", "ratio"},
        {"sim.alone_cache.prewarm_s", "s"},
        {"sim.alone_cache.load_ms", "ms"},
        {"sim.alone_cache.save_ms", "ms"},
        {"sim.alone_cache.hit_rate", "ratio"},
        {"sim.sweepd.parse_ms", "ms"},
        {"sim.sweepd.overhead_frac", "ratio"},
        {"sim.results.json_line_us", "us"},
        {"sim.job_s_p50", "s"},
        {"sim.job_s_p90", "s"},
        {"common.pool_idle_frac", "ratio"},
        {"common.pool_efficiency", "ratio"},
    };
    return units;
}

/** The traced run: per-layer metrics, spans written to DIR/spans/. */
int
runTraced(const Workload &w, const Args &a, const std::string &dir)
{
    SpanRecorder spans;
    LayerResult r = measureLayers(w, dir, spans);
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "tcmbench: FAIL %s\n", e.c_str());

    const std::string spanDir = a.work + "/spans";
    fs::create_directories(spanDir);
    const std::string spanPath = spanDir + "/" + w.name + "-seed" +
                                 std::to_string(a.seed) + ".jsonl";
    spans.writeJsonl(spanPath, "{\"host\":" + hostFingerprint() +
                                   ",\"workload\":\"" + w.name +
                                   "\",\"seed\":" + std::to_string(a.seed) +
                                   ",\"timer_ns\":" +
                                   tcm::formatDouble(clockOverheadNs()) + "}");
    std::printf("spans %s\n", spanPath.c_str());

    std::vector<Metric> metrics;
    bool complete = true;
    for (const auto &[name, unit] : layerUnits()) {
        auto it = r.metrics.find(name);
        if (it == r.metrics.end()) {
            std::fprintf(stderr, "tcmbench: metric %s not measured\n",
                         name.c_str());
            complete = false;
            continue;
        }
        metrics.push_back({name, it->second, unit});
    }
    const std::uint64_t attempted = std::max<std::uint64_t>(r.attempted, 1);
    printResult(complete && r.failed == 0, attempted, r.failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, &a)) {
        std::fprintf(stderr,
                     "usage: tcmbench --work DIR --digests FILE --workload "
                     "NAME --seed N --seconds S --trace 0|1\n");
        return 2;
    }
    Workload w;
    if (!makeWorkload(a.workload, a.seed, &w)) {
        std::fprintf(stderr, "tcmbench: unknown workload '%s' (have:",
                     a.workload.c_str());
        for (const std::string &name : workloadNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, ")\n");
        return 2;
    }

    std::printf("host %s\n", hostFingerprint().c_str());
#ifdef NDEBUG
    std::printf("warning: built with NDEBUG; the model's timing asserts are "
                "compiled out, so this measures a different program than "
                "the tier-1 build\n");
#endif

    const std::string dir = a.work + "/" + a.workload + "-" +
                            std::to_string(static_cast<long>(getpid()));
    int rc = 1;
    try {
        fs::create_directories(dir);
        rc = a.trace ? runTraced(w, a, dir) : runUntraced(w, a, dir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tcmbench: error: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    return rc;
}
