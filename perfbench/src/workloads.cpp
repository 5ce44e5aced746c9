#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "sched/factory.hpp"
#include "sim/results.hpp"
#include "sim/sweepd.hpp"
#include "workload/mixes.hpp"

namespace fs = std::filesystem;
using namespace tcm;

namespace tcmbench {

namespace {

/**
 * Seed the mix compositions are drawn from. The mixes are each
 * workload's fixed composition; --seed varies the address streams and
 * policy randomness of every job. Drawing the compositions from --seed
 * would make the mean slowdowns, and the host cost, differ from seed to
 * seed by more than any regression bound worth having.
 */
constexpr std::uint64_t kMixSeed = 1;

/** Pool size of the grid: every hardware thread, at most four. */
int
gridWorkers()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw, 1, 4);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The jobs of @p w: every scheduler over every mix, scheduler-major
 *  (sim::runMatrix's cell order), job seed baseSeed + mix. */
void
fillJobs(Workload &w)
{
    w.jobs.clear();
    for (const std::string &s : w.schedulers)
        for (std::size_t m = 0; m < w.mixIds.size(); ++m)
            w.jobs.push_back(Job{s, static_cast<int>(m), w.baseSeed + m});
}

} // namespace

std::string
telemetryBytes(const telemetry::TelemetrySink &sink)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    if (!f)
        throw std::runtime_error("open_memstream failed");
    sink.writeJsonl(f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep-grid", "solo-heavy",
                                                   "audit-writes"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    Workload w;
    w.name = name;
    w.baseSeed = seed * 1000;
    w.scale.warmup = 50'000;
    w.scale.measure = 300'000;
    w.scale.workloadsPerCategory = 0;
    if (name == "sweep-grid") {
        // The paper's five schedulers plus BLISS and GHT over random
        // mixes from light (streaming-regime cores) to fully intensive,
        // through sweepd with a warm alone store, as a user runs a grid.
        w.viaSweepd = true;
        w.poolJobs = gridWorkers();
        w.schedulers = {"frfcfs", "stfm", "parbs", "atlas",
                        "tcm",    "bliss", "ght"};
        for (int i = 0; i < 4; ++i)
            for (double x : {0.25, 0.5, 0.75, 1.0})
                w.mixIds.push_back(MixId{x, i});
    } else if (name == "solo-heavy") {
        // Saturated read queues, mostly dormant cores: controller scans,
        // DRAM legality checks, policy ticks and the kernel's stepping.
        w.schedulers = {"frfcfs", "stfm", "parbs", "atlas", "tcm"};
        for (int i = 0; i < 8; ++i)
            w.mixIds.push_back(MixId{1.0, i});
    } else if (name == "audit-writes") {
        // Writes beside reads on a DDR4 bank-group part, with Strict
        // drain, speculative precharge and power-down engaged, audited
        // by the protocol checker and observed by full telemetry.
        w.config.numCores = 8;
        w.config.numChannels = 2;
        w.config.selectProtocol("ddr4-2400");
        w.config.controller.writeDrain.mode = mem::WriteDrainMode::Strict;
        w.config.controller.speculativePrecharge = true;
        w.config.controller.powerDownIdleCycles = 200;
        w.config.protocolCheck = true;
        w.config.telemetry.enabled = true;
        w.writeFraction = 1.0;
        w.schedulers = {"bliss"};
        for (int i = 0; i < 6; ++i)
            for (double x : {0.5, 1.0})
                w.mixIds.push_back(MixId{x, i});
    } else {
        return false;
    }
    w.bare = w.config;
    w.bare.protocolCheck = false;
    w.bare.telemetry.enabled = false;
    fillJobs(w);
    *out = std::move(w);
    return true;
}

std::vector<std::vector<workload::ThreadProfile>>
makeMixes(const Workload &w)
{
    // sweepd's positional mix identity (see sweepd::Manifest), so the
    // manifest projection of any workload names the same mixes.
    std::vector<std::vector<workload::ThreadProfile>> mixes;
    for (const MixId &id : w.mixIds) {
        const std::uint64_t base =
            kMixSeed + static_cast<std::uint64_t>(id.intensity * 1000);
        auto mix = workload::randomMix(
            w.config.numCores, id.intensity,
            base + 1000003ULL * static_cast<std::uint64_t>(id.index + 1));
        if (w.writeFraction >= 0.0)
            for (workload::ThreadProfile &t : mix)
                t.writeFraction = w.writeFraction;
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

std::string
manifestText(const Workload &w)
{
    std::string t = "tcmsim-manifest v1\n";
    t += "cores " + std::to_string(w.config.numCores) + "\n";
    t += "channels " + std::to_string(w.config.numChannels) + "\n";
    t += "warmup " + std::to_string(w.scale.warmup) + "\n";
    t += "cycles " + std::to_string(w.scale.measure) + "\n";
    t += "workload-seed " + std::to_string(kMixSeed) + "\n";
    for (const Job &j : w.jobs) {
        const MixId &id = w.mixIds[static_cast<std::size_t>(j.mix)];
        t += "job " + j.scheduler + " " + w.config.protocol + " " +
             formatDouble(id.intensity) + " " + std::to_string(id.index) +
             " " + std::to_string(j.seed) + "\n";
    }
    return t;
}

sim::SystemConfig
manifestConfig(const Workload &w)
{
    sim::SystemConfig c;
    c.numCores = w.config.numCores;
    c.numChannels = w.config.numChannels;
    c.selectProtocol(w.config.protocol);
    return c;
}

JobOutput
outputOf(const std::string &scheduler, const sim::RunResult &r,
         bool withThreads)
{
    JobOutput o;
    o.ws = r.metrics.weightedSpeedup;
    o.ms = r.metrics.maxSlowdown;
    o.text = scheduler + " ws=" + formatDouble(o.ws) +
             " ms=" + formatDouble(o.ms) +
             " hs=" + formatDouble(r.metrics.harmonicSpeedup);
    if (withThreads) {
        o.text += " ipc=";
        for (double v : r.ipcShared)
            o.text += formatDouble(v) + ",";
        o.text += " alone=";
        for (double v : r.ipcAlone)
            o.text += formatDouble(v) + ",";
        o.text += " violations=" + std::to_string(r.protocolViolations);
        if (r.telemetry) {
            char hex[32];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(
                              fnv1a64(telemetryBytes(*r.telemetry))));
            o.text += std::string(" telemetry=") + hex;
        }
    }
    o.ok = std::isfinite(o.ws) && o.ws > 0.0 && std::isfinite(o.ms) &&
           o.ms > 0.0 && r.protocolViolations == 0;
    if (r.protocolViolations != 0)
        o.error = "protocol violations:\n" + r.protocolReport;
    else if (!o.ok)
        o.error = "non-finite or non-positive metric: " + o.text;
    return o;
}

Prepared
setUp(const Workload &w, const std::string &dir, SpanRecorder &spans,
      int parent)
{
    Prepared p;
    fs::create_directories(dir);
    {
        ScopedSpan s(spans, "workload.mixes", parent);
        p.mixes = makeMixes(w);
    }
    if (w.viaSweepd) {
        ScopedSpan s(spans, "sim.sweepd.parse", parent);
        const std::string text = manifestText(w);
        sim::sweepd::Manifest m;
        std::string err;
        if (!sim::sweepd::Manifest::parse(text, &m, &err))
            throw std::runtime_error("benchmark manifest rejected: " + err);
        p.manifestPath = dir + "/grid.manifest";
        writeFile(p.manifestPath, text);
    }
    p.cache = std::make_unique<sim::AloneIpcCache>(
        w.config, w.scale.effectiveWarmup(), w.scale.effectiveMeasure());
    {
        ThreadPool pool(w.poolJobs);
        ScopedSpan s(spans, "sim.alone_cache.prewarm", parent);
        p.cache->prewarm(p.mixes, pool);
    }
    if (w.viaSweepd) {
        // The daemon looks its store up by configuration fingerprint.
        ScopedSpan s(spans, "sim.alone_cache.save", parent);
        p.stateDir = dir + "/state";
        fs::create_directories(p.stateDir);
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          p.cache->fingerprint()));
        p.cache->saveToFile(p.stateDir + "/alone-" + hex + ".cache");
    }
    return p;
}

namespace {

/** Parse a sweepd stream into per-job outputs (manifest order). */
std::vector<JobOutput>
outputsOfStream(const Workload &w, const std::string &stream)
{
    std::vector<JobOutput> out(w.jobs.size());
    std::istringstream in(stream);
    std::string line;
    std::size_t k = 0;
    while (std::getline(in, line) && k < out.size()) {
        JobOutput &o = out[k];
        const Job &job = w.jobs[k++];
        try {
            sim::results::ResultsDoc doc =
                sim::results::ResultsDoc::fromJson(line);
            const double *ws = doc.rows.size() == 1
                                   ? doc.rows[0].find("ws")
                                   : nullptr;
            const double *ms = ws ? doc.rows[0].find("ms") : nullptr;
            const double *hs = ws ? doc.rows[0].find("hs") : nullptr;
            if (!ws || !ms || !hs || doc.rows[0].series != job.scheduler) {
                o.error = "record does not match its job: " + line;
                continue;
            }
            sim::RunResult r;
            r.metrics.weightedSpeedup = *ws;
            r.metrics.maxSlowdown = *ms;
            r.metrics.harmonicSpeedup = *hs;
            o = outputOf(job.scheduler, r, false);
        } catch (const std::exception &e) {
            o.error = std::string("unparsable record: ") + e.what();
        }
    }
    for (; k < out.size(); ++k)
        out[k].error = "record missing from the stream";
    return out;
}

} // namespace

PassResult
runPass(const Workload &w, Prepared &p, const std::string &outPath,
        SpanRecorder &spans, int parent)
{
    PassResult pass;
    if (w.viaSweepd) {
        sim::sweepd::Server::Options opt;
        opt.stateDir = p.stateDir;
        opt.jobs = w.poolJobs;
        sim::sweepd::Server server(opt);
        ScopedSpan s(spans, "sim.sweepd.run_manifest", parent);
        sim::sweepd::RunOutcome o = server.runManifest(p.manifestPath,
                                                       outPath);
        pass.seconds = s.stop();
        pass.stream = readFile(outPath);
        for (const char *suffix : {"", ".ckpt", ".summary.json"})
            fs::remove(outPath + suffix);
        if (!o.ok || !o.finished) {
            pass.outputs.assign(w.jobs.size(), JobOutput{});
            for (JobOutput &out : pass.outputs)
                out.error = "sweepd run failed: " + o.error;
            return pass;
        }
        pass.outputs = outputsOfStream(w, pass.stream);
        return pass;
    }

    ScopedSpan s(spans, "workload.pass", parent);
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        const Job &job = w.jobs[j];
        ScopedSpan js(spans, "sim.run_workload", s.id(), static_cast<int>(j));
        sim::RunResult r = sim::runWorkload(
            w.config, p.mixes[static_cast<std::size_t>(job.mix)],
            sched::specByName(job.scheduler).spec, w.scale, *p.cache,
            job.seed);
        js.stop();
        pass.outputs.push_back(outputOf(job.scheduler, r, true));
    }
    pass.seconds = s.stop();
    return pass;
}

JobOutput
runOracle(const Workload &w, Prepared &p, std::size_t j)
{
    const Job &job = w.jobs[j];
    sim::SystemConfig c = w.config;
    c.cycleSkip = false;
    sim::RunResult r = sim::runWorkload(
        c, p.mixes[static_cast<std::size_t>(job.mix)],
        sched::specByName(job.scheduler).spec, w.scale, *p.cache, job.seed);
    return outputOf(job.scheduler, r, !w.viaSweepd);
}

std::uint64_t
digestOf(const std::vector<JobOutput> &outputs)
{
    std::string all;
    for (const JobOutput &o : outputs)
        all += o.text + "\n";
    return fnv1a64(all);
}

} // namespace tcmbench
