/**
 * @file
 * The traced run: per-layer metrics of one workload.
 *
 * Counts (profiler counters, command totals, cache hits, telemetry
 * records) are deterministic and repeat exactly at a seed. Timings are
 * taken with the profiler detached. Per-call timings (*.tick_ns) include
 * the cost of one timed region, which the spans file header records as
 * timer_ns: calls that cheap cannot be timed one by one any closer.
 *
 * Layer replays are fed the workload's own traffic: the same mixes'
 * synthetic streams drive standalone controllers and policies
 * (replayTraffic), and the command stream those controllers issue is
 * replayed through a fresh dram::Channel and a dram::ProtocolChecker.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "common/numfmt.hpp"
#include "common/thread_pool.hpp"
#include "dram/channel.hpp"
#include "dram/observer.hpp"
#include "dram/protocol_checker.hpp"
#include "mem/controller.hpp"
#include "prof/profiler.hpp"
#include "sched/factory.hpp"
#include "sim/results.hpp"
#include "sim/sweepd.hpp"
#include "workload/synthetic_trace.hpp"

namespace fs = std::filesystem;
using namespace tcm;

namespace tcmbench {

namespace {

/** Every policy the per-policy tick metrics cover. */
const std::vector<std::string> kTickPolicies = {"tcm",    "atlas", "stfm",
                                                "parbs",  "frfcfs", "bliss",
                                                "ght"};

/** The standalone replays run the first kReplayMixes mixes of the
 *  workload (one per intensity on sweep-grid) for kReplayCycles each:
 *  long enough for two ATLAS quanta and one STFM interval at the
 *  workload's run length, so every policy's timed work shows. */
constexpr std::size_t kReplayMixes = 4;
constexpr Cycle kReplayCycles = 60'000;

/** Reads a replayed thread keeps in flight at most (a 128-entry window
 *  holds about this many misses of an intensive thread). */
constexpr int kReplayOutstanding = 16;

/** SyntheticTrace::next calls timed per thread of every mix. */
constexpr int kTraceItems = 20'000;

/** toJsonLine calls timed per record. */
constexpr int kJsonReps = 200;

/** Job seconds each observer variant accumulates at least, in whole
 *  passes over the job list (at most kMaxObserverRounds). */
constexpr double kObserverJobSeconds = 4.0;
constexpr int kMaxObserverRounds = 8;

/** Repetitions of each short timed replay; the median one is reported. */
constexpr int kTimingReps = 5;

/** Median seconds of kTimingReps spans named @p name, each running
 *  @p body (told whether it is the first repetition). */
template <typename Body>
double
medianSeconds(SpanRecorder &spans, const std::string &name, int parent,
              Body &&body)
{
    std::vector<double> reps;
    for (int rep = 0; rep < kTimingReps; ++rep) {
        ScopedSpan span(spans, name, parent);
        body(rep == 0);
        reps.push_back(span.stop());
    }
    return quantile(reps, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
commandsOf(const mem::ControllerStats &s)
{
    return s.activates + s.precharges + s.readsServiced + s.writesServiced +
           s.refreshes + s.powerDowns + s.powerUps +
           s.speculativePrecharges;
}

/** Simulated outputs a pure observer must leave bit-identical. */
std::string
purityKey(const sim::RunResult &r)
{
    std::string k = formatDouble(r.metrics.weightedSpeedup) + " " +
                    formatDouble(r.metrics.maxSlowdown) + " " +
                    formatDouble(r.metrics.harmonicSpeedup);
    for (double v : r.ipcShared)
        k += " " + formatDouble(v);
    return k;
}

/** Parse one CommandTraceRecorder line back into an event. */
bool
parseCommandLine(const std::string &line, dram::CommandEvent *ev)
{
    unsigned long long cycle = 0;
    int ch = 0, rank = 0, bank = 0;
    char kind[8] = {0}, row[24] = {0};
    if (std::sscanf(line.c_str(), "%llu ch%d rk%d b%d %7s %23s", &cycle, &ch,
                    &rank, &bank, kind, row) != 6)
        return false;
    static const std::pair<const char *, dram::CommandKind> names[] = {
        {"ACT", dram::CommandKind::Activate},
        {"RD", dram::CommandKind::Read},
        {"WR", dram::CommandKind::Write},
        {"PRE", dram::CommandKind::Precharge},
        {"REF", dram::CommandKind::Refresh},
        {"PDE", dram::CommandKind::PowerDown},
        {"PDX", dram::CommandKind::PowerUp},
        {"APR", dram::CommandKind::Precharge},
    };
    bool known = false;
    for (const auto &[name, k] : names)
        if (std::string(kind) == name) {
            ev->kind = k;
            known = true;
        }
    if (!known)
        return false;
    ev->cycle = static_cast<Cycle>(cycle);
    ev->channel = ch;
    ev->rank = rank;
    ev->bank = bank;
    ev->autoPre = std::string(kind) == "APR";
    ev->row = std::string(row) == "-" ? kNoRow : std::atoi(row);
    return true;
}

/** What one standalone controller replay of one mix produced. */
struct TrafficRun
{
    mem::ControllerStats stats;  //!< summed over channels
    stats::Histogram latency = mem::LatencyTracker().histogram();
    prof::ScanCounters scan;     //!< counting replay only
    std::uint64_t rankEpochs = 0;
    std::uint64_t ctrlTicks = 0;
    std::int64_t ctrlTickNs = 0; //!< timing replay only
    std::uint64_t policyTicks = 0;
    std::int64_t policyTickNs = 0;
    std::vector<dram::CommandEvent> events; //!< counting replay only
};

/**
 * Drive standalone controllers and a @p scheduler policy for @p cycles
 * with @p mix's own synthetic streams: each thread submits its next
 * access once its instruction gap has elapsed at the core's fetch width,
 * keeping at most kReplayOutstanding reads in flight. The counting
 * replay (@p timed false) records the command stream and scan counters;
 * the timing replay attaches nothing and times every tick instead.
 */
TrafficRun
replayTraffic(const Workload &w, const std::vector<workload::ThreadProfile> &mix,
              const std::string &scheduler, std::uint64_t seed, Cycle cycles,
              bool timed)
{
    const sim::SystemConfig &cfg = w.bare;
    const int threads = static_cast<int>(mix.size());
    const int channels = cfg.numChannels;

    sched::SchedulerSpec spec = sched::specByName(scheduler).spec;
    spec.scaleToRun(w.scale.measure);
    std::unique_ptr<mem::SchedulerPolicy> policy =
        sched::makeScheduler(spec, seed);
    policy->configure(threads, channels, cfg.timing.banksPerChannel);
    std::vector<mem::CoreCounters> counters(threads);
    policy->setCoreCounters(&counters);

    mem::ControllerParams params = cfg.controller;
    if (policy->prefersClosedPage())
        params.pagePolicy = mem::PagePolicy::Closed;
    std::vector<std::unique_ptr<mem::MemoryController>> mcs;
    std::vector<prof::ControllerShard> shards(channels);
    dram::CommandTraceRecorder recorder;
    for (ChannelId ch = 0; ch < channels; ++ch) {
        mcs.push_back(std::make_unique<mem::MemoryController>(
            ch, cfg.timing, params, *policy));
        policy->attachQueue(ch, mcs.back().get());
        if (!timed) {
            mcs.back()->addCommandObserver(&recorder);
            mcs.back()->setProfile(&shards[ch]);
        }
    }

    struct Feed
    {
        workload::SyntheticTrace trace;
        core::TraceItem item;
        Cycle readyAt = 0;
        int outstanding = 0;
        std::uint64_t missId = 0;
    };
    const int width = cfg.core.fetchWidth;
    std::vector<Feed> feeds;
    feeds.reserve(mix.size());
    for (int t = 0; t < threads; ++t) {
        feeds.push_back(Feed{workload::SyntheticTrace(
                                 mix[t], cfg.geometry(),
                                 seed * 1000003ULL + static_cast<unsigned>(t)),
                             {}, 0, 0, 0});
        Feed &f = feeds.back();
        f.item = f.trace.next();
        f.readyAt = (f.item.gap + width - 1) / width;
    }

    TrafficRun run;
    std::uint64_t lastEpoch = policy->rankEpoch();
    for (Cycle now = 0; now < cycles; ++now) {
        if (timed) {
            const auto t0 = Clock::now();
            policy->tick(now);
            run.policyTickNs += std::chrono::duration_cast<
                std::chrono::nanoseconds>(Clock::now() - t0).count();
        } else {
            policy->tick(now);
        }
        ++run.policyTicks;
        for (auto &mc : mcs) {
            if (timed) {
                const auto t0 = Clock::now();
                mc->tick(now);
                run.ctrlTickNs += std::chrono::duration_cast<
                    std::chrono::nanoseconds>(Clock::now() - t0).count();
            } else {
                mc->tick(now);
            }
            ++run.ctrlTicks;
            for (const auto &c : mc->completions())
                --feeds[c.thread].outstanding;
            mc->completions().clear();
        }
        const std::uint64_t epoch = policy->rankEpoch();
        if (epoch != lastEpoch) {
            run.rankEpochs += epoch - lastEpoch;
            lastEpoch = epoch;
        }
        for (int t = 0; t < threads; ++t) {
            Feed &f = feeds[t];
            if (now < f.readyAt)
                continue;
            const core::MemAccess &acc = f.item.access;
            mem::MemoryController &mc = *mcs[acc.channel];
            if (acc.isWrite) {
                if (!mc.canAcceptWrite())
                    continue;
                mc.submitWrite(t, acc.bank, acc.row, acc.col, now);
                counters[t].instructions += f.item.gap;
            } else {
                if (f.outstanding >= kReplayOutstanding ||
                    !mc.canAcceptRead())
                    continue;
                mc.submitRead(t, f.missId++, acc.bank, acc.row, acc.col,
                              now);
                ++f.outstanding;
                counters[t].instructions += f.item.gap + 1;
                ++counters[t].readMisses;
            }
            f.item = f.trace.next();
            f.readyAt = now + 1 + (f.item.gap + width - 1) / width;
        }
    }

    for (ChannelId ch = 0; ch < channels; ++ch) {
        const mem::ControllerStats &s = mcs[ch]->stats();
        run.stats.readsServiced += s.readsServiced;
        run.stats.writesServiced += s.writesServiced;
        run.stats.activates += s.activates;
        run.stats.precharges += s.precharges;
        run.stats.refreshes += s.refreshes;
        run.stats.rowHits += s.rowHits;
        run.stats.rowMisses += s.rowMisses;
        run.stats.writeDrains += s.writeDrains;
        run.stats.speculativePrecharges += s.speculativePrecharges;
        run.stats.powerDowns += s.powerDowns;
        run.stats.powerUps += s.powerUps;
        run.latency.merge(mcs[ch]->latency().histogram());
        run.scan.addFrom(shards[ch].scan);
    }
    for (const std::string &line : recorder.lines()) {
        dram::CommandEvent ev;
        if (!parseCommandLine(line, &ev))
            throw std::runtime_error("unparsable command line: " + line);
        run.events.push_back(ev);
    }
    return run;
}

/** Replay a command stream through fresh Channels; returns false on the
 *  first command the fresh channel refuses. */
bool
replayChannels(const sim::SystemConfig &cfg,
               const std::vector<dram::CommandEvent> &events,
               std::string *error)
{
    std::vector<dram::Channel> chans;
    for (ChannelId ch = 0; ch < cfg.numChannels; ++ch)
        chans.emplace_back(cfg.timing, ch);
    for (const dram::CommandEvent &ev : events) {
        dram::Channel &c = chans[static_cast<std::size_t>(ev.channel)];
        if (ev.autoPre) {
            c.autoPrecharge(ev.bank);
            continue;
        }
        if (!c.canIssue(ev.kind, ev.bank, ev.cycle)) {
            *error = "fresh channel refuses " + dram::formatCommandEvent(ev);
            return false;
        }
        c.issue(ev.kind, ev.bank, ev.row, ev.cycle);
    }
    return true;
}

/** Audit a command stream with a fresh ProtocolChecker. */
std::uint64_t
replayChecker(const sim::SystemConfig &cfg,
              const std::vector<dram::CommandEvent> &events, Cycle end,
              std::string *report)
{
    dram::ProtocolChecker checker(cfg.timing);
    for (ChannelId ch = 0; ch < cfg.numChannels; ++ch)
        checker.observeChannel(ch);
    for (const dram::CommandEvent &ev : events)
        checker.onCommand(ev);
    checker.finalize(end);
    if (checker.violationCount() != 0)
        *report = checker.report();
    return checker.violationCount();
}

} // namespace

LayerResult
measureLayers(const Workload &w, const std::string &dir, SpanRecorder &spans)
{
    LayerResult L;
    auto &M = L.metrics;
    auto check = [&](bool ok, const std::string &what) {
        ++L.attempted;
        if (!ok) {
            ++L.failed;
            L.errors.push_back(what);
        }
    };
    const int root = spans.open("trace." + w.name);
    const std::size_t n = w.jobs.size();
    const double jobKcycles = w.cyclesPerJob() / 1000.0;

    // -- set-up: mixes, prewarm, alone store round trip, manifest parse --
    Prepared p = setUp(w, dir + "/setup", spans, root);
    M["sim.alone_cache.prewarm_s"] =
        spans.named("sim.alone_cache.prewarm").back().seconds();
    {
        const std::string path = dir + "/alone.cache";
        ScopedSpan save(spans, "sim.alone_cache.save", root);
        p.cache->saveToFile(path);
        M["sim.alone_cache.save_ms"] = save.stop() * 1e3;
        sim::AloneIpcCache fresh(w.config, w.scale.effectiveWarmup(),
                                 w.scale.effectiveMeasure());
        ScopedSpan load(spans, "sim.alone_cache.load", root);
        sim::AloneIpcCache::LoadResult lr = fresh.loadFromFile(path);
        M["sim.alone_cache.load_ms"] = load.stop() * 1e3;
        check(lr.ok && lr.loaded == p.cache->size(),
              "alone store round trip: " + lr.message);
    }
    const std::string manifest = manifestText(w);
    {
        ScopedSpan s(spans, "sim.sweepd.parse", root);
        sim::sweepd::Manifest m;
        std::string err;
        const bool ok = sim::sweepd::Manifest::parse(manifest, &m, &err);
        M["sim.sweepd.parse_ms"] = s.stop() * 1e3;
        check(ok && m.jobs.size() == n, "manifest parse: " + err);
    }

    // -- passes over the job list on a benchmark-owned pool ---------------
    struct Pass
    {
        double seconds = 0.0;
        int span = -1;
        std::vector<sim::RunResult> results;
    };
    auto runJobs = [&](const sim::SystemConfig &cfg, int workers,
                       const std::string &label) {
        Pass pass;
        pass.results.resize(n);
        ThreadPool pool(workers);
        ScopedSpan s(spans, label, root);
        pass.span = s.id();
        pool.parallelFor(n, [&](std::size_t j) {
            const Job &job = w.jobs[j];
            ScopedSpan js(spans, "sim.run_workload", s.id(),
                          static_cast<int>(j));
            pass.results[j] = sim::runWorkload(
                cfg, p.mixes[static_cast<std::size_t>(job.mix)],
                sched::specByName(job.scheduler).spec, w.scale, *p.cache,
                job.seed);
        });
        pass.seconds = s.stop();
        return pass;
    };

    const int workers = w.poolJobs;
    const std::uint64_t hits0 = p.cache->hits();
    const std::uint64_t lookups0 = p.cache->lookups();
    Pass bare = runJobs(w.bare, workers, "pass.bare");
    if (!w.viaSweepd)
        M["sim.alone_cache.hit_rate"] =
            ratio(static_cast<double>(p.cache->hits() - hits0),
                  static_cast<double>(p.cache->lookups() - lookups0));
    {
        std::vector<double> jobSeconds;
        double busy = 0.0;
        for (const Span &s : spans.named("sim.run_workload"))
            if (s.parent == bare.span) {
                jobSeconds.push_back(s.seconds());
                busy += s.seconds();
            }
        M["sim.job_s_p50"] = quantile(jobSeconds, 0.5);
        M["sim.job_s_p90"] = quantile(jobSeconds, 0.9);
        M["common.pool_idle_frac"] =
            1.0 - ratio(busy, workers * bare.seconds);
    }
    for (std::size_t j = 0; j < n; ++j)
        check(outputOf(w.jobs[j].scheduler, bare.results[j], false).ok,
              "bare job " + std::to_string(j) + " gave invalid metrics");

    const double jobsAtN = static_cast<double>(n) / bare.seconds;
    double jobsAt1 = jobsAtN;
    if (workers > 1)
        jobsAt1 = static_cast<double>(n) /
                  runJobs(w.bare, 1, "pass.one_worker").seconds;
    M["common.pool_efficiency"] = jobsAtN / (workers * jobsAt1);

    // Observer costs: each job runs bare and under every observer back to
    // back on one worker, in alternating order, so drifts in host speed
    // hit both sides of each ratio alike. Short job lists run several
    // rounds so each side sums enough job time.
    enum Variant { kBare, kProfiled, kChecker, kTelemetry, kVariants };
    const char *const variantNames[kVariants] = {"bare", "profiled",
                                                 "checker", "telemetry"};
    std::array<sim::SystemConfig, kVariants> cfgs = {w.bare, w.bare, w.bare,
                                                     w.bare};
    cfgs[kProfiled].profile.enabled = true;
    cfgs[kChecker].protocolCheck = true;
    cfgs[kTelemetry].telemetry.enabled = true;
    std::array<std::vector<sim::RunResult>, kVariants> obs;
    std::array<std::vector<double>, kVariants> obsSeconds;
    for (int v = 0; v < kVariants; ++v) {
        obs[v].resize(n);
        obsSeconds[v].resize(n);
    }
    const int rounds = std::clamp(
        static_cast<int>(std::ceil(kObserverJobSeconds /
                                   (bare.seconds * workers))),
        1, kMaxObserverRounds);
    for (int round = 0; round < rounds; ++round) {
        ThreadPool pool(workers);
        ScopedSpan s(spans, "pass.observers", root);
        pool.parallelFor(n, [&](std::size_t j) {
            const Job &job = w.jobs[j];
            for (int k = 0; k < kVariants; ++k) {
                const int v = (j + round) % 2 ? kVariants - 1 - k : k;
                ScopedSpan js(spans,
                              std::string("sim.run_workload.") +
                                  variantNames[v],
                              s.id(), static_cast<int>(j));
                obs[v][j] = sim::runWorkload(
                    cfgs[v], p.mixes[static_cast<std::size_t>(job.mix)],
                    sched::specByName(job.scheduler).spec, w.scale,
                    *p.cache, job.seed);
                obsSeconds[v][j] += js.stop();
            }
        });
    }
    auto overhead = [&](int v) {
        double observed = 0.0, plain = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            observed += obsSeconds[v][j];
            plain += obsSeconds[kBare][j];
        }
        return observed / plain - 1.0;
    };
    M["prof.overhead_frac"] = overhead(kProfiled);
    M["dram.checker_overhead_frac"] = overhead(kChecker);
    M["telemetry.overhead_frac"] = overhead(kTelemetry);
    const std::vector<sim::RunResult> &prof = obs[kProfiled];
    const std::vector<sim::RunResult> &tel = obs[kTelemetry];

    // Observers are pure: every observed run reproduces the bare one.
    for (std::size_t j = 0; j < n; ++j) {
        const std::string key = purityKey(bare.results[j]);
        const std::string tag = " job " + std::to_string(j);
        for (int v = 0; v < kVariants; ++v)
            check(purityKey(obs[v][j]) == key,
                  std::string(variantNames[v]) + " run changed" + tag);
        check(obs[kChecker][j].protocolViolations == 0,
              "protocol violations in" + tag + ":\n" +
                  obs[kChecker][j].protocolReport);
    }

    // Kernel, core and scan counters from the profiled pass.
    {
        prof::ProfileReport r;
        for (const sim::RunResult &res : prof)
            if (res.profile)
                r.merge(*res.profile);
        check(r.runs == static_cast<int>(n), "profile missing from a job");
        const double kcycles = jobKcycles * static_cast<double>(n);
        const double steps = static_cast<double>(
            r.phaseCalls[static_cast<int>(prof::Phase::SchedTick)]);
        M["sim.steps_per_kcycle"] = steps / kcycles;
        M["sim.ctrl_ticks_per_step"] = ratio(
            static_cast<double>(
                r.phaseCalls[static_cast<int>(prof::Phase::CtrlTick)]),
            steps);
        M["sim.skip_len_p50"] = r.skipLengths.percentile(0.5);
        M["sim.skip_len_p99"] = r.skipLengths.percentile(0.99);
        const double skips = static_cast<double>(r.totalSkips());
        auto share = [&](prof::HorizonSource s) {
            return ratio(static_cast<double>(r.skipCount[static_cast<int>(s)]),
                         skips);
        };
        M["sim.horizon_share.scheduler"] = share(prof::HorizonSource::Scheduler);
        M["sim.horizon_share.controller"] =
            share(prof::HorizonSource::Controller);
        M["sim.horizon_share.core"] = share(prof::HorizonSource::Core);
        M["sim.horizon_share.telemetry"] = share(prof::HorizonSource::Telemetry);
        const double dormant =
            static_cast<double>(r.regimeTotal(prof::Regime::Dormant));
        const double streaming =
            static_cast<double>(r.regimeTotal(prof::Regime::Streaming));
        const double lockstep =
            static_cast<double>(r.regimeTotal(prof::Regime::Lockstep));
        const double coreCycles = dormant + streaming + lockstep;
        M["core.dormant_frac"] = ratio(dormant, coreCycles);
        M["core.streaming_frac"] = ratio(streaming, coreCycles);
        M["core.lockstep_frac"] = ratio(lockstep, coreCycles);
        const double scans =
            static_cast<double>(r.scan.soaScans + r.scan.fallbackScans);
        M["mem.scans_per_kcycle"] = scans / kcycles;
        M["mem.reads_examined_per_scan"] =
            ratio(static_cast<double>(r.scan.readsExamined),
                  static_cast<double>(r.scan.soaScans));
        M["mem.dominance_skip_frac"] = ratio(
            static_cast<double>(r.scan.dominanceSkipped),
            static_cast<double>(r.scan.readsExamined + r.scan.dominanceSkipped));
    }

    // Telemetry volume from the telemetry pass.
    {
        double records = 0.0, bytes = 0.0;
        for (const sim::RunResult &res : tel) {
            if (!res.telemetry)
                continue;
            records += static_cast<double>(res.telemetry->totalRecords());
            bytes += static_cast<double>(telemetryBytes(*res.telemetry).size());
        }
        const double kcycles = jobKcycles * static_cast<double>(n);
        M["telemetry.events_per_kcycle"] = records / kcycles;
        M["telemetry.bytes_per_kcycle"] = bytes / kcycles;
    }

    // -- sweepd vs runMatrix over the same jobs and pool size -------------
    {
        const sim::SystemConfig mcfg = manifestConfig(w);
        Workload proj = w;
        proj.writeFraction = -1.0;
        const auto projMixes = makeMixes(proj);
        const std::string state = dir + "/sweepd";
        fs::create_directories(state);
        sim::AloneIpcCache cache(mcfg, w.scale.effectiveWarmup(),
                                 w.scale.effectiveMeasure());
        {
            ThreadPool pool(workers);
            cache.prewarm(projMixes, pool);
        }
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(cache.fingerprint()));
        cache.saveToFile(state + "/alone-" + hex + ".cache");
        const std::string manifestPath = state + "/jobs.manifest";
        writeFile(manifestPath, manifest);
        std::vector<sched::SchedulerSpec> specs;
        for (const std::string &s : w.schedulers)
            specs.push_back(sched::specByName(s).spec);

        // Timed in the order matrix, manifest, manifest, matrix, so a
        // drift in host speed weighs on both sides alike.
        auto timeMatrix = [&] {
            ScopedSpan ms(spans, "sim.run_matrix", root);
            auto r = sim::runMatrix(mcfg, projMixes, specs, w.scale, cache,
                                    w.baseSeed, workers);
            return std::make_pair(ms.stop(), std::move(r));
        };
        sim::sweepd::Server::Options opt;
        opt.stateDir = state;
        opt.jobs = workers;
        sim::sweepd::Server server(opt);
        sim::sweepd::RunOutcome o;
        auto timeManifest = [&](const std::string &out) {
            ScopedSpan ds(spans, "sim.sweepd.run_manifest", root);
            o = server.runManifest(manifestPath, out);
            check(o.ok && o.finished && o.emitted == n,
                  "sweepd run of the manifest projection: " + o.error);
            return ds.stop();
        };
        const std::string outPath = state + "/jobs.jsonl";
        auto [matrixSeconds, matrix] = timeMatrix();
        double manifestSeconds = timeManifest(outPath);
        manifestSeconds += timeManifest(state + "/again.jsonl");
        matrixSeconds += timeMatrix().first;
        M["sim.sweepd.overhead_frac"] = manifestSeconds / matrixSeconds - 1.0;
        if (w.viaSweepd)
            M["sim.alone_cache.hit_rate"] =
                ratio(static_cast<double>(o.cacheHits),
                      static_cast<double>(o.cacheHits + o.cacheMisses));

        // Stream records must equal runMatrix's results job for job.
        std::ifstream in(outPath);
        std::string line;
        std::size_t j = 0;
        std::int64_t jsonNs = 0;
        const auto jsonStart = Clock::now();
        while (std::getline(in, line) && j < n) {
            const std::size_t s = j / w.mixIds.size();
            const std::size_t m = j % w.mixIds.size();
            const sim::RunResult &r = matrix[s][m];
            sim::results::ResultsDoc doc =
                sim::results::ResultsDoc::fromJson(line);
            const double *ws = doc.rows.empty() ? nullptr
                                                : doc.rows[0].find("ws");
            check(ws && *ws == r.metrics.weightedSpeedup,
                  "sweepd record " + std::to_string(j) +
                      " differs from runMatrix");
            const auto t0 = Clock::now();
            std::size_t sink = 0;
            for (int rep = 0; rep < kJsonReps; ++rep)
                sink += doc.toJsonLine().size();
            jsonNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
            check(sink == static_cast<std::size_t>(kJsonReps) *
                              (line.size() + 1),
                  "toJsonLine does not reproduce record " +
                      std::to_string(j));
            ++j;
        }
        spans.addAggregate("sim.results.to_json_line", root, jsonStart,
                           Clock::now(), j * kJsonReps, jsonNs);
        check(j == n, "sweepd stream is short");
        M["sim.results.json_line_us"] =
            ratio(static_cast<double>(jsonNs) * 1e-3,
                  static_cast<double>(j * kJsonReps));
    }

    // -- standalone controller + policy replays of the workload's traffic -
    {
        const std::size_t replayMixes = std::min(kReplayMixes, p.mixes.size());
        mem::ControllerStats total;
        stats::Histogram latency = mem::LatencyTracker().histogram();
        prof::ScanCounters scan;
        std::uint64_t commandsIssued = 0, rankEpochs = 0, ctrlTicks = 0;
        std::int64_t ctrlNs = 0;
        double replayKcycles = 0.0;
        std::vector<std::vector<dram::CommandEvent>> streams;
        const auto replayStart = Clock::now();
        for (const std::string &name : kTickPolicies) {
            std::uint64_t policyTicks = 0;
            std::int64_t policyNs = 0;
            const auto start = Clock::now();
            for (std::size_t m = 0; m < replayMixes; ++m) {
                const std::uint64_t seed = w.baseSeed + m;
                TrafficRun counted = replayTraffic(w, p.mixes[m], name, seed,
                                                   kReplayCycles, false);
                TrafficRun timed = replayTraffic(w, p.mixes[m], name, seed,
                                                 kReplayCycles, true);
                check(commandsOf(counted.stats) == commandsOf(timed.stats) &&
                          counted.stats.rowHits == timed.stats.rowHits &&
                          counted.rankEpochs == timed.rankEpochs,
                      "observers changed the " + name + " replay");
                total.rowHits += counted.stats.rowHits;
                total.rowMisses += counted.stats.rowMisses;
                total.writeDrains += counted.stats.writeDrains;
                total.powerDowns += counted.stats.powerDowns;
                commandsIssued += commandsOf(counted.stats);
                latency.merge(counted.latency);
                scan.addFrom(counted.scan);
                rankEpochs += counted.rankEpochs;
                replayKcycles += static_cast<double>(kReplayCycles) / 1000.0;
                ctrlTicks += timed.ctrlTicks;
                ctrlNs += timed.ctrlTickNs;
                policyTicks += timed.policyTicks;
                policyNs += timed.policyTickNs;
                streams.push_back(std::move(counted.events));
            }
            spans.addAggregate("sched." + name + ".tick", root, start,
                               Clock::now(), policyTicks, policyNs);
            M["sched." + name + ".tick_ns"] =
                ratio(static_cast<double>(policyNs), policyTicks);
        }
        spans.addAggregate("mem.ctrl_tick", root, replayStart, Clock::now(),
                           ctrlTicks, ctrlNs);
        M["mem.ctrl_tick_ns"] = ratio(static_cast<double>(ctrlNs), ctrlTicks);
        const double commands = static_cast<double>(commandsIssued);
        M["mem.scan_issue_ratio"] = ratio(
            commands,
            static_cast<double>(scan.soaScans + scan.fallbackScans));
        M["mem.write_drains_per_kcycle"] =
            static_cast<double>(total.writeDrains) / replayKcycles;
        M["mem.row_hit_rate"] =
            ratio(static_cast<double>(total.rowHits),
                  static_cast<double>(total.rowHits + total.rowMisses));
        M["mem.read_latency_p99"] = latency.percentile(0.99);
        M["dram.cmds_per_kcycle"] = commands / replayKcycles;
        M["dram.powerdowns_per_kcycle"] =
            static_cast<double>(total.powerDowns) / replayKcycles;
        M["sched.rank_epochs_per_kcycle"] =
            static_cast<double>(rankEpochs) / replayKcycles;

        // The recorded command streams, through a fresh Channel and a
        // fresh ProtocolChecker.
        std::size_t cmds = 0;
        for (const auto &events : streams)
            cmds += events.size();
        auto replayAll = [&](bool first) {
            for (const auto &events : streams) {
                std::string err;
                const bool ok = replayChannels(w.bare, events, &err);
                if (first)
                    check(ok, err);
            }
        };
        auto auditAll = [&](bool first) {
            for (const auto &events : streams) {
                std::string report;
                const bool ok =
                    replayChecker(w.bare, events, kReplayCycles, &report) == 0;
                if (first)
                    check(ok, "checker flags the replayed stream:\n" + report);
            }
        };
        M["dram.channel_ns_per_cmd"] = ratio(
            medianSeconds(spans, "dram.channel_replay", root, replayAll) * 1e9,
            static_cast<double>(cmds));
        M["dram.checker_ns_per_cmd"] = ratio(
            medianSeconds(spans, "dram.checker_replay", root, auditAll) * 1e9,
            static_cast<double>(cmds));
    }

    // -- SyntheticTrace::next over the workload's profiles ----------------
    {
        std::uint64_t items = 0, sink = 0;
        auto generateAll = [&](bool first) {
            for (std::size_t m = 0; m < p.mixes.size(); ++m)
                for (std::size_t t = 0; t < p.mixes[m].size(); ++t) {
                    workload::SyntheticTrace trace(p.mixes[m][t],
                                                   w.bare.geometry(),
                                                   w.baseSeed + m * 1000 + t);
                    for (int i = 0; i < kTraceItems; ++i)
                        sink += trace.next().gap;
                    if (first)
                        items += kTraceItems;
                }
        };
        const double traceSeconds =
            medianSeconds(spans, "workload.trace_next", root, generateAll);
        M["workload.trace_ns_per_item"] =
            ratio(traceSeconds * 1e9, static_cast<double>(items));
        check(sink > 0, "synthetic traces produced no instructions");
    }

    spans.close(root);
    return L;
}

} // namespace tcmbench
