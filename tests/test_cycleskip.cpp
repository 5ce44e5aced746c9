/**
 * @file
 * Differential tests for the event-horizon simulation kernel
 * (SystemConfig::cycleSkip): the cycle-skipping fast path must be
 * bit-identical to the per-cycle oracle loop — same RunResult (IPCs,
 * metrics, protocol verdict), same telemetry stream byte for byte, and
 * the same DRAM command trace as the committed golden file. Any
 * divergence at all, in any of the five paper schedulers, fails. The
 * configurations cover a small mixed-intensity system, the paper's
 * 24-core 4-channel system under an all-intensive mix (where parked
 * cores and per-controller wake-ups dominate), the same system under a
 * low-intensity mix (where cores parked in streaming spans are caught
 * up lazily before counter reads), a 70-core system whose core masks
 * span two 64-bit words, and an audited DDR4 all-writes system with
 * every controller policy engaged.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dram/observer.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/sink.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

/** Small but non-trivial system: enough channels/threads that every
 *  scheduler exercises real cross-thread contention, small enough that
 *  five schedulers x two modes stay fast. */
sim::SystemConfig
diffConfig(bool cycleSkip)
{
    sim::SystemConfig config;
    config.numCores = 6;
    config.numChannels = 2;
    config.cycleSkip = cycleSkip;
    config.protocolCheck = true;
    config.telemetry.enabled = true;
    config.telemetry.sampleInterval = 5'000;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Serialize a run's telemetry to JSONL and return the bytes. */
std::string
telemetryBytes(const sim::RunResult &r, const std::string &tag)
{
    EXPECT_TRUE(r.telemetry != nullptr);
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcmsim_cycleskip_" + tag + ".jsonl");
    r.telemetry->writeJsonl(path.string());
    std::string bytes = readFile(path.string());
    std::filesystem::remove(path);
    return bytes;
}

/**
 * Run @p mix under @p spec once per kernel (cycleSkip on and off, the
 * rest of @p config shared) and require bit-identical results: every
 * RunResult field, a clean protocol verdict, and the telemetry JSONL
 * byte for byte.
 */
void
expectKernelsIdentical(sim::SystemConfig config,
                       const std::vector<workload::ThreadProfile> &mix,
                       const sched::SchedulerSpec &spec,
                       const sim::ExperimentScale &scale,
                       const std::string &tag)
{
    sim::SystemConfig onCfg = config;
    onCfg.cycleSkip = true;
    sim::SystemConfig offCfg = config;
    offCfg.cycleSkip = false;
    // Separate alone-IPC caches: the alone runs themselves must also be
    // identical across modes for ipcAlone to match exactly.
    sim::AloneIpcCache onCache(onCfg, scale.warmup, scale.measure);
    sim::AloneIpcCache offCache(offCfg, scale.warmup, scale.measure);

    sim::RunResult on =
        sim::runWorkload(onCfg, mix, spec, scale, onCache, /*seed=*/13);
    sim::RunResult off =
        sim::runWorkload(offCfg, mix, spec, scale, offCache, /*seed=*/13);

    ASSERT_EQ(on.ipcShared.size(), off.ipcShared.size()) << tag;
    for (std::size_t t = 0; t < on.ipcShared.size(); ++t) {
        EXPECT_EQ(on.ipcShared[t], off.ipcShared[t]) << tag << " thread " << t;
        EXPECT_EQ(on.ipcAlone[t], off.ipcAlone[t]) << tag << " thread " << t;
    }
    EXPECT_EQ(on.metrics.weightedSpeedup, off.metrics.weightedSpeedup) << tag;
    EXPECT_EQ(on.metrics.maxSlowdown, off.metrics.maxSlowdown) << tag;
    EXPECT_EQ(on.metrics.harmonicSpeedup, off.metrics.harmonicSpeedup) << tag;
    EXPECT_EQ(on.metrics.speedups, off.metrics.speedups) << tag;
    EXPECT_EQ(on.metrics.slowdowns, off.metrics.slowdowns) << tag;

    EXPECT_EQ(on.protocolViolations, 0u) << tag << on.protocolReport;
    EXPECT_EQ(off.protocolViolations, 0u) << tag << off.protocolReport;

    // The full telemetry stream — interval samples, scheduler-decision
    // events, lifecycle latencies — must match byte for byte: any
    // skipped scheduler event or shifted sample cycle shows up here.
    EXPECT_EQ(telemetryBytes(on, tag + "_on"), telemetryBytes(off, tag + "_off"))
        << tag;
}

class CycleSkipDifferential
    : public testing::TestWithParam<sched::SchedulerSpec>
{
};

std::string
schedName(const testing::TestParamInfo<sched::SchedulerSpec> &info)
{
    std::string n = sched::algoName(info.param.algo);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

TEST_P(CycleSkipDifferential, RunResultsAreBitIdentical)
{
    sim::ExperimentScale scale;
    scale.warmup = 20'000;
    scale.measure = 120'000;

    // Mixed-intensity workload so the run exercises both fast-forward
    // regimes (dormant memory-bound threads and streaming compute-bound
    // threads) plus the lockstep boundary cases between them.
    auto mix = workload::randomMix(6, 0.5, /*seed=*/42);
    expectKernelsIdentical(diffConfig(true), mix, GetParam(), scale,
                           schedName({GetParam(), 0}));
}

TEST_P(CycleSkipDifferential, FullSystemIntensiveMixIsBitIdentical)
{
    // The paper's 24-core, 4-channel system with every thread memory
    // intensive: most cores sit parked on a miss and each executed
    // cycle is due on about one controller, so parking, timer wake-ups
    // and per-controller gating carry the run.
    sim::ExperimentScale scale;
    scale.warmup = 10'000;
    scale.measure = 50'000;
    sim::SystemConfig config = diffConfig(true);
    config.numCores = 24;
    config.numChannels = 4;
    auto mix = workload::randomMix(24, 1.0, /*seed=*/7);
    expectKernelsIdentical(config, mix, GetParam(), scale,
                           schedName({GetParam(), 0}) + "_wide");
}

/** The paper's 24-core, 4-channel system at intensity 0.25: about a
 *  quarter of core-cycles stream, with telemetry sampled every 1'000
 *  cycles, so parked streaming cores are caught up before samples and
 *  before due policy ticks (TCM and Tournament read their counters at
 *  quantum boundaries). */
void
expectStreamingMixIdentical(const sched::SchedulerSpec &spec,
                            const std::string &tag)
{
    sim::ExperimentScale scale;
    scale.warmup = 10'000;
    scale.measure = 50'000;
    sim::SystemConfig config = diffConfig(true);
    config.numCores = 24;
    config.numChannels = 4;
    config.telemetry.sampleInterval = 1'000;
    auto mix = workload::randomMix(24, 0.25, /*seed=*/11);
    expectKernelsIdentical(config, mix, spec, scale, tag + "_streaming");
}

TEST_P(CycleSkipDifferential, FullSystemStreamingMixIsBitIdentical)
{
    expectStreamingMixIdentical(GetParam(), schedName({GetParam(), 0}));
}

TEST(CycleSkipDifferentialTournament, FullSystemStreamingMixIsBitIdentical)
{
    expectStreamingMixIdentical(sched::SchedulerSpec::tournamentSpec(),
                                "tournament");
}

INSTANTIATE_TEST_SUITE_P(PaperSchedulers, CycleSkipDifferential,
                         testing::ValuesIn(sim::paperSchedulers()),
                         schedName);

TEST(CycleSkipDifferentialWideMask, SeventyCoresSpanTwoMaskWords)
{
    // 70 cores fill one 64-bit word of the kernel's active/streaming
    // core masks and 6 bits of a second, so parking, wake-ups and the
    // parked-core walk cross the word boundary and stop at the partial
    // tail word.
    sim::ExperimentScale scale;
    scale.warmup = 10'000;
    scale.measure = 50'000;
    sim::SystemConfig config = diffConfig(true);
    config.numCores = 70;
    config.numChannels = 4;
    config.telemetry.sampleInterval = 1'000;
    auto mix = workload::randomMix(70, 0.25, /*seed=*/11);
    for (const sched::SchedulerSpec &spec :
         {sched::SchedulerSpec::tcmSpec(), sched::SchedulerSpec::frfcfs()})
        expectKernelsIdentical(config, mix, spec, scale,
                               schedName({spec, 0}) + "_70cores");
}

TEST(CycleSkipDifferentialWrites, AuditedDdr4WriteMixIsBitIdentical)
{
    // Every thread writing on a DDR4 bank-group part with Strict drain,
    // speculative precharge and power-down: controllers go due on drain
    // latches, idle precharges and rank power transitions, not just on
    // reads, with the checker and full telemetry watching.
    sim::ExperimentScale scale;
    scale.warmup = 10'000;
    scale.measure = 60'000;
    sim::SystemConfig config = diffConfig(true);
    config.numCores = 8;
    config.numChannels = 2;
    ASSERT_EQ(config.selectProtocol("ddr4-2400"), "");
    config.controller.writeDrain.mode = mem::WriteDrainMode::Strict;
    config.controller.speculativePrecharge = true;
    config.controller.powerDownIdleCycles = 200;
    for (double intensity : {0.5, 1.0}) {
        auto mix = workload::randomMix(8, intensity, /*seed=*/5);
        for (workload::ThreadProfile &t : mix)
            t.writeFraction = 1.0;
        expectKernelsIdentical(config, mix, sched::SchedulerSpec::blissSpec(),
                               scale,
                               "bliss_writes_i" +
                                   std::to_string(static_cast<int>(
                                       intensity * 100)));
    }
}

// ---------------------------------------------------------------------------
// Command-stream identity: the per-cycle oracle must reproduce the
// committed golden trace exactly (test_golden.cpp already pins the
// skip-on stream to the same file, so together these prove on == off at
// per-command granularity).
// ---------------------------------------------------------------------------

namespace {

std::string
commandTrace(bool cycleSkip, std::size_t events)
{
    sim::SystemConfig config;
    config.numCores = 2;
    config.numChannels = 1;
    config.cycleSkip = cycleSkip;
    auto mix = workload::randomMix(config.numCores, 1.0, /*seed=*/99);
    sched::SchedulerSpec spec = sched::SchedulerSpec::frfcfs();
    spec.scaleToRun(30'000);

    sim::Simulator sim(config, mix, spec, /*seed=*/99);
    dram::CommandTraceRecorder recorder(events);
    sim.attachCommandObserver(&recorder);
    sim.step(30'000);
    EXPECT_TRUE(recorder.full());
    return recorder.text();
}

} // namespace

TEST(CycleSkipCommandTrace, OracleMatchesGoldenAndFastPath)
{
    constexpr std::size_t kEvents = 400;
    std::string on = commandTrace(true, kEvents);
    std::string off = commandTrace(false, kEvents);
    EXPECT_EQ(on, off);

    const std::string golden =
        readFile(std::string(TCMSIM_GOLDEN_DIR) +
                 "/cmd_trace_frfcfs_seed99.txt");
    EXPECT_EQ(off, golden);
}
