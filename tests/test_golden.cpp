/**
 * @file
 * Golden regression tests: fixed-seed end-to-end runs whose headline
 * metrics must stay inside recorded bands. These catch silent behaviour
 * drift (a scheduler change, a timing fix, a generator tweak) that the
 * unit tests' invariants would let through.
 *
 * Bands are deliberately generous (+/-15% around the recorded value):
 * they should only trip on *behavioural* changes, never on compiler or
 * platform noise (the simulator itself is bit-deterministic per build).
 * When a deliberate change moves a metric, re-record the band and say
 * why in the commit.
 */

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dram/observer.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/mixes.hpp"

using namespace tcm;

namespace {

struct Golden
{
    sched::Algo algo;
    double ws;
    double ms;
};

class GoldenWorkloadA : public testing::TestWithParam<Golden>
{
};

std::string
goldenName(const testing::TestParamInfo<Golden> &info)
{
    std::string n = sched::algoName(info.param.algo);
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

} // namespace

TEST_P(GoldenWorkloadA, MetricsWithinRecordedBands)
{
    Golden g = GetParam();
    sim::SystemConfig config;
    sim::ExperimentScale scale;
    scale.warmup = 50'000;
    scale.measure = 300'000;
    sim::AloneIpcCache cache(config, scale.warmup, scale.measure);

    auto mix = workload::tableFiveWorkload('A');
    sched::SchedulerSpec spec;
    spec.algo = g.algo;
    sim::RunResult r = sim::runWorkload(config, mix, spec, scale, cache,
                                        /*seed=*/7);

    EXPECT_NEAR(r.metrics.weightedSpeedup, g.ws, 0.15 * g.ws)
        << "weighted speedup drifted";
    EXPECT_NEAR(r.metrics.maxSlowdown, g.ms, 0.15 * g.ms)
        << "maximum slowdown drifted";
}

// Recorded on the baseline configuration (Table 5 workload A, seed 7,
// 300K measured cycles) at the time the repository was finalized.
INSTANTIATE_TEST_SUITE_P(Recorded, GoldenWorkloadA,
                         testing::Values(
                             Golden{sched::Algo::FrFcfs, 11.50, 4.54},
                             Golden{sched::Algo::ParBs, 12.11, 4.48},
                             Golden{sched::Algo::Atlas, 13.74, 14.18},
                             Golden{sched::Algo::Tcm, 12.88, 6.48}),
                         goldenName);

// ---------------------------------------------------------------------------
// Golden command trace: the exact DRAM command stream of a tiny
// deterministic run, diffed command-for-command. Where the metric bands
// above allow +/-15% drift, this catches any change at all in command
// selection or timing — one cycle of difference in one ACT fails the
// test. When a deliberate change moves the stream, regenerate with
//   TCMSIM_REGOLD=1 ctest -R test_golden
// and explain the change in the commit.
// ---------------------------------------------------------------------------

namespace {

/** @p spec scaled to the 30k-cycle trace runs. */
sched::SchedulerSpec
scaledSpec(sched::SchedulerSpec spec)
{
    spec.scaleToRun(30'000);
    return spec;
}

/** Record the first @p events commands of a 30k-cycle seed-99 run of
 *  @p mix under @p config and @p spec (used as given: callers scale it),
 *  and diff (or regold, with TCMSIM_REGOLD=1) against the golden at
 *  @p path. */
void
checkCommandTrace(const sim::SystemConfig &config,
                  const std::vector<workload::ThreadProfile> &mix,
                  const sched::SchedulerSpec &spec, const std::string &path,
                  std::size_t events)
{
    sim::Simulator sim(config, mix, spec, /*seed=*/99);
    dram::CommandTraceRecorder recorder(events);
    sim.attachCommandObserver(&recorder);
    sim.step(30'000);
    ASSERT_TRUE(recorder.full())
        << "run produced only " << recorder.lines().size() << " of "
        << events << " trace events";

    if (std::getenv("TCMSIM_REGOLD") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << recorder.text();
        GTEST_SKIP() << "golden trace regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run once with TCMSIM_REGOLD=1 to record it)";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            expected.push_back(line);

    const std::vector<std::string> &actual = recorder.lines();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        ASSERT_EQ(expected[i], actual[i])
            << "command stream diverges at event #" << i;
}

/** The 400-event trace of a 2-core, 1-channel DDR2 run (Table 3). */
void
checkCommandTrace(const sched::SchedulerSpec &spec, const std::string &path)
{
    sim::SystemConfig config;
    config.numCores = 2;
    config.numChannels = 1;
    checkCommandTrace(config,
                      workload::randomMix(config.numCores, 1.0, /*seed=*/99),
                      scaledSpec(spec), path, 400);
}

/**
 * The 1000-event trace of an 8-core, 1-channel DDR2 run at intensity
 * 1.0: the read queue holds requests in most banks, so every scan
 * chooses among many issuable candidates and the pick order of the
 * whole priority key (aging, batch bit, rank, row hit, age) decides
 * the stream. @p spec is used as given.
 */
void
checkLoadedCommandTrace(const sched::SchedulerSpec &spec,
                        const std::string &file)
{
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 1;
    checkCommandTrace(config,
                      workload::randomMix(config.numCores, 1.0, /*seed=*/99),
                      spec, std::string(TCMSIM_GOLDEN_DIR) + "/" + file,
                      1000);
}

} // namespace

TEST(GoldenCommandTrace, FrFcfsCommandStreamIsBitStable)
{
    checkCommandTrace(sched::SchedulerSpec::frfcfs(),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_frfcfs_seed99.txt");
}

// The BLISS trace pins the blacklisting path at per-command granularity:
// on this 2-thread single-channel run the 4-streak threshold trips
// repeatedly, so any change to streak accounting, clearing, or the
// rank flip shifts ACT/column selection and fails the diff.
TEST(GoldenCommandTrace, BlissCommandStreamIsBitStable)
{
    checkCommandTrace(sched::SchedulerSpec::blissSpec(),
                      std::string(TCMSIM_GOLDEN_DIR) +
                          "/cmd_trace_bliss_seed99.txt");
}

// The DDR4 write-path trace pins the controller paths the DDR2 traces
// never reach: bank-group timing, every thread writing under a Strict
// watermark drain, speculative precharge of banks no request targets,
// and rank power-down/up. It is the perfbench audit-writes system (8
// cores, 2 channels, BLISS) at a tiny horizon, long enough that every
// one of those commands appears in the recorded prefix.
TEST(GoldenCommandTrace, Ddr4WriteDrainCommandStreamIsBitStable)
{
    sim::SystemConfig config;
    config.numCores = 8;
    config.numChannels = 2;
    config.selectProtocol("ddr4-2400");
    config.controller.writeDrain.mode = mem::WriteDrainMode::Strict;
    config.controller.speculativePrecharge = true;
    config.controller.powerDownIdleCycles = 200;
    auto mix = workload::randomMix(config.numCores, 0.5, /*seed=*/99);
    for (workload::ThreadProfile &t : mix)
        t.writeFraction = 1.0;
    const std::string path =
        std::string(TCMSIM_GOLDEN_DIR) + "/cmd_trace_ddr4_writes_seed99.txt";
    checkCommandTrace(config, mix,
                      scaledSpec(sched::SchedulerSpec::blissSpec()), path,
                      /*events=*/3300);

    // The golden must actually exercise the paths it exists to pin.
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    for (const char *cmd : {" WR ", " PDE", " PDX", " PRE "})
        EXPECT_NE(text.find(cmd), std::string::npos)
            << "golden trace has no" << cmd << "command";
}

// Pick-order goldens for the ranked schedulers. The per-cycle oracle
// shares the controller, so only a recorded stream can see a changed
// pick. Quanta and thresholds are shortened below the 30k-cycle scaling
// so that rank changes, aging and batching all happen inside the
// recorded prefix.

TEST(GoldenCommandTrace, TcmCommandStreamIsBitStable)
{
    sched::SchedulerSpec spec = scaledSpec(sched::SchedulerSpec::tcmSpec());
    spec.tcm.quantum = 3'000;
    spec.tcm.shuffleInterval = 400;
    checkLoadedCommandTrace(spec, "cmd_trace_tcm_8core_seed99.txt");
}

TEST(GoldenCommandTrace, AtlasAgingCommandStreamIsBitStable)
{
    sched::SchedulerSpec spec = scaledSpec(sched::SchedulerSpec::atlasSpec());
    spec.atlas.quantum = 3'000;
    spec.atlas.agingThreshold = 1'500;
    checkLoadedCommandTrace(spec, "cmd_trace_atlas_8core_seed99.txt");
}

TEST(GoldenCommandTrace, ParBsCommandStreamIsBitStable)
{
    checkLoadedCommandTrace(scaledSpec(sched::SchedulerSpec::parbsSpec()),
                            "cmd_trace_parbs_8core_seed99.txt");
}

TEST(GoldenCommandTrace, StfmCommandStreamIsBitStable)
{
    sched::SchedulerSpec spec = scaledSpec(sched::SchedulerSpec::stfmSpec());
    spec.stfm.updatePeriod = 256;
    checkLoadedCommandTrace(spec, "cmd_trace_stfm_8core_seed99.txt");
}

// Close-page FR-FCFS pins the smart-closed auto-precharge decision: a
// column command keeps its row open only while another queued request
// hits it.
TEST(GoldenCommandTrace, ClosePageFrFcfsCommandStreamIsBitStable)
{
    checkLoadedCommandTrace(scaledSpec(sched::SchedulerSpec::cpFrfcfsSpec()),
                            "cmd_trace_frfcfs_cp_8core_seed99.txt");
}
