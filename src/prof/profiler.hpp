/**
 * @file
 * Simulator self-profiling: wall-clock phase timers, cycle-skip horizon
 * attribution, regime occupancy and scan efficiency.
 *
 * The profiler is a detachable observer of the *simulator*, not of the
 * simulated system: it may read the wall clock, but nothing it measures
 * may feed back into simulated state, so results are bit-identical with
 * the profiler attached or detached (enforced by tests/test_prof). When
 * detached every instrumentation site reduces to a null-pointer check —
 * no clock reads, no allocation.
 *
 * Threading contract: a Profiler and its shards belong to the thread
 * stepping the Simulator it is attached to; parallel sweeps give every
 * run its own Profiler and merge the finished ProfileReports.
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace tcm::prof {

/** Wall-clock phases of one simulation step. ReadScan nests inside
 *  CtrlTick; everything else is disjoint. */
enum class Phase : int {
    SchedTick = 0, //!< scheduler policy tick + hook dispatch
    CtrlTick,      //!< memory-controller tick (admit/refresh/issue)
    ReadScan,      //!< read-queue scan (subset of CtrlTick)
    CoreTick,      //!< core lockstep ticks + silent fast-forwarding
    Telemetry,     //!< interval sampling into the telemetry sink
    Serialize,     //!< end-of-run telemetry/profile file writes
};

inline constexpr int kPhaseCount = 6;

/** Stable short name ("sched.tick", ...) for reports. */
const char *phaseName(Phase p);

/** Stable identifier-safe key ("sched_tick", ...) for JSON. */
const char *phaseKey(Phase p);

/** Which subsystem's horizon bounded a cycle-skip jump of the
 *  event-horizon kernel. */
enum class HorizonSource : int {
    Scheduler = 0, //!< SchedulerPolicy::nextEventAt
    Controller,    //!< MemoryController::nextEventAt
    Telemetry,     //!< telemetry interval sample clock
    Core,          //!< end of an active core's regime, or a parked
                   //!< core's wake-up
    End,           //!< requested end of the step() window
};

inline constexpr int kHorizonSourceCount = 5;

const char *horizonSourceName(HorizonSource s);

/** Core execution regime for one simulated cycle. */
enum class Regime : int {
    Dormant = 0, //!< full window stalled on a memory miss
    Streaming,   //!< closed-form plain-instruction advance
    Lockstep,    //!< full per-cycle core tick
};

inline constexpr int kRegimeCount = 3;

/** Phase accumulator: fixed arrays, zero allocation. */
struct PhaseShard {
    std::array<std::uint64_t, kPhaseCount> ns{};
    std::array<std::uint64_t, kPhaseCount> calls{};

    void
    addFrom(const PhaseShard &other)
    {
        for (int i = 0; i < kPhaseCount; ++i) {
            ns[i] += other.ns[i];
            calls[i] += other.calls[i];
        }
    }
};

/** RAII phase timer. A null shard skips the clock entirely, so the
 *  detached cost is two predictable branches. */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseShard *shard, Phase phase) : shard_(shard), phase_(phase)
    {
        if (shard_ != nullptr)
            t0_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhase()
    {
        if (shard_ == nullptr)
            return;
        auto dt = std::chrono::steady_clock::now() - t0_;
        shard_->ns[static_cast<int>(phase_)] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
        ++shard_->calls[static_cast<int>(phase_)];
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PhaseShard *shard_;
    Phase phase_;
    std::chrono::steady_clock::time_point t0_{};
};

/**
 * Scan efficiency counters of the bank-indexed controller scan (see
 * mem::MemoryController::scanIssue). Deterministic at a seed.
 */
struct ScanCounters {
    /** Read-queue scans: one per scan of a non-empty read queue. */
    std::uint64_t soaScans = 0;
    /** Reads keyed by a read scan: the requests in (bank, command)
     *  classes that were legal that cycle. */
    std::uint64_t readsExamined = 0;
    /** Reads a read scan skipped without a key (their class was
     *  refused); readsExamined + dominanceSkipped is the number of
     *  queued reads summed over the read scans. */
    std::uint64_t dominanceSkipped = 0;
    /** Always 0: the 16-bit-rank fallback scan it counted is gone (the
     *  key's rank field holds every int). Kept only because the
     *  benchmark harness (perfbench/src/layers.cpp) still reads it. */
    std::uint64_t fallbackScans = 0;
    /** Legality-table refreshes: Channel::earliestIssue calls made when
     *  an entry was read after the channel's state version moved (see
     *  mem::MemoryController::legality). */
    std::uint64_t legalityProbes = 0;

    void
    addFrom(const ScanCounters &other)
    {
        soaScans += other.soaScans;
        readsExamined += other.readsExamined;
        dominanceSkipped += other.dominanceSkipped;
        fallbackScans += other.fallbackScans;
        legalityProbes += other.legalityProbes;
    }
};

/** Per-controller shard: written by that channel's controller, folded
 *  into the report by Profiler::report. */
struct ControllerShard {
    PhaseShard phases;
    ScanCounters scan;
};

/** How profiling is requested. */
struct ProfileConfig {
    bool enabled = false;
    /** When non-empty: write one <prefix><name>_seed<N>.profile.json per
     *  run into this directory. */
    std::string dir;
    std::string filePrefix;

    /**
     * TCMSIM_PROFILE environment knob: unset or "0" = off, "1" = on
     * (report only), any other value = on with that output directory.
     * Consulted by runWorkload when SystemConfig::profile is off, so
     * every bench and tool inherits profiling without new flags.
     */
    static ProfileConfig fromEnv();
};

/** Bucket ladder for skip/span lengths in cycles (1, 2, 4, ... ~1M). */
stats::Histogram skipLengthLadder();

/**
 * End-of-run profile: a mergeable value type. merge() folds another
 * run's report in (the core vector resizes to the larger run), so
 * sweeps can aggregate per scheduler across workloads.
 */
struct ProfileReport {
    bool enabled = false;
    int runs = 0;

    std::array<std::uint64_t, kPhaseCount> phaseNs{};
    std::array<std::uint64_t, kPhaseCount> phaseCalls{};

    std::array<std::uint64_t, kHorizonSourceCount> skipCount{};
    std::array<std::uint64_t, kHorizonSourceCount> skipCycles{};
    stats::Histogram skipLengths = skipLengthLadder();

    std::vector<std::array<std::uint64_t, kRegimeCount>> coreRegimes;
    /** Cores the serial kernels touched with a full tick, a
     *  closed-form advance or a parked core's catch-up (see
     *  Profiler::addCoreVisits). */
    std::uint64_t coreVisits = 0;
    ScanCounters scan;

    std::uint64_t totalSkips() const;
    std::uint64_t totalSkippedCycles() const;
    std::uint64_t regimeTotal(Regime r) const;
    double phaseMs(Phase p) const;

    void merge(const ProfileReport &other);

    /** Flat (key, value) metrics for the ResultsDoc run-provenance
     *  block: fixed key order, never baseline-diffed. */
    std::vector<std::pair<std::string, double>> provenance() const;

    /** Self-describing JSON document (tcmsim-profile-v1). */
    std::string toJson() const;

    /** Human-readable rendering (SystemReport section). */
    void print(std::FILE *out) const;
};

/**
 * Live collector owned by whoever attached it (runWorkload, a tool, a
 * test). configure() is called by Simulator::attachProfiler with the
 * run's geometry; all vectors are sized there once, so the hot-path
 * pointers handed to the controllers stay stable.
 */
class Profiler
{
  public:
    Profiler() = default;

    void configure(int numCores, int numChannels);

    PhaseShard &main() { return main_; }
    ControllerShard *controllerShard(int channel)
    {
        return &controllers_[static_cast<std::size_t>(channel)];
    }

    void
    recordSkip(HorizonSource src, std::uint64_t cycles)
    {
        ++skipCount_[static_cast<int>(src)];
        skipCycles_[static_cast<int>(src)] += cycles;
        skipLengths_.add(static_cast<double>(cycles));
    }

    void
    addRegime(std::size_t core, Regime r, std::uint64_t cycles)
    {
        coreRegimes_[core][static_cast<int>(r)] += cycles;
    }

    /**
     * Count @p n core visits: a full tick or a closed-form advance of
     * one core by the serial kernels, including the catch-up that
     * applies a parked streaming core's skipped cycles in one closed
     * form. Deterministic at a seed, but kernel-specific — the
     * per-cycle oracle visits every core every cycle, the event-horizon
     * kernel only the active ones plus one visit per non-empty
     * catch-up.
     */
    void addCoreVisits(std::uint64_t n) { coreVisits_ += n; }

    /** Cheap cumulative snapshot for the telemetry "simulator" lane. */
    struct Pulse {
        double wallMs = 0.0;
        std::uint64_t skips = 0;
        std::uint64_t skippedCycles = 0;
    };
    Pulse pulse() const;

    /** Fold every shard into a mergeable end-of-run report. */
    ProfileReport report() const;

  private:
    PhaseShard main_;
    std::vector<ControllerShard> controllers_;
    std::array<std::uint64_t, kHorizonSourceCount> skipCount_{};
    std::array<std::uint64_t, kHorizonSourceCount> skipCycles_{};
    stats::Histogram skipLengths_ = skipLengthLadder();
    std::vector<std::array<std::uint64_t, kRegimeCount>> coreRegimes_;
    std::uint64_t coreVisits_ = 0;
};

} // namespace tcm::prof
