/**
 * @file
 * Cycle-level memory controller for one DRAM channel.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "dram/channel.hpp"
#include "dram/timing.hpp"
#include "mem/latency_tracker.hpp"
#include "mem/request.hpp"
#include "mem/request_queue.hpp"
#include "mem/sched_iface.hpp"

namespace tcm::telemetry {
class LifecycleSink;
}

namespace tcm::prof {
struct ControllerShard;
}

namespace tcm::mem {

/**
 * Row-buffer management policy. OpenPage (the baseline, and what all the
 * paper's schedulers assume) leaves rows open for future hits;
 * ClosedPage auto-precharges after a column command unless another
 * queued request targets the same row (the standard "smart closed"
 * refinement).
 */
enum class PagePolicy
{
    Open,
    Closed,
};

/**
 * Write-drain behavior while the queue sits between the watermarks.
 * Opportunistic (the baseline) keeps serving reads whenever no write can
 * issue in a drain cycle; Strict reserves the whole latched drain for
 * writes (USIMM's HI_WM/LO_WM scheme), trading read latency for drain
 * throughput.
 */
enum class WriteDrainMode
{
    Opportunistic,
    Strict,
};

/** Watermark-latched write-drain policy (USIMM HI_WM/LO_WM). */
struct WriteDrainPolicy
{
    WriteDrainMode mode = WriteDrainMode::Opportunistic;
    int highWatermark = 48; //!< start draining at this occupancy
    int lowWatermark = 16;  //!< stop draining at this occupancy
};

/** Controller configuration (Table 3 defaults). */
struct ControllerParams
{
    PagePolicy pagePolicy = PagePolicy::Open;

    int readQueueCap = 128;  //!< request buffer entries
    int writeQueueCap = 64;  //!< write data buffer entries
    WriteDrainPolicy writeDrain; //!< watermark-latched write drain

    /**
     * Close open banks that no queued request targets when the command
     * slot would otherwise go unused (USIMM-style speculative precharge).
     * Off by default; the baseline command traces assume pure demand
     * precharging.
     */
    bool speculativePrecharge = false;

    /**
     * Enter precharge power-down after a rank has been idle (no commands
     * issued to it and nothing queued for it) this many cycles. 0
     * disables power management entirely — the default, preserving the
     * baseline command traces bit-for-bit.
     */
    Cycle powerDownIdleCycles = 0;

    /**
     * Skip scheduling scans until a command could possibly issue
     * (cycle-exact: the skip bound is a lower bound on the next legal
     * issue time, and arrivals re-arm the scan immediately). Purely a
     * simulation-speed optimization; results are bit-identical either
     * way, which tests/test_mem.cpp asserts.
     */
    bool idleSkip = true;
};

/** Aggregate controller statistics (reset at measurement start). */
struct ControllerStats
{
    std::uint64_t readsServiced = 0;
    std::uint64_t writesServiced = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rowHits = 0;     //!< column commands to an already-open row
    std::uint64_t rowMisses = 0;   //!< column commands that needed an ACT
    std::uint64_t bankBusyCycles = 0; //!< sum of command occupancies
    std::uint64_t writeDrains = 0; //!< high-watermark drain latches
    std::uint64_t speculativePrecharges = 0; //!< spec-PRE issues
    std::uint64_t powerDowns = 0;  //!< PowerDown commands issued
    std::uint64_t powerUps = 0;    //!< PowerUp commands issued

    void
    reset()
    {
        *this = ControllerStats{};
    }
};

/**
 * Drives one dram::Channel. Every CPU cycle the controller admits
 * transported requests, runs the refresh engine, and issues at most one
 * DRAM command chosen by a fixed prioritization engine parameterized by
 * the attached SchedulerPolicy (see sched_iface.hpp).
 *
 * Reads are prioritized over writes; writes drain in batches between a
 * high and a low watermark, or opportunistically when no reads are
 * pending (Table 3: "reads prioritized over writes").
 */
class MemoryController : public QueueAccess
{
  public:
    /** One finished read, ready to wake the issuing core at readyAt. */
    struct Completion
    {
        ThreadId thread;
        std::uint64_t missId;
        Cycle readyAt;
    };

    MemoryController(ChannelId id, const dram::TimingParams &timing,
                     const ControllerParams &params, SchedulerPolicy &sched);

    ChannelId id() const { return id_; }

    /** @{ Backpressure interface used by cores. */
    bool canAcceptRead() const { return queue_.canAcceptRead(); }
    bool canAcceptWrite() const { return queue_.canAcceptWrite(); }
    /** @} */

    /** Submit a read (L2 miss). Asserts capacity. */
    void submitRead(ThreadId thread, std::uint64_t missId, BankId bank,
                    RowId row, ColId col, Cycle now);

    /** Submit a write (dirty writeback). Asserts capacity. */
    void submitWrite(ThreadId thread, BankId bank, RowId row, ColId col,
                     Cycle now);

    /** Advance one CPU cycle: admit arrivals, refresh, issue a command. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() could do externally
     * visible work, assuming no new submissions before then (the
     * simulator executes every submission cycle, then re-queries).
     * Conservative lower bound folding the next queued arrival, the
     * next refresh due time, and the next possible command issue
     * (max of nextTryAt_ and the channel's command-bus free time).
     * Ticks at cycles before the returned value are state-preserving
     * no-ops; kCycleNever means idle until outside input.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Reads and writes submitted so far. A caller caching nextEventAt
     * re-queries it when this count moves: besides tick(), a submission
     * is the only input that can pull the horizon earlier.
     */
    std::uint64_t submissions() const { return nextSeq_; }

    /** Completions produced so far; the simulator drains this each cycle. */
    std::vector<Completion> &completions() { return completions_; }

    const ControllerStats &stats() const { return stats_; }

    void
    resetStats()
    {
        stats_.reset();
        latency_.reset();
    }

    /** End-to-end read latency distributions since the last reset. */
    const LatencyTracker &latency() const { return latency_; }

    const dram::Channel &channel() const { return channel_; }

    /**
     * Attach a passive observer to this controller's command stream
     * (protocol auditing, trace dumping). Must be called before traffic
     * flows; observers outlive the controller.
     */
    void
    addCommandObserver(dram::CommandObserver *observer)
    {
        channel_.addObserver(observer);
    }

    /**
     * Attach a request-lifecycle sink (nullptr detaches): each serviced
     * read reports its queueing delay (arrival to column command) and
     * service time (column command to data at the core). Detached cost
     * is one branch per read completion.
     */
    void
    setLifecycleSink(telemetry::LifecycleSink *sink)
    {
        lifecycle_ = sink;
    }

    /**
     * Attach a profiler shard (nullptr detaches): tick and read-scan
     * wall time plus SoA scan-efficiency counters accumulate there;
     * nothing measured feeds back into simulated state. Detached cost
     * is one branch per tick/scan.
     */
    void
    setProfile(prof::ControllerShard *shard)
    {
        prof_ = shard;
    }

    /** Number of queued + in-flight reads (tests/backpressure checks). */
    std::size_t readLoad() const { return queue_.readLoad(); }
    std::size_t writeLoad() const { return queue_.writeLoad(); }

    /** Arrival time of the next in-transport request (kCycleNever when
     *  nothing is in flight). */
    Cycle nextArrivalAt() const { return queue_.nextArrivalAt(); }

    // QueueAccess
    std::vector<Request> &readQueue() override { return queue_.reads(); }

  private:
    /**
     * Snapshot scheduler knobs for the scan (hot-path devirtualization).
     * Rebuilt only when the policy's rank epoch moves or a new thread
     * has been seen; otherwise the cached vector is still valid.
     */
    void refreshPolicyCache();

    /** Cached rank lookup for the current scan. */
    int
    cachedRank(ThreadId thread) const
    {
        return thread < static_cast<ThreadId>(rankCache_.size())
                   ? rankCache_[thread]
                   : sched_->rankOf(id_, thread);
    }

    /**
     * One (bank, command) entry of the legality table: the channel's
     * earliestIssue as of channel version `version`. Channel state moves
     * only with that version, and on a powered-up rank
     * canIssue(k, b, t) == (t >= earliestIssue(k, b)) (tests/test_dram's
     * LegalityContract pins it), so `now >= legalFrom` is the legality
     * check. A powered-down rank refuses every ACT/RD/WR/PRE, so its
     * legalFrom is kCycleNever while `at` keeps earliestIssue, the
     * lower bound a refusal folds into the scan horizon.
     */
    struct Legality
    {
        Cycle at = kCycleNever;
        Cycle legalFrom = kCycleNever;
        std::uint64_t version = ~std::uint64_t{0}; //!< never current
    };

    /** The table entry for (@p kind, @p bank), refreshed first when the
     *  channel version has moved since it was stored. @p kind is one of
     *  ACT/RD/WR/PRE. */
    const Legality &
    legality(dram::CommandKind kind, BankId bank)
    {
        Legality &e = legality_[static_cast<std::size_t>(bank) * 4 +
                                static_cast<std::size_t>(kind)];
        if (e.version != channel_.version())
            refreshLegality(e, kind, bank);
        return e;
    }

    void refreshLegality(Legality &e, dram::CommandKind kind, BankId bank);

    /**
     * Bring the open-row snapshot and the per-bank hit counts up to date
     * with the channel: a no-op while the channel version stands still,
     * otherwise the hit counts of every bank whose open row changed are
     * recounted from the bank's slots.
     */
    void syncBanks();

    /** Queued requests of @p m in bank @p b that hit @p row. */
    static int countHits(const QueueMirror &m, BankId b, RowId row);

    /**
     * Scan the read queue (@p writes false) or the write queue and issue
     * the highest-priority legal command, if any. Banks whose present
     * command classes (hit: RD/WR on the open row; miss: ACT or PRE) are
     * all refused are skipped whole, their earliest-issue times folded
     * into @p nextPossible; only requests in legal classes are keyed.
     * The pick is the maximum of a total order (packed key, then oldest
     * seq), so walk order cannot change it. Read scans are timed as the
     * profiler's ReadScan phase and counted in its scan counters.
     */
    bool scanIssue(bool writes, Cycle now, Cycle &nextPossible);

    /**
     * Static half of the packed priority key for @p thread (marked bit
     * plus biased rank); see scanIssue for the full layout.
     */
    std::uint64_t packedKeyHi(ThreadId thread, bool marked) const;

    /**
     * Issue @p cmd for the request in slot @p slot of the read or write
     * queue and apply every side effect (stats, completions, latency,
     * lifecycle, hooks, hit counts, removal).
     */
    void issueSelected(bool writes, std::size_t slot, dram::CommandKind cmd,
                       Cycle now);

    /**
     * Earliest cycle the next scan after a command issued at @p now could
     * issue again: the later of now + tCK and the least earliest-issue
     * time over the classes that scan would examine in the current drain
     * mode, plus pending speculative precharges. When that scan would
     * flip the write-drain latch, now + tCK, so the flip (and its
     * writeDrains count) happens at the same cycle as with a rescan
     * every tCK.
     */
    Cycle postIssueHorizon(Cycle now);

    /** Least earliest-issue time over the classes present in the read
     *  or write queue. */
    Cycle queueHorizon(bool writes);

    /** Progress the refresh engine; true if it consumed the command slot. */
    bool refreshEngine(Cycle now);

    /**
     * Per-rank power management (powerDownIdleCycles > 0): powers a rank
     * back up when work arrives for it, and walks an idle rank down
     * (precharge open banks, then PowerDown). True if it consumed the
     * command slot.
     */
    bool powerManagement(Cycle now);

    /** True when any queued read or write targets rank @p rank. */
    bool rankHasQueuedWork(int rank) const;

    /**
     * Speculative precharge: close one open bank no queued request
     * targets. On failure lowers @p nextPossible to the earliest cycle a
     * speculative precharge could issue. True if one issued.
     */
    bool trySpeculativePrecharge(Cycle now, Cycle &nextPossible);

    /** Closed-page policy: auto-precharge after a column command. */
    void maybeAutoPrecharge(const Request &served);

    ChannelId id_;
    const dram::TimingParams *timing_;
    ControllerParams params_;
    SchedulerPolicy *sched_;
    dram::Channel channel_;
    RequestQueue queue_;
    std::vector<Completion> completions_;
    ControllerStats stats_;
    LatencyTracker latency_;
    telemetry::LifecycleSink *lifecycle_ = nullptr;
    prof::ControllerShard *prof_ = nullptr;
    bool drainingWrites_ = false;
    std::vector<Cycle> refreshDueAt_; //!< per rank, staggered
    std::vector<Cycle> rankLastActiveAt_; //!< last scheduler/refresh command
    Cycle nextTryAt_ = 0; //!< idle fast-path: no scan before this cycle
    std::uint64_t nextSeq_ = 0;

    // Policy snapshot, valid while the policy's rank epoch stands still
    // (see refreshPolicyCache).
    std::vector<int> rankCache_;
    Cycle agingCache_ = kCycleNever;
    bool rowHitAboveRankCache_ = false;
    bool useRowHitCache_ = true;
    ThreadId maxThreadSeen_ = 0;
    std::uint64_t policyCacheEpoch_ = 0; //!< 0 = cache never built

    // Bank index (see syncBanks): the open row of every bank as of
    // channel version syncedVersion_, and per bank the queued reads
    // (hits_[0]) and writes (hits_[1]) that hit that row. Admission and
    // removal keep the counts exact against the snapshot; syncBanks
    // recounts a bank when its snapshot moves.
    std::vector<RowId> openRow_;
    std::vector<int> hits_[2];
    std::uint64_t syncedVersion_ = 0;

    // Legality table, four entries (ACT, RD, WR, PRE) per bank.
    std::vector<Legality> legality_;
};

} // namespace tcm::mem
