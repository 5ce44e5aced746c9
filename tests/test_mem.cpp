/**
 * @file
 * Unit tests for the memory controller: queueing, prioritization tiers,
 * write drain, refresh, backpressure and completion timing.
 */

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "dram/protocol.hpp"
#include "mem/controller.hpp"
#include "mem/request_queue.hpp"
#include "prof/profiler.hpp"
#include "sched/fcfs.hpp"
#include "sched/fixed_rank.hpp"
#include "sched/frfcfs.hpp"

using namespace tcm;
using namespace tcm::mem;

namespace {

dram::TimingParams
timing(bool refresh = false)
{
    dram::TimingParams t = dram::TimingParams::ddr2_800();
    t.refreshEnabled = refresh;
    return t;
}

/** Commands the controller has issued so far (stats-visible ones). */
std::uint64_t
commandsIssued(const ControllerStats &s)
{
    return s.activates + s.precharges + s.readsServiced + s.writesServiced;
}

/** Run the controller for @p cycles starting at @p from. */
Cycle
spin(MemoryController &mc, Cycle from, Cycle cycles)
{
    for (Cycle c = from; c < from + cycles; ++c)
        mc.tick(c);
    return from + cycles;
}

} // namespace

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, CapacityCountsInFlight)
{
    RequestQueue q(2, 1, 8);
    Request r;
    r.arrivedAt = 100;
    ASSERT_TRUE(q.canAcceptRead());
    q.addInFlight(r);
    ASSERT_TRUE(q.canAcceptRead());
    q.addInFlight(r);
    EXPECT_FALSE(q.canAcceptRead());
    EXPECT_TRUE(q.canAcceptWrite());
}

TEST(RequestQueue, AdmitsOnlyDueArrivals)
{
    RequestQueue q(8, 8, 8);
    Request a, b;
    a.arrivedAt = 10;
    a.seq = 1;
    b.arrivedAt = 20;
    b.seq = 2;
    q.addInFlight(a);
    q.addInFlight(b);
    EXPECT_EQ(q.admitArrivals(9).size(), 0u);
    auto first = q.admitArrivals(10);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].seq, 1u);
    EXPECT_EQ(q.reads().size(), 1u);
    auto second = q.admitArrivals(25);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].seq, 2u);
}

TEST(RequestQueue, RemoveReadSwapPops)
{
    RequestQueue q(8, 8, 8);
    for (int i = 0; i < 3; ++i) {
        Request r;
        r.seq = i;
        r.arrivedAt = 0;
        q.addInFlight(r);
    }
    q.admitArrivals(0);
    Request removed = q.removeRead(0);
    EXPECT_EQ(removed.seq, 0u);
    EXPECT_EQ(q.reads().size(), 2u);
}

TEST(RequestQueue, WritesGoToWriteQueue)
{
    RequestQueue q(8, 8, 8);
    Request w;
    w.isWrite = true;
    w.arrivedAt = 0;
    q.addInFlight(w);
    q.admitArrivals(0);
    EXPECT_EQ(q.reads().size(), 0u);
    EXPECT_EQ(q.writes().size(), 1u);
}

TEST(RequestQueue, PerBankCountsMatchBruteForce)
{
    // Seeded random admit/remove sequences, including swap-pop removals
    // from the middle of either queue: after every step the maintained
    // per-bank counts equal a fresh count over the visible queues, each
    // SoA mirror is index-aligned with its queue, and each bank's slot
    // bitset holds exactly the slots that target that bank.
    constexpr int kBanks = 8;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        RequestQueue q(32, 16, kBanks);
        tcm::Pcg32 rng(seed);
        Cycle now = 0;
        std::uint64_t seq = 0;
        auto check = [&](int step) {
            for (BankId b = 0; b < kBanks; ++b) {
                int expected = 0;
                for (const Request &r : q.reads())
                    expected += r.bank == b ? 1 : 0;
                for (const Request &r : q.writes())
                    expected += r.bank == b ? 1 : 0;
                ASSERT_EQ(q.queuedAt(b), expected)
                    << "seed " << seed << " step " << step << " bank " << b;
            }
            for (bool writes : {false, true}) {
                const std::vector<Request> &queue =
                    writes ? q.writes() : q.reads();
                const QueueMirror &m = q.mirror(writes);
                ASSERT_EQ(m.bank.size(), queue.size());
                ASSERT_EQ(m.row.size(), queue.size());
                ASSERT_EQ(m.arrivedAt.size(), queue.size());
                ASSERT_EQ(m.keyHi.size(), queue.size());
                for (std::size_t i = 0; i < queue.size(); ++i) {
                    ASSERT_EQ(m.bank[i], queue[i].bank) << "step " << step;
                    ASSERT_EQ(m.row[i], queue[i].row) << "step " << step;
                    ASSERT_EQ(m.arrivedAt[i], queue[i].arrivedAt)
                        << "step " << step;
                }
                for (BankId b = 0; b < kBanks; ++b) {
                    int count = 0;
                    for (std::size_t i = 0; i < m.words * 64; ++i) {
                        const bool set = (m.slotsOf(b)[i / 64] >> (i % 64)) & 1;
                        const bool want =
                            i < queue.size() && queue[i].bank == b;
                        ASSERT_EQ(set, want) << "seed " << seed << " step "
                                             << step << " bank " << b
                                             << " slot " << i;
                        count += want ? 1 : 0;
                    }
                    ASSERT_EQ(m.count[b], count) << "step " << step;
                }
            }
        };
        for (int step = 0; step < 4000; ++step) {
            switch (rng.nextBelow(4)) {
              case 0: { // submit; visible after a fixed transport delay
                Request r;
                r.seq = seq++;
                r.isWrite = rng.nextBool(0.3);
                r.bank = static_cast<BankId>(rng.nextBelow(kBanks));
                r.row = static_cast<RowId>(rng.nextBelow(16));
                r.arrivedAt = now + 3;
                if (r.isWrite ? q.canAcceptWrite() : q.canAcceptRead())
                    q.addInFlight(r);
                break;
              }
              case 1:
                q.admitArrivals(now);
                break;
              case 2:
                if (!q.reads().empty())
                    q.removeRead(rng.nextBelow(
                        static_cast<std::uint32_t>(q.reads().size())));
                break;
              default:
                if (!q.writes().empty())
                    q.removeWrite(rng.nextBelow(
                        static_cast<std::uint32_t>(q.writes().size())));
                break;
            }
            now += rng.nextBelow(3);
            check(step);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

// ---------------------------------------------------------------------------
// Controller basics
// ---------------------------------------------------------------------------

TEST(Controller, UncontendedReadCompletesAtClosedBankLatency)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, /*missId=*/1, /*bank=*/0, /*row=*/5, /*col=*/0, 0);
    spin(mc, 0, 600);
    ASSERT_EQ(mc.completions().size(), 1u);
    // closed bank: transport(40) + ACT wait + tRCD + tCL + tBURST + 35.
    Cycle expect = t.cpuToMcDelay + t.tRCD + t.tCL + t.tBURST +
                   t.mcToCpuDelay;
    EXPECT_NEAR(static_cast<double>(mc.completions()[0].readyAt),
                static_cast<double>(expect), t.tCK + 1);
    EXPECT_EQ(mc.stats().readsServiced, 1u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

TEST(Controller, RowHitSkipsActivate)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 600);
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(Controller, ConflictPrechargesThenActivates)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(0, 2, 0, 9, 0, now);
    spin(mc, now, 1000);
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.stats().activates, 2u);
    EXPECT_EQ(mc.stats().precharges, 1u);
}

TEST(Controller, FrFcfsPrefersRowHitOverOlderConflict)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Open row 5 for thread 0.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    // Conflict request (older by sequence) and row-hit request, arriving
    // together so the policy (not arrival timing) decides.
    mc.submitRead(1, 2, 0, 9, 0, now);
    mc.submitRead(0, 3, 0, 5, 1, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    // The row hit (missId 3) must finish before the conflict (missId 2).
    EXPECT_EQ(mc.completions()[1].missId, 3u);
    EXPECT_EQ(mc.completions()[2].missId, 2u);
}

TEST(Controller, FcfsIgnoresRowHits)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::Fcfs sched;
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    mc.submitRead(1, 2, 0, 9, 0, now);
    mc.submitRead(0, 3, 0, 5, 1, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    // Strict arrival order: the conflict (older by sequence) goes first.
    EXPECT_EQ(mc.completions()[1].missId, 2u);
    EXPECT_EQ(mc.completions()[2].missId, 3u);
}

TEST(Controller, HigherRankedThreadWinsOverRowHit)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    // Thread 1 strictly above thread 0.
    sched::FixedRank sched({0, 1});
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 600);
    // Thread 0 row hit vs thread 1 conflict: rank outranks row-hit.
    mc.submitRead(0, 2, 0, 5, 1, now);
    mc.submitRead(1, 3, 0, 9, 0, now);
    spin(mc, now, 1500);
    ASSERT_EQ(mc.completions().size(), 3u);
    EXPECT_EQ(mc.completions()[1].missId, 3u);
    EXPECT_EQ(mc.completions()[2].missId, 2u);
}

TEST(Controller, ExtremeRanksOrderActivatesToIdleBanks)
{
    // Ranks at and beyond the 16-bit range, down to INT_MIN and up to
    // INT_MAX, must order the scan exactly as ordinary ranks do. Five
    // reads to five idle, precharged banks arrive together, lowest rank
    // first (so age alone would reverse the order); their ACTs must
    // issue from the highest rank down.
    dram::TimingParams t = dram::protocols::ddr3_1333().derive();
    t.refreshEnabled = false;
    ASSERT_GE(t.banksPerChannel, 5);
    const std::vector<int> ranks = {std::numeric_limits<int>::min(), -40000,
                                    0, 40000,
                                    std::numeric_limits<int>::max()};
    sched::FixedRank sched(ranks);
    sched.configure(static_cast<int>(ranks.size()), 1, t.banksPerChannel);
    MemoryController mc(0, t, ControllerParams{}, sched);

    struct Acts : dram::CommandObserver
    {
        std::vector<BankId> banks;
        void
        onCommand(const dram::CommandEvent &ev) override
        {
            if (ev.kind == dram::CommandKind::Activate)
                banks.push_back(ev.bank);
        }
    } acts;
    mc.addCommandObserver(&acts);

    for (ThreadId th = 0; th < static_cast<ThreadId>(ranks.size()); ++th)
        mc.submitRead(th, th, /*bank=*/static_cast<BankId>(th), /*row=*/3,
                      0, 0);
    spin(mc, 0, 2000);
    ASSERT_EQ(mc.completions().size(), ranks.size());
    EXPECT_EQ(acts.banks, (std::vector<BankId>{4, 3, 2, 1, 0}));
}

TEST(Controller, BackpressureWhenReadBufferFull)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.readQueueCap = 4;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.canAcceptRead());
        mc.submitRead(0, i + 1, 0, 5, i, 0);
    }
    EXPECT_FALSE(mc.canAcceptRead());
    spin(mc, 0, 2000);
    EXPECT_TRUE(mc.canAcceptRead());
    EXPECT_EQ(mc.completions().size(), 4u);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

TEST(Controller, WritesServeOpportunisticallyWhenNoReads)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    spin(mc, 0, 1000);
    EXPECT_EQ(mc.stats().writesServiced, 1u);
}

TEST(Controller, WriteDrainTriggersAtHighWatermark)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeQueueCap = 64;
    p.writeDrain.highWatermark = 8;
    p.writeDrain.lowWatermark = 2;
    sched::FrFcfs sched;
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Keep a steady stream of row-hit reads from thread 0 and pile up
    // writes from thread 1; once the high watermark is hit the drain
    // must service writes even though reads are pending.
    Cycle now = 0;
    mc.submitRead(0, 1000, 0, 5, 0, now);
    for (int i = 0; i < 10; ++i)
        mc.submitWrite(1, 1, 7, i, now);
    for (int i = 0; i < 40; ++i)
        mc.submitRead(0, i, 0, 5, i % 64, now + 1 + i);
    spin(mc, 0, 30'000);
    EXPECT_GE(mc.stats().writesServiced, 8u);
    EXPECT_GE(mc.stats().readsServiced, 40u);
}

TEST(Controller, WriteBackpressureAtCapacity)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeQueueCap = 2;
    p.writeDrain.highWatermark = 100; // never drain via watermark
    p.writeDrain.lowWatermark = 0;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    mc.submitWrite(0, 0, 5, 1, 0);
    EXPECT_FALSE(mc.canAcceptWrite());
    spin(mc, 0, 2000); // opportunistic drain (no reads)
    EXPECT_TRUE(mc.canAcceptWrite());
}

// ---------------------------------------------------------------------------
// Page policy
// ---------------------------------------------------------------------------

TEST(Controller, ClosedPageReactivatesForRepeatAccess)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.pagePolicy = PagePolicy::Closed;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Two same-row reads far apart in time: with closed-page the row is
    // gone by the second access, so two ACTs happen.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 800);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 800);
    EXPECT_EQ(mc.stats().readsServiced, 2u);
    EXPECT_EQ(mc.stats().activates, 2u);
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

TEST(Controller, SmartClosedKeepsRowForQueuedHit)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.pagePolicy = PagePolicy::Closed;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Two same-row reads queued together: the smart-closed policy must
    // not precharge between them.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    mc.submitRead(0, 2, 0, 5, 1, 0);
    spin(mc, 0, 1200);
    EXPECT_EQ(mc.stats().readsServiced, 2u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(Controller, SmartClosedKeepsRowForQueuedWriteHit)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.pagePolicy = PagePolicy::Closed;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // A read and a write to one row queued together: the read goes
    // first, and the queued write hit must keep the row open after it.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    mc.submitWrite(0, 0, 5, 1, 0);
    spin(mc, 0, 1200);
    EXPECT_EQ(mc.stats().readsServiced, 1u);
    EXPECT_EQ(mc.stats().writesServiced, 1u);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(Controller, OpenPageKeepsRowByDefault)
{
    dram::TimingParams t = timing();
    ControllerParams p; // PagePolicy::Open
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    Cycle now = spin(mc, 0, 800);
    mc.submitRead(0, 2, 0, 5, 1, now);
    spin(mc, now, 800);
    EXPECT_EQ(mc.stats().activates, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

// ---------------------------------------------------------------------------
// Refresh
// ---------------------------------------------------------------------------

TEST(Controller, RefreshHappensPeriodically)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    Cycle horizon = t.tREFI * 3 + t.tRFC * 3 + 100;
    spin(mc, 0, horizon);
    EXPECT_GE(mc.stats().refreshes, 3u);
}

TEST(Controller, ReadsStillCompleteWithRefreshEnabled)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    Cycle now = 0;
    int submitted = 0;
    for (; now < t.tREFI * 2; ++now) {
        if (now % 500 == 0 && mc.canAcceptRead()) {
            mc.submitRead(0, submitted, 0, static_cast<RowId>(now % 97), 0,
                          now);
            ++submitted;
        }
        mc.tick(now);
    }
    spin(mc, now, 2000);
    EXPECT_EQ(mc.completions().size(), static_cast<std::size_t>(submitted));
}

// ---------------------------------------------------------------------------
// Idle fast-path equivalence
// ---------------------------------------------------------------------------

namespace {

/** Drive one controller with pseudo-random traffic; fingerprint it. */
std::vector<Cycle>
trafficFingerprint(bool idleSkip, bool refresh)
{
    dram::TimingParams t = timing(refresh);
    ControllerParams p;
    p.idleSkip = idleSkip;
    p.writeDrain.highWatermark = 6;
    p.writeDrain.lowWatermark = 2;
    sched::FrFcfs sched;
    sched.configure(4, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    tcm::Pcg32 rng(12345);
    std::vector<Cycle> fingerprint;
    std::uint64_t id = 1;
    for (Cycle now = 0; now < 60'000; ++now) {
        if (rng.nextBool(0.03) && mc.canAcceptRead())
            mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)), id++,
                          static_cast<BankId>(rng.nextBelow(4)),
                          static_cast<RowId>(rng.nextBelow(16)),
                          static_cast<ColId>(rng.nextBelow(64)), now);
        if (rng.nextBool(0.02) && mc.canAcceptWrite())
            mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                           static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(16)), 0, now);
        mc.tick(now);
        for (const auto &c : mc.completions())
            fingerprint.push_back(c.readyAt);
        mc.completions().clear();
    }
    fingerprint.push_back(mc.stats().readsServiced);
    fingerprint.push_back(mc.stats().writesServiced);
    fingerprint.push_back(mc.stats().activates);
    fingerprint.push_back(mc.stats().precharges);
    fingerprint.push_back(mc.stats().rowHits);
    return fingerprint;
}

} // namespace

TEST(Controller, IdleSkipIsCycleExact)
{
    // The idle fast-path must not change a single completion time or
    // statistic, with and without refresh in the mix.
    EXPECT_EQ(trafficFingerprint(true, false),
              trafficFingerprint(false, false));
    EXPECT_EQ(trafficFingerprint(true, true),
              trafficFingerprint(false, true));
}

// ---------------------------------------------------------------------------
// USIMM-style controller policies: latched write drain, speculative
// precharge, rank power-down.
// ---------------------------------------------------------------------------

TEST(Controller, StrictDrainLatchesUntilLowWatermark)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeQueueCap = 64;
    p.writeDrain.mode = WriteDrainMode::Strict;
    p.writeDrain.highWatermark = 8;
    p.writeDrain.lowWatermark = 2;
    sched::FrFcfs sched;
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    for (int i = 0; i < 10; ++i)
        mc.submitWrite(1, 1, 7, i, 0);
    for (int i = 0; i < 20; ++i)
        mc.submitRead(0, i, 0, 5, i % 64, 0);
    spin(mc, 0, 40'000);
    // The latch engaged at the high watermark and drained to the low
    // one; everything still completes.
    EXPECT_GE(mc.stats().writeDrains, 1u);
    EXPECT_GE(mc.stats().writesServiced, 8u);
    EXPECT_EQ(mc.stats().readsServiced, 20u);
}

TEST(Controller, OpportunisticModeCountsNoLatch)
{
    dram::TimingParams t = timing();
    ControllerParams p; // Opportunistic (default): no drain latch
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    spin(mc, 0, 2000);
    EXPECT_EQ(mc.stats().writesServiced, 1u);
    EXPECT_EQ(mc.stats().writeDrains, 0u);
}

TEST(Controller, SpeculativePrechargeClosesUntargetedRow)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.speculativePrecharge = true;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // A single read leaves its row open with nothing queued behind it:
    // the speculative engine should close it during the idle stretch.
    mc.submitRead(0, 1, 0, 5, 0, 0);
    spin(mc, 0, 2000);
    EXPECT_EQ(mc.stats().readsServiced, 1u);
    EXPECT_GE(mc.stats().speculativePrecharges, 1u);
    // The next access to a different row needs no conflict precharge:
    // it activates directly on the closed bank.
    Cycle closedBankReadAt = 2000;
    mc.submitRead(0, 2, 0, 9, 0, closedBankReadAt);
    spin(mc, 2000, 2000);
    ASSERT_EQ(mc.completions().size(), 2u);
    EXPECT_EQ(mc.completions()[1].readyAt,
              closedBankReadAt + t.cpuToMcDelay + t.tRCD + t.tCL +
                  t.tBURST + t.mcToCpuDelay);
}

TEST(Controller, SpeculativePrechargeSparesTargetedRow)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.speculativePrecharge = true;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Three bank-1 reads keep the data bus booked while a bank-0 row-hit
    // read sits queued past bank 0's tRAS window: a precharge on bank 0
    // would be *legal* during that stall, but the row is the target of
    // queued work, so the speculative engine must spare it (closing it
    // would turn the row hit into a reactivation).
    mc.submitRead(0, 1, 0, 5, 0, 0);
    mc.submitRead(0, 2, 1, 3, 0, 0);
    mc.submitRead(0, 3, 1, 3, 1, 0);
    mc.submitRead(0, 4, 1, 3, 2, 0);
    spin(mc, 0, 220);
    // Arrives (after the transport delay) just before bank 0's tRAS
    // window closes, so the bank is continuously wanted from then on.
    mc.submitRead(0, 5, 0, 5, 1, 220);
    spin(mc, 220, 2000);
    EXPECT_EQ(mc.stats().readsServiced, 5u);
    EXPECT_EQ(mc.stats().activates, 2u); // one per bank, never again
    EXPECT_EQ(mc.stats().rowHits, 3u);
    // Bank 1 went cold after its last read and was closed speculatively.
    EXPECT_GE(mc.stats().speculativePrecharges, 1u);
}

TEST(Controller, PowerDownEngagesAndWakes)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.powerDownIdleCycles = 500;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    spin(mc, 0, 5000);
    // The rank idled past the threshold: its row was closed and the
    // rank put into power-down.
    EXPECT_GE(mc.stats().powerDowns, 1u);
    EXPECT_EQ(mc.stats().powerUps, 0u);

    // New work wakes the rank and still completes.
    mc.submitRead(0, 2, 0, 5, 0, 5000);
    spin(mc, 5000, 5000);
    EXPECT_GE(mc.stats().powerUps, 1u);
    EXPECT_EQ(mc.completions().size(), 2u);
}

TEST(Controller, PowerDownDisabledByDefault)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitRead(0, 1, 0, 5, 0, 0);
    spin(mc, 0, 50'000);
    EXPECT_EQ(mc.stats().powerDowns, 0u);
    EXPECT_EQ(mc.stats().speculativePrecharges, 0u);
    EXPECT_EQ(mc.stats().writeDrains, 0u);
}

namespace {

/** How policyFingerprint drives the controller. */
enum class Pacing
{
    EveryCycle, //!< tick() at every cycle
    OwnHorizon, //!< tick() only at cycles >= the controller's nextEventAt
};

/**
 * Like trafficFingerprint, with every new policy engaged. OwnHorizon
 * paces the controller the way the event-horizon kernel does: its
 * nextEventAt is re-queried after every tick and every submission, and
 * no other tick happens.
 */
std::vector<Cycle>
policyFingerprint(bool idleSkip, Pacing pacing = Pacing::EveryCycle,
                  int lowWatermark = 1)
{
    dram::TimingParams t = timing(/*refresh=*/true);
    ControllerParams p;
    p.idleSkip = idleSkip;
    p.writeDrain.mode = WriteDrainMode::Strict;
    p.writeDrain.highWatermark = 4;
    p.writeDrain.lowWatermark = lowWatermark;
    p.speculativePrecharge = true;
    p.powerDownIdleCycles = 700;
    sched::FrFcfs sched;
    sched.configure(4, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    tcm::Pcg32 rng(999);
    std::vector<Cycle> fingerprint;
    std::uint64_t id = 1;
    Cycle due = mc.nextEventAt(0);
    for (Cycle now = 0; now < 60'000; ++now) {
        // Short bursts with long dead stretches: the queues fully drain
        // between bursts, so speculative precharge and power-down
        // actually engage, and each burst wakes the rank again.
        bool active = now % 6000 < 600;
        const std::uint64_t submitted = mc.submissions();
        if (active && rng.nextBool(0.08) && mc.canAcceptRead())
            mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)), id++,
                          static_cast<BankId>(rng.nextBelow(4)),
                          static_cast<RowId>(rng.nextBelow(4)),
                          static_cast<ColId>(rng.nextBelow(64)), now);
        if (active && rng.nextBool(0.02) && mc.canAcceptWrite())
            mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                           static_cast<BankId>(rng.nextBelow(4)),
                           static_cast<RowId>(rng.nextBelow(4)), 0, now);
        if (pacing == Pacing::OwnHorizon) {
            if (mc.submissions() != submitted)
                due = mc.nextEventAt(now);
            if (now < due)
                continue;
            mc.tick(now);
            due = mc.nextEventAt(now + 1);
        } else {
            mc.tick(now);
        }
        for (const auto &c : mc.completions())
            fingerprint.push_back(c.readyAt);
        mc.completions().clear();
    }
    fingerprint.push_back(mc.stats().readsServiced);
    fingerprint.push_back(mc.stats().writesServiced);
    fingerprint.push_back(mc.stats().activates);
    fingerprint.push_back(mc.stats().precharges);
    fingerprint.push_back(mc.stats().rowHits);
    fingerprint.push_back(mc.stats().writeDrains);
    fingerprint.push_back(mc.stats().speculativePrecharges);
    fingerprint.push_back(mc.stats().powerDowns);
    fingerprint.push_back(mc.stats().powerUps);
    return fingerprint;
}

} // namespace

TEST(Controller, IdleSkipIsCycleExactWithPoliciesEngaged)
{
    // The idle fast-path must stay bit-exact when the drain latch,
    // speculative precharge and power-down are all active: every new
    // event source has to be folded into the controller's horizon.
    std::vector<Cycle> skipped = policyFingerprint(true);
    std::vector<Cycle> stepped = policyFingerprint(false);
    EXPECT_EQ(skipped, stepped);
    // Sanity: the scenario actually exercised the machinery.
    ASSERT_GE(skipped.size(), 4u);
    EXPECT_GE(skipped[skipped.size() - 1], 1u); // powerUps
    EXPECT_GE(skipped[skipped.size() - 2], 1u); // powerDowns
    EXPECT_GE(skipped[skipped.size() - 3], 1u); // spec precharges
    EXPECT_GE(skipped[skipped.size() - 4], 1u); // drain latches
}

TEST(Controller, PacedByOwnHorizonMatchesEveryCycle)
{
    // The event-horizon kernel ticks each controller only once its own
    // nextEventAt is due (re-queried after every tick and submission),
    // not at every executed cycle: that pacing must reproduce the
    // every-cycle completions and statistics exactly, with refresh,
    // Strict drain, speculative precharge and power-down engaged, at a
    // low watermark of 1 and of 0 (see DrainLatchReleaseIsOnTheHorizon).
    for (int low : {1, 0}) {
        const std::vector<Cycle> stepped =
            policyFingerprint(false, Pacing::EveryCycle, low);
        EXPECT_EQ(policyFingerprint(true, Pacing::OwnHorizon, low), stepped)
            << "lowWatermark " << low;
        EXPECT_EQ(policyFingerprint(false, Pacing::OwnHorizon, low), stepped)
            << "lowWatermark " << low;
    }
}

namespace {

/**
 * Ready time of a read that arrives together with a write after a
 * Strict drain emptied the write queue, with a low watermark of 0 and
 * no other policy armed: whether the read waits behind the write
 * depends on the drain latch having been released in between.
 */
Cycle
readAfterDrainReadyAt(Pacing pacing)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    p.writeDrain.mode = WriteDrainMode::Strict;
    p.writeDrain.highWatermark = 2;
    p.writeDrain.lowWatermark = 0;
    sched::FrFcfs sched;
    sched.configure(1, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    mc.submitWrite(0, 0, 5, 0, 0);
    mc.submitWrite(0, 0, 5, 1, 0);
    Cycle due = mc.nextEventAt(0);
    for (Cycle now = 0; now < 3000; ++now) {
        if (now == 1000) {
            mc.submitWrite(0, 1, 7, 0, now);
            mc.submitRead(0, 1, 2, 3, 0, now);
            due = mc.nextEventAt(now);
        }
        if (pacing == Pacing::OwnHorizon && now < due)
            continue;
        mc.tick(now);
        due = mc.nextEventAt(now + 1);
    }
    EXPECT_EQ(mc.stats().writesServiced, 3u);
    EXPECT_EQ(mc.completions().size(), 1u);
    return mc.completions().empty() ? kCycleNever
                                    : mc.completions().front().readyAt;
}

} // namespace

TEST(Controller, DrainLatchReleaseIsOnTheHorizon)
{
    // Releasing a drain latch is state the next scan depends on, so the
    // release must be an event even when the queues are already empty.
    EXPECT_EQ(readAfterDrainReadyAt(Pacing::OwnHorizon),
              readAfterDrainReadyAt(Pacing::EveryCycle));
}

TEST(Controller, NextEventAtNeverSkipsWorkWithPoliciesEngaged)
{
    // The event-horizon contract with every policy armed: a tick before
    // nextEventAt (and with no submission since the query) issues no
    // command. Speculative precharge and power-down fire while the
    // queues are empty, where only their own nextEventAt folds — driven
    // by the per-bank queue counts — bound the horizon.
    for (const dram::TimingParams &base :
         {timing(/*refresh=*/true), dram::protocols::ddr4_2400().derive()}) {
        dram::TimingParams t = base;
        ControllerParams p;
        p.writeDrain.mode = WriteDrainMode::Strict;
        p.writeDrain.highWatermark = 4;
        p.writeDrain.lowWatermark = 1;
        p.speculativePrecharge = true;
        p.powerDownIdleCycles = 700;
        sched::FrFcfs sched;
        sched.configure(4, 1, t.banksPerChannel);
        MemoryController mc(0, t, p, sched);

        tcm::Pcg32 rng(4242);
        const auto banks = static_cast<std::uint32_t>(t.banksPerChannel);
        std::uint64_t id = 1;
        Cycle horizon = 0;
        std::uint64_t skippedTicks = 0;
        for (Cycle now = 0; now < 60'000; ++now) {
            bool submitted = false;
            bool active = now % 6000 < 600;
            if (active && rng.nextBool(0.08) && mc.canAcceptRead()) {
                mc.submitRead(static_cast<ThreadId>(rng.nextBelow(4)), id++,
                              static_cast<BankId>(rng.nextBelow(banks)),
                              static_cast<RowId>(rng.nextBelow(4)),
                              static_cast<ColId>(rng.nextBelow(64)), now);
                submitted = true;
            }
            if (active && rng.nextBool(0.02) && mc.canAcceptWrite()) {
                mc.submitWrite(static_cast<ThreadId>(rng.nextBelow(4)),
                               static_cast<BankId>(rng.nextBelow(banks)),
                               static_cast<RowId>(rng.nextBelow(4)), 0, now);
                submitted = true;
            }
            const ControllerStats before = mc.stats();
            mc.tick(now);
            mc.completions().clear();
            if (!submitted && now < horizon) {
                ++skippedTicks;
                const ControllerStats &after = mc.stats();
                ASSERT_EQ(commandsIssued(after), commandsIssued(before))
                    << "command at " << now << " before horizon " << horizon;
                ASSERT_EQ(after.powerDowns + after.powerUps +
                              after.refreshes,
                          before.powerDowns + before.powerUps +
                              before.refreshes)
                    << "rank command at " << now << " before horizon "
                    << horizon;
            }
            horizon = mc.nextEventAt(now + 1);
        }
        EXPECT_GT(skippedTicks, 10'000u);
        EXPECT_GE(mc.stats().speculativePrecharges, 1u);
        EXPECT_GE(mc.stats().powerDowns, 1u);
        EXPECT_GE(mc.stats().powerUps, 1u);
    }
}

// ---------------------------------------------------------------------------
// Aging tier (ATLAS-style escalation)
// ---------------------------------------------------------------------------

namespace {

/** Scheduler that ranks thread 1 above thread 0 with a finite aging cap. */
class AgingRank : public sched::SchedulerPolicy
{
  public:
    const char *name() const override { return "aging-test"; }

    int
    rankOf(ChannelId, ThreadId t) const override
    {
        return t == 1 ? 1 : 0;
    }

    Cycle agingThreshold() const override { return 3000; }
};

} // namespace

TEST(Controller, OverAgeRequestBeatsHigherRank)
{
    dram::TimingParams t = timing();
    ControllerParams p;
    AgingRank sched;
    sched.configure(2, 1, t.banksPerChannel);
    MemoryController mc(0, t, p, sched);

    // Thread 0's request arrives first and ages past the threshold while
    // thread 1 (higher ranked) keeps the bank saturated with row hits.
    mc.submitRead(0, 999, 0, 9, 0, 0);
    Cycle now = 0;
    std::uint64_t id = 0;
    bool victim_done = false;
    Cycle victim_done_at = 0;
    for (; now < 20'000; ++now) {
        if (mc.canAcceptRead() && mc.readLoad() < 30) {
            ColId col = static_cast<ColId>(id % 64);
            mc.submitRead(1, id++, 0, 5, col, now);
        }
        mc.tick(now);
        for (const auto &c : mc.completions()) {
            if (c.missId == 999 && c.thread == 0) {
                victim_done = true;
                victim_done_at = now;
            }
        }
        mc.completions().clear();
        if (victim_done)
            break;
    }
    ASSERT_TRUE(victim_done);
    // Without aging the victim would starve ~forever; with a 3000-cycle
    // threshold it must finish shortly after aging out.
    EXPECT_LT(victim_done_at, 8000u);
}

// ---------------------------------------------------------------------------
// Legality table: the scan's horizon is the per-request brute force
// ---------------------------------------------------------------------------

namespace {

/**
 * Min over every queued request of the earliest cycle its next command
 * could issue, computed one request at a time — the per-request probe
 * the controller's per-bank legality table replaces.
 */
Cycle
bruteForceNextIssue(const MemoryController &mc,
                    const std::vector<Request> &queued)
{
    const dram::Channel &ch = mc.channel();
    Cycle best = kCycleNever;
    for (const Request &r : queued) {
        const dram::Bank &bank = ch.bank(r.bank);
        dram::CommandKind cmd = bank.precharged() ? dram::CommandKind::Activate
                                : bank.openRow() == r.row
                                    ? dram::CommandKind::Read
                                    : dram::CommandKind::Precharge;
        best = std::min(best, ch.earliestIssue(cmd, r.bank));
    }
    return best;
}

void
checkRefusedScanHorizon(const dram::TimingParams &t)
{
    // 96 reads piled onto three banks over four rows: most scans find
    // every candidate blocked (tRCD, tRP, tRAS, data bus), so the scan
    // horizon is decided entirely by the legality table's refusals.
    sched::FrFcfs sched;
    sched.configure(4, 1, t.banksPerChannel);
    MemoryController mc(0, t, ControllerParams{}, sched);
    tcm::Pcg32 rng(77);
    for (std::uint64_t id = 0; id < 96; ++id)
        mc.submitRead(static_cast<ThreadId>(id % 4), id,
                      static_cast<BankId>(rng.nextBelow(3)),
                      static_cast<RowId>(rng.nextBelow(4)),
                      static_cast<ColId>(id % 64), 0);

    std::uint64_t checked = 0;
    Cycle lastIssue = 0;
    bool issuedAny = false;
    for (Cycle now = 0; now < 200'000 && mc.readLoad() > 0; ++now) {
        const std::uint64_t before = commandsIssued(mc.stats());
        mc.tick(now);
        mc.completions().clear();
        if (commandsIssued(mc.stats()) != before) {
            lastIssue = now;
            issuedAny = true;
            continue;
        }
        // The horizon set after the last issue (the least earliest-issue
        // time over the queued classes, or a refused scan's bound) still
        // describes the channel: nothing has issued since.
        if (!issuedAny || now < lastIssue + t.tCK ||
            mc.nextArrivalAt() != kCycleNever)
            continue;
        const Cycle brute = bruteForceNextIssue(mc, mc.readQueue());
        ASSERT_NE(brute, kCycleNever);
        const Cycle expected = std::max(
            now + 1, std::max(brute, mc.channel().cmdBusFreeAt()));
        ASSERT_EQ(mc.nextEventAt(now + 1), expected) << "cycle " << now;
        ++checked;
    }
    EXPECT_EQ(mc.stats().readsServiced, 96u);
    EXPECT_GT(checked, 1000u);
}

} // namespace

TEST(Controller, RowHitWriteIssuesWhileSameRowReadWaitsOutTwtr)
{
    // Right after a write, a read to the same open row must wait out
    // tWTR while a second write to that row may go as soon as the data
    // bus frees. RD and WR hits of one bank are separate legality
    // classes: the refused RD must not decide the WR.
    for (const dram::TimingParams &base :
         {timing(), dram::protocols::ddr4_2400().derive()}) {
        dram::TimingParams t = base;
        t.refreshEnabled = false;
        sched::FrFcfs sched;
        sched.configure(2, 1, t.banksPerChannel);
        MemoryController mc(0, t, ControllerParams{}, sched);
        mc.submitWrite(0, 0, 5, 0, 0);
        Cycle now = 0;
        while (mc.stats().writesServiced == 0 && now < 10'000)
            mc.tick(now++);
        ASSERT_EQ(mc.stats().writesServiced, 1u);
        mc.submitRead(1, 1, 0, 5, 1, now);
        mc.submitWrite(1, 0, 5, 2, now);
        Cycle secondWriteAt = kCycleNever;
        Cycle readAt = kCycleNever;
        for (; now < 20'000 && readAt == kCycleNever; ++now) {
            mc.tick(now);
            if (secondWriteAt == kCycleNever && mc.stats().writesServiced == 2)
                secondWriteAt = now;
            if (mc.stats().readsServiced == 1)
                readAt = now;
        }
        ASSERT_NE(readAt, kCycleNever);
        EXPECT_LT(secondWriteAt, readAt) << "tWTR " << t.tWTR;
        EXPECT_EQ(mc.stats().activates, 1u); // both hit the open row
    }
}

TEST(Controller, PostIssueHorizonWakesOnlyScansThatIssue)
{
    // After a command, the next scan is due at the least earliest-issue
    // time over the queued classes, when one of them is legal by the
    // channel's legality contract. With no arrivals, refresh or drain
    // flips after the first scan, every later read scan issues.
    for (const dram::TimingParams &base :
         {timing(), dram::protocols::ddr4_2400().derive()}) {
        dram::TimingParams t = base;
        t.refreshEnabled = false;
        sched::FrFcfs sched;
        sched.configure(4, 1, t.banksPerChannel);
        MemoryController mc(0, t, ControllerParams{}, sched);
        prof::ControllerShard shard;
        mc.setProfile(&shard);
        tcm::Pcg32 rng(31);
        const auto banks = static_cast<std::uint32_t>(t.banksPerChannel);
        for (std::uint64_t id = 0; id < 96; ++id)
            mc.submitRead(static_cast<ThreadId>(id % 4), id,
                          static_cast<BankId>(rng.nextBelow(banks)),
                          static_cast<RowId>(rng.nextBelow(4)),
                          static_cast<ColId>(id % 64), 0);
        for (Cycle now = 0; now < 200'000 && mc.readLoad() > 0; ++now) {
            mc.tick(now);
            mc.completions().clear();
        }
        ASSERT_EQ(mc.stats().readsServiced, 96u);
        // One refused scan at arrival, when nothing is legal yet.
        EXPECT_LE(shard.scan.soaScans, commandsIssued(mc.stats()) + 1);
        EXPECT_EQ(shard.scan.fallbackScans, 0u);
    }
}

TEST(Controller, RefusedScanHorizonEqualsPerRequestMinimum)
{
    checkRefusedScanHorizon(timing());
}

TEST(Controller, RefusedScanHorizonEqualsPerRequestMinimumDdr4)
{
    dram::TimingParams t = dram::protocols::ddr4_2400().derive();
    t.refreshEnabled = false;
    checkRefusedScanHorizon(t);
}
