/**
 * @file
 * Unit tests for the core model: retirement, window stalls, memory issue
 * limits and write handling.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/core.hpp"
#include "core/trace.hpp"
#include "mem/controller.hpp"
#include "sched/frfcfs.hpp"

using namespace tcm;
using namespace tcm::core;

namespace {

/** Scripted trace for deterministic tests; repeats the last item. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceItem> items)
        : items_(std::move(items))
    {
    }

    TraceItem
    next() override
    {
        if (pos_ < items_.size())
            return items_[pos_++];
        // Tail: pure compute so the core never runs dry.
        TraceItem filler;
        filler.gap = 1'000'000;
        filler.access.channel = 0;
        filler.access.bank = 0;
        filler.access.row = 0;
        filler.access.col = 0;
        return filler;
    }

  private:
    std::vector<TraceItem> items_;
    std::size_t pos_ = 0;
};

TraceItem
readAt(std::uint64_t gap, BankId bank, RowId row, ColId col)
{
    TraceItem i;
    i.gap = gap;
    i.access.isWrite = false;
    i.access.channel = 0;
    i.access.bank = bank;
    i.access.row = row;
    i.access.col = col;
    return i;
}

TraceItem
writeAt(std::uint64_t gap, BankId bank, RowId row, ColId col)
{
    TraceItem i = readAt(gap, bank, row, col);
    i.access.isWrite = true;
    return i;
}

struct Rig
{
    dram::TimingParams timing = dram::TimingParams::ddr2_800();
    mem::ControllerParams params;
    sched::FrFcfs sched;
    std::unique_ptr<mem::MemoryController> mc;
    mem::CoreCounters counters;
    std::unique_ptr<ScriptedTrace> trace;
    std::unique_ptr<Core> core;

    explicit Rig(std::vector<TraceItem> items, CoreParams cp = CoreParams{})
    {
        timing.refreshEnabled = false;
        sched.configure(1, 1, timing.banksPerChannel);
        mc = std::make_unique<mem::MemoryController>(0, timing, params,
                                                     sched);
        trace = std::make_unique<ScriptedTrace>(std::move(items));
        core = std::make_unique<Core>(0, cp, *trace,
                                      std::vector<mem::MemoryController *>{
                                          mc.get()},
                                      &counters);
    }

    void
    run(Cycle cycles, Cycle from = 0)
    {
        for (Cycle now = from; now < from + cycles; ++now) {
            mc->tick(now);
            for (const auto &c : mc->completions())
                core->completeMiss(c.missId, c.readyAt);
            mc->completions().clear();
            core->tick(now);
        }
    }
};

} // namespace

TEST(Core, PureComputeRetiresAtFullWidth)
{
    Rig rig({});
    rig.run(1000);
    // 3-wide retire; allow a couple of cycles of pipeline fill.
    EXPECT_GE(rig.counters.instructions, 3u * 1000 - 10);
    EXPECT_LE(rig.counters.instructions, 3u * 1000);
    EXPECT_EQ(rig.counters.readMisses, 0u);
}

TEST(Core, SingleMissStallsRetirementUntilData)
{
    // One miss right away, then compute.
    Rig rig({readAt(0, 0, 5, 0)});
    rig.run(200);
    // The miss (closed bank, ~275 cycles) has not returned: only the
    // instructions ahead of it could retire - there are none.
    EXPECT_EQ(rig.counters.instructions, 0u);
    rig.run(400, 200);
    EXPECT_GT(rig.counters.instructions, 100u);
    EXPECT_EQ(rig.counters.readMisses, 1u);
}

TEST(Core, DormantWakeAtFollowsTheHeadMiss)
{
    // One miss, then compute that fills the window behind it.
    Rig rig({readAt(0, 0, 5, 0)});
    EXPECT_EQ(rig.core->dormantWakeAt(0), 0u); // empty window: not dormant
    rig.core->tick(0); // submits the miss
    for (Cycle now = 1; now < 100; ++now)
        rig.core->tick(now);
    ASSERT_EQ(rig.core->windowOccupancy(), CoreParams{}.windowSize);

    // Full window behind an undelivered miss: only a completion can
    // wake the core.
    EXPECT_EQ(rig.core->dormantWakeAt(100), kCycleNever);
    EXPECT_EQ(rig.core->silentSpan(100, 50), 50u);

    Cycle now = 100;
    for (; rig.mc->completions().empty(); ++now)
        rig.mc->tick(now);
    const Cycle readyAt = rig.mc->completions().front().readyAt;
    ASSERT_GT(readyAt, now);
    rig.core->completeMiss(rig.mc->completions().front().missId, readyAt);

    // Delivered: dormant until the data is ready, then due at once.
    EXPECT_EQ(rig.core->dormantWakeAt(now), readyAt);
    EXPECT_EQ(rig.core->silentSpan(now, kCycleNever), readyAt - now);
    EXPECT_EQ(rig.core->dormantWakeAt(readyAt), readyAt);
    EXPECT_EQ(rig.core->silentSpan(readyAt, 10), 0u);
}

TEST(Core, OutOfOrderCompletionsBeyondTheWindowRetireInOrder)
{
    // A 4-entry window of back-to-back misses whose completions arrive
    // out of order, head last, for more rounds than the window has
    // entries: every miss id reuses a completion slot of an earlier,
    // already retired one. The head's ready time wakes the core, which
    // then retires in program order at the full retire width.
    std::vector<TraceItem> items;
    for (int i = 0; i < 64; ++i)
        items.push_back(readAt(0, i % 4, 5, i % 64));
    CoreParams cp;
    cp.windowSize = 4;
    Rig rig(std::move(items), cp);

    // Ready-time offsets by position in the window: head last.
    const Cycle offsets[4] = {20, 14, 16, 12};
    const std::uint64_t order[4] = {2, 0, 3, 1}; // delivery order
    std::uint64_t firstId = 1;
    Cycle now = 0;
    for (int round = 0; round < 5; ++round) {
        // Fill the window with this round's four misses.
        while (rig.counters.readMisses < firstId + 3)
            rig.core->tick(now++);
        ASSERT_EQ(rig.core->windowOccupancy(), 4) << round;
        EXPECT_EQ(rig.core->dormantWakeAt(now), kCycleNever) << round;

        for (std::uint64_t pos : order)
            rig.core->completeMiss(firstId + pos, now + offsets[pos]);
        const Cycle wake = now + offsets[0];
        EXPECT_EQ(rig.core->dormantWakeAt(now), wake) << round;

        const std::uint64_t retired = rig.counters.instructions;
        for (; now < wake; ++now)
            rig.core->tick(now);
        EXPECT_EQ(rig.counters.instructions, retired) << round;
        rig.core->tick(now++); // the head and the two behind it
        EXPECT_EQ(rig.counters.instructions, retired + 3) << round;
        rig.core->tick(now++); // the fourth
        EXPECT_EQ(rig.counters.instructions, retired + 4) << round;
        firstId += 4;
    }
    EXPECT_EQ(rig.counters.instructions, 20u);
}

TEST(Core, ComputeAheadOfMissRetiresImmediately)
{
    Rig rig({readAt(9, 0, 5, 0)});
    rig.run(10);
    // The 9 plain instructions ahead of the miss retire in 3+ cycles.
    EXPECT_EQ(rig.counters.instructions, 9u);
}

TEST(Core, WindowLimitsOutstandingWork)
{
    // Back-to-back misses to the same bank/row: the window holds at most
    // windowSize entries, so at most that many misses are in flight.
    std::vector<TraceItem> items;
    for (int i = 0; i < 500; ++i)
        items.push_back(readAt(0, 0, 5, i % 64));
    CoreParams cp;
    cp.windowSize = 16;
    Rig rig(std::move(items), cp);
    rig.run(100);
    EXPECT_LE(rig.counters.readMisses, 16u);
    EXPECT_EQ(rig.core->windowOccupancy(), 16);
}

TEST(Core, OneMemoryOpPerCycle)
{
    std::vector<TraceItem> items;
    for (int i = 0; i < 10; ++i)
        items.push_back(readAt(0, 0, 5, i));
    Rig rig(std::move(items));
    rig.run(5);
    // Even with fetch width 3, only one miss issues per cycle.
    EXPECT_LE(rig.counters.readMisses, 5u);
    EXPECT_GE(rig.counters.readMisses, 4u);
}

TEST(Core, WritesDoNotBlockRetirement)
{
    // A write then compute: the write is posted, instructions behind it
    // keep retiring at full width.
    Rig rig({writeAt(0, 0, 5, 0), readAt(600, 0, 5, 1)});
    rig.run(100);
    EXPECT_GE(rig.counters.instructions, 250u);
    EXPECT_EQ(rig.counters.readMisses, 0u);
}

TEST(Core, WriteBackpressureStallsFetch)
{
    std::vector<TraceItem> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(writeAt(0, 0, 5, i % 64));
    Rig rig(std::move(items));
    // Saturate: the 64-entry write buffer fills; fetch stalls rather
    // than dropping writes.
    rig.run(30);
    EXPECT_LE(rig.mc->writeLoad(), 64u);
}

TEST(Core, IpcOfMemoryBoundThreadTracksServiceRate)
{
    // Row-hit stream, one bank: service rate ~ 1 request / tBURST cycles
    // once the row is open; each request carries ~9 extra instructions.
    std::vector<TraceItem> items;
    for (int i = 0; i < 3000; ++i)
        items.push_back(readAt(9, 0, 5, i % 64));
    Rig rig(std::move(items));
    rig.run(60'000);
    double ipc = static_cast<double>(rig.counters.instructions) / 60'000;
    // 10 instructions per ~50-cycle burst slot -> IPC around 0.2, far
    // below the 3.0 compute bound. Bounds are intentionally loose.
    EXPECT_GT(ipc, 0.05);
    EXPECT_LT(ipc, 0.6);
}

TEST(Core, CountersAccumulateMonotonically)
{
    std::vector<TraceItem> items;
    for (int i = 0; i < 100; ++i)
        items.push_back(readAt(20, i % 4, 5, i % 64));
    Rig rig(std::move(items));
    std::uint64_t last_insts = 0, last_misses = 0;
    for (int chunk = 0; chunk < 20; ++chunk) {
        rig.run(500, chunk * 500);
        EXPECT_GE(rig.counters.instructions, last_insts);
        EXPECT_GE(rig.counters.readMisses, last_misses);
        last_insts = rig.counters.instructions;
        last_misses = rig.counters.readMisses;
    }
}
