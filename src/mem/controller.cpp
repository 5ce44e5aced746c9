#include "mem/controller.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "prof/profiler.hpp"
#include "telemetry/sink.hpp"

namespace tcm::mem {

using dram::CommandKind;

// The legality table indexes its four entries per bank by CommandKind.
static_assert(static_cast<int>(CommandKind::Activate) == 0 &&
              static_cast<int>(CommandKind::Read) == 1 &&
              static_cast<int>(CommandKind::Write) == 2 &&
              static_cast<int>(CommandKind::Precharge) == 3);

MemoryController::MemoryController(ChannelId id,
                                   const dram::TimingParams &timing,
                                   const ControllerParams &params,
                                   SchedulerPolicy &sched)
    : id_(id),
      timing_(&timing),
      params_(params),
      sched_(&sched),
      channel_(timing, id),
      queue_(params.readQueueCap, params.writeQueueCap,
             timing.banksPerChannel)
{
    // Stagger per-rank refreshes across the tREFI window, as real
    // controllers do, so at most one rank is unavailable at a time.
    refreshDueAt_.resize(timing.ranksPerChannel);
    for (int r = 0; r < timing.ranksPerChannel; ++r) {
        refreshDueAt_[r] =
            timing.refreshEnabled
                ? timing.tREFI + r * (timing.tREFI / timing.ranksPerChannel)
                : kCycleNever;
    }
    rankLastActiveAt_.resize(timing.ranksPerChannel, 0);
    // A fresh channel has every bank precharged at version 0, which is
    // exactly what the empty snapshot says.
    openRow_.assign(timing.banksPerChannel, kNoRow);
    hits_[0].assign(timing.banksPerChannel, 0);
    hits_[1].assign(timing.banksPerChannel, 0);
    legality_.resize(4 * static_cast<std::size_t>(timing.banksPerChannel));
}

void
MemoryController::submitRead(ThreadId thread, std::uint64_t missId,
                             BankId bank, RowId row, ColId col, Cycle now)
{
    Request req;
    req.seq = nextSeq_++;
    req.thread = thread;
    req.isWrite = false;
    req.channel = id_;
    req.bank = bank;
    req.row = row;
    req.col = col;
    req.issuedAt = now;
    req.arrivedAt = now + timing_->cpuToMcDelay;
    req.missId = missId;
    maxThreadSeen_ = std::max(maxThreadSeen_, thread);
    queue_.addInFlight(req);
}

void
MemoryController::submitWrite(ThreadId thread, BankId bank, RowId row,
                              ColId col, Cycle now)
{
    Request req;
    req.seq = nextSeq_++;
    req.thread = thread;
    req.isWrite = true;
    req.channel = id_;
    req.bank = bank;
    req.row = row;
    req.col = col;
    req.issuedAt = now;
    req.arrivedAt = now + timing_->cpuToMcDelay;
    maxThreadSeen_ = std::max(maxThreadSeen_, thread);
    queue_.addInFlight(req);
}

void
MemoryController::refreshPolicyCache()
{
    // Ranks only move when the policy says so (rank epoch); between
    // bumps the cached vector is exact, so re-querying rankOf for every
    // thread on every scan would be pure waste. A cache smaller than
    // the thread population (a new thread appeared since the build) is
    // also rebuilt, since cachedRank's out-of-range fallback is the
    // virtual call this cache exists to avoid.
    const std::uint64_t epoch = sched_->rankEpoch();
    const std::size_t want = static_cast<std::size_t>(maxThreadSeen_) + 1;
    if (epoch == policyCacheEpoch_ && rankCache_.size() >= want)
        return;
    policyCacheEpoch_ = epoch;
    rankCache_.resize(want);
    for (ThreadId t = 0; t <= maxThreadSeen_; ++t)
        rankCache_[t] = sched_->rankOf(id_, t);
    agingCache_ = sched_->agingThreshold();
    rowHitAboveRankCache_ = sched_->rowHitAboveRank();
    useRowHitCache_ = sched_->useRowHit();

    // Rebuild the static key halves for every queued request. Rank and
    // marked bits only move with the rank epoch (PAR-BS bumps it
    // whenever it flips marked bits), so between rebuilds the keys
    // stamped here — and at admit time for new arrivals — stay exact.
    for (bool writes : {false, true}) {
        const std::vector<Request> &q =
            writes ? queue_.writes() : queue_.reads();
        std::vector<std::uint64_t> &keyHi = queue_.keyHi(writes);
        for (std::size_t i = 0; i < q.size(); ++i)
            keyHi[i] = packedKeyHi(q[i].thread, q[i].marked);
    }
}

std::uint64_t
MemoryController::packedKeyHi(ThreadId thread, bool marked) const
{
    // Key layout (descending priority, Algorithm 3 generalized):
    //   bit 63     over-age escalation        (dynamic, set per scan)
    //   bit 62     batch bit (PAR-BS)
    //   bit 61     row hit when rowHitAboveRank (dynamic, set per scan)
    //   bits 29-60 rank, biased by 2^31 (every int fits)
    //   bit 28     row hit otherwise          (dynamic, set per scan)
    // keyLo is ~arrivedAt (older is larger); exact ties fall back to an
    // explicit seq compare in the scan.
    const std::uint32_t biased =
        static_cast<std::uint32_t>(cachedRank(thread)) ^ 0x80000000u;
    std::uint64_t hi = static_cast<std::uint64_t>(biased) << 29;
    if (marked)
        hi |= std::uint64_t{1} << 62;
    return hi;
}

void
MemoryController::maybeAutoPrecharge(const Request &served)
{
    if (params_.pagePolicy != PagePolicy::Closed)
        return;
    // Smart-closed: keep the row open if another queued request would
    // hit it. The served row is the bank's synced open row and the
    // served request has left the hit counts, so they answer directly.
    assert(openRow_[served.bank] == served.row);
    if (hits_[0][served.bank] + hits_[1][served.bank] > 0)
        return;
    channel_.autoPrecharge(served.bank);
    ++stats_.precharges;
}

bool
MemoryController::refreshEngine(Cycle now)
{
    const int banks_per_rank = timing_->banksPerRank();
    bool pending = false;
    for (int r = 0; r < channel_.numRanks(); ++r) {
        if (now < refreshDueAt_[r])
            continue;
        pending = true;
        BankId base = static_cast<BankId>(r * banks_per_rank);
        // A powered-down rank cannot accept a refresh: power it up first
        // (tCKE permitting) and keep holding the command slot.
        if (channel_.rankPoweredDown(r)) {
            if (channel_.canIssue(CommandKind::PowerUp, base, now)) {
                channel_.issue(CommandKind::PowerUp, base, kNoRow, now);
                ++stats_.powerUps;
            }
            return true;
        }
        if (channel_.canIssue(CommandKind::Refresh, base, now)) {
            channel_.issue(CommandKind::Refresh, base, kNoRow, now);
            ++stats_.refreshes;
            refreshDueAt_[r] += timing_->tREFI;
            rankLastActiveAt_[r] = now;
            return true;
        }
        // Work toward a rank-precharged state; one PRE per cycle.
        if (channel_.cmdBusFree(now)) {
            for (BankId b = base; b < base + banks_per_rank; ++b) {
                if (channel_.canIssue(CommandKind::Precharge, b, now)) {
                    channel_.issue(CommandKind::Precharge, b, kNoRow, now);
                    ++stats_.precharges;
                    return true;
                }
            }
        }
    }
    // While a refresh is owed, the command slot is reserved for it.
    return pending;
}

bool
MemoryController::rankHasQueuedWork(int rank) const
{
    const int banks_per_rank = timing_->banksPerRank();
    const BankId base = static_cast<BankId>(rank * banks_per_rank);
    for (BankId b = base; b < base + banks_per_rank; ++b)
        if (queue_.queuedAt(b) > 0)
            return true;
    return false;
}

bool
MemoryController::powerManagement(Cycle now)
{
    const int banks_per_rank = timing_->banksPerRank();
    for (int r = 0; r < channel_.numRanks(); ++r) {
        BankId base = static_cast<BankId>(r * banks_per_rank);
        if (channel_.rankPoweredDown(r)) {
            // Wake the rank as soon as work is queued for it (refresh
            // wake-ups are the refresh engine's job).
            if (rankHasQueuedWork(r) &&
                channel_.canIssue(CommandKind::PowerUp, base, now)) {
                channel_.issue(CommandKind::PowerUp, base, kNoRow, now);
                ++stats_.powerUps;
                rankLastActiveAt_[r] = now;
                return true;
            }
            continue;
        }
        if (now < rankLastActiveAt_[r] + params_.powerDownIdleCycles ||
            rankHasQueuedWork(r))
            continue;
        // Idle long enough: close open banks (one per cycle), then enter
        // power-down. These precharges intentionally do not refresh the
        // idle stamp, or each would push the entry out by a full
        // threshold.
        if (channel_.canIssue(CommandKind::PowerDown, base, now)) {
            channel_.issue(CommandKind::PowerDown, base, kNoRow, now);
            ++stats_.powerDowns;
            return true;
        }
        if (channel_.cmdBusFree(now)) {
            for (BankId b = base; b < base + banks_per_rank; ++b) {
                if (channel_.canIssue(CommandKind::Precharge, b, now)) {
                    channel_.issue(CommandKind::Precharge, b, kNoRow, now);
                    ++stats_.precharges;
                    return true;
                }
            }
        }
    }
    return false;
}

bool
MemoryController::trySpeculativePrecharge(Cycle now, Cycle &nextPossible)
{
    // Close open banks that no queued request targets; demand precharges
    // (row conflicts) already belong to the scheduling scans. The bank
    // snapshot was synced before the tick's scans.
    for (BankId b = 0; b < channel_.numBanks(); ++b) {
        if (openRow_[b] == kNoRow || queue_.queuedAt(b) > 0)
            continue;
        const Legality &pre = legality(CommandKind::Precharge, b);
        if (now >= pre.legalFrom) {
            channel_.issue(CommandKind::Precharge, b, kNoRow, now);
            ++stats_.precharges;
            ++stats_.speculativePrecharges;
            return true;
        }
        nextPossible = std::min(nextPossible, pre.at);
    }
    return false;
}

void
MemoryController::refreshLegality(Legality &e, CommandKind kind, BankId bank)
{
    if (prof_)
        ++prof_->scan.legalityProbes;
    e.version = channel_.version();
    e.at = channel_.earliestIssue(kind, bank);
    e.legalFrom = channel_.rankPoweredDown(channel_.rankOf(bank))
                      ? kCycleNever
                      : e.at;
}

int
MemoryController::countHits(const QueueMirror &m, BankId b, RowId row)
{
    if (row == kNoRow || m.count[b] == 0)
        return 0;
    int hits = 0;
    const std::uint64_t *slots = m.slotsOf(b);
    for (std::size_t w = 0; w < m.words; ++w)
        for (std::uint64_t bits = slots[w]; bits != 0; bits &= bits - 1) {
            const std::size_t i =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            hits += m.row[i] == row ? 1 : 0;
        }
    return hits;
}

void
MemoryController::syncBanks()
{
    if (channel_.version() == syncedVersion_)
        return;
    syncedVersion_ = channel_.version();
    for (BankId b = 0; b < channel_.numBanks(); ++b) {
        const RowId open = channel_.bank(b).openRow();
        if (open == openRow_[b])
            continue;
        openRow_[b] = open;
        hits_[0][b] = countHits(queue_.mirror(false), b, open);
        hits_[1][b] = countHits(queue_.mirror(true), b, open);
    }
}

bool
MemoryController::scanIssue(bool writes, Cycle now, Cycle &nextPossible)
{
    const std::vector<Request> &q = writes ? queue_.writes() : queue_.reads();
    if (q.empty())
        return false;
    prof::ScopedPhase profScan(prof_ && !writes ? &prof_->phases : nullptr,
                               prof::Phase::ReadScan);
    const QueueMirror &m = queue_.mirror(writes);
    const std::vector<int> &hits = hits_[writes ? 1 : 0];
    const CommandKind hitKind =
        writes ? CommandKind::Write : CommandKind::Read;
    const RowId *row = m.row.data();
    const Cycle *arrivedAt = m.arrivedAt.data();
    const std::uint64_t *keyHi = m.keyHi.data();

    // agingOn folds the "no aging" and "nothing can be aged yet" cases:
    // arrivedAt + agingCache_ <= now has no solution while now is below
    // the threshold itself.
    const bool agingOn = agingCache_ != kCycleNever && now >= agingCache_;
    const Cycle agedCutoff = agingOn ? now - agingCache_ : 0;
    const std::uint64_t rowHitMask =
        useRowHitCache_
            ? std::uint64_t{1} << (rowHitAboveRankCache_ ? 61 : 28)
            : 0;

    std::size_t best = 0;
    bool found = false;
    CommandKind bestCmd = hitKind;
    std::uint64_t bestHi = 0;
    std::uint64_t bestLo = 0;
    std::uint64_t keyed = 0;
    for (BankId b = 0; b < channel_.numBanks(); ++b) {
        const int queued = m.count[b];
        if (queued == 0)
            continue;
        // Which of the bank's present classes may issue now. A refused
        // class folds its earliest-issue time into the bound, which is
        // only trusted when no command issues this cycle.
        const RowId open = openRow_[b];
        const CommandKind missKind =
            open == kNoRow ? CommandKind::Activate : CommandKind::Precharge;
        bool hitOk = false;
        bool missOk = false;
        if (hits[b] > 0) {
            const Legality &e = legality(hitKind, b);
            hitOk = now >= e.legalFrom;
            if (!hitOk)
                nextPossible = std::min(nextPossible, e.at);
        }
        if (queued > hits[b]) {
            const Legality &e = legality(missKind, b);
            missOk = now >= e.legalFrom;
            if (!missOk)
                nextPossible = std::min(nextPossible, e.at);
        }
        if (!hitOk && !missOk)
            continue;

        const std::uint64_t *slots = m.slotsOf(b);
        for (std::size_t w = 0; w < m.words; ++w) {
            for (std::uint64_t bits = slots[w]; bits != 0; bits &= bits - 1) {
                const std::size_t i =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                const bool hit = row[i] == open;
                if (!(hit ? hitOk : missOk))
                    continue;
                ++keyed;
                std::uint64_t hi = keyHi[i];
                hi |= static_cast<std::uint64_t>(agingOn &&
                                                 arrivedAt[i] <= agedCutoff)
                      << 63;
                if (hit)
                    hi |= rowHitMask;
                const std::uint64_t lo = ~arrivedAt[i];
                if (found &&
                    (hi < bestHi ||
                     (hi == bestHi &&
                      (lo < bestLo ||
                       (lo == bestLo && q[i].seq > q[best].seq)))))
                    continue;
                found = true;
                best = i;
                bestCmd = hit ? hitKind : missKind;
                bestHi = hi;
                bestLo = lo;
            }
        }
    }
    if (prof_ && !writes) {
        ++prof_->scan.soaScans;
        prof_->scan.readsExamined += keyed;
        prof_->scan.dominanceSkipped += q.size() - keyed;
    }
    if (!found)
        return false;
    issueSelected(writes, best, bestCmd, now);
    return true;
}

void
MemoryController::issueSelected(bool writes, std::size_t slot, CommandKind cmd,
                                Cycle now)
{
    std::vector<Request> &queue = writes ? queue_.writes() : queue_.reads();
    Request req = queue[slot]; // copy: removal invalidates references
    dram::IssueResult res = channel_.issue(cmd, req.bank, req.row, now);
    stats_.bankBusyCycles += res.occupancy;
    rankLastActiveAt_[channel_.rankOf(req.bank)] = now;
    sched_->onCommand(req, cmd, now, res.occupancy);

    switch (cmd) {
      case CommandKind::Activate:
        ++stats_.activates;
        ++stats_.rowMisses;
        queue[slot].sawActivate = true;
        break;
      case CommandKind::Precharge:
        ++stats_.precharges;
        break;
      case CommandKind::Read:
        ++stats_.readsServiced;
        if (!req.sawActivate)
            ++stats_.rowHits;
        completions_.push_back(Completion{
            req.thread, req.missId, res.dataEnd + timing_->mcToCpuDelay});
        latency_.record(req.thread,
                        res.dataEnd + timing_->mcToCpuDelay - req.issuedAt);
        if (lifecycle_)
            lifecycle_->recordLifecycle(
                req.thread, now - req.arrivedAt,
                res.dataEnd + timing_->mcToCpuDelay - now);
        --hits_[0][req.bank]; // a column command always hits
        queue_.removeRead(slot);
        // Departure is stamped at the end of the data burst: a request
        // is "outstanding" (Table 2's load counters) until serviced, not
        // merely until its column command issues.
        sched_->onDepart(req, res.dataEnd);
        maybeAutoPrecharge(req);
        break;
      case CommandKind::Write:
        ++stats_.writesServiced;
        if (!req.sawActivate)
            ++stats_.rowHits;
        --hits_[1][req.bank];
        queue_.removeWrite(slot);
        sched_->onDepart(req, res.dataEnd);
        maybeAutoPrecharge(req);
        break;
      case CommandKind::Refresh:
      case CommandKind::PowerDown:
      case CommandKind::PowerUp:
        break; // issued by the refresh/power engines, never selected here
    }
}

Cycle
MemoryController::queueHorizon(bool writes)
{
    const QueueMirror &m = queue_.mirror(writes);
    const std::vector<int> &hits = hits_[writes ? 1 : 0];
    const CommandKind hitKind =
        writes ? CommandKind::Write : CommandKind::Read;
    Cycle horizon = kCycleNever;
    for (BankId b = 0; b < channel_.numBanks(); ++b) {
        if (hits[b] > 0)
            horizon = std::min(horizon, legality(hitKind, b).at);
        if (m.count[b] > hits[b])
            horizon = std::min(horizon,
                               legality(openRow_[b] == kNoRow
                                            ? CommandKind::Activate
                                            : CommandKind::Precharge,
                                        b)
                                   .at);
    }
    return horizon;
}

Cycle
MemoryController::postIssueHorizon(Cycle now)
{
    const Cycle soon = now + timing_->tCK;
    // The next scan re-evaluates the drain latch first. Writes only
    // arrive through admission, which re-arms the scan at once, so the
    // queue size that scan sees is today's.
    const std::size_t writes = queue_.writes().size();
    const bool flips =
        drainingWrites_
            ? writes <= static_cast<std::size_t>(
                            params_.writeDrain.lowWatermark)
            : writes >= static_cast<std::size_t>(
                            params_.writeDrain.highWatermark);
    if (flips)
        return soon;

    syncBanks();
    Cycle horizon = queueHorizon(/*writes=*/true);
    if (!drainingWrites_ ||
        params_.writeDrain.mode == WriteDrainMode::Opportunistic)
        horizon = std::min(horizon, queueHorizon(/*writes=*/false));
    if (params_.speculativePrecharge) {
        for (BankId b = 0; b < channel_.numBanks(); ++b)
            if (openRow_[b] != kNoRow && queue_.queuedAt(b) == 0)
                horizon = std::min(
                    horizon, legality(CommandKind::Precharge, b).at);
    }
    return std::max(soon, horizon);
}

void
MemoryController::tick(Cycle now)
{
    prof::ScopedPhase profTick(prof_ ? &prof_->phases : nullptr,
                               prof::Phase::CtrlTick);
    {
        const std::vector<Request> &arrived = queue_.admitArrivals(now);
        if (!arrived.empty()) {
            // The just-admitted requests occupy the queue tails in
            // arrival order; stamp their static key halves with the same
            // cached knobs the queued keys were built from, and count
            // the hits against the bank snapshot (syncBanks recounts a
            // bank whose row has moved since).
            std::size_t slot[2] = {queue_.reads().size(),
                                   queue_.writes().size()};
            for (const Request &req : arrived)
                --slot[req.isWrite ? 1 : 0];
            for (const Request &req : arrived) {
                const int w = req.isWrite ? 1 : 0;
                queue_.keyHi(req.isWrite)[slot[w]++] =
                    packedKeyHi(req.thread, req.marked);
                if (req.row == openRow_[req.bank])
                    ++hits_[w][req.bank];
                sched_->onArrival(req, now);
            }
            nextTryAt_ = now; // a fresh request may be issuable at once
        }
    }

    if (timing_->refreshEnabled && refreshEngine(now)) {
        nextTryAt_ = now; // refresh touched channel state
        return;
    }

    if (params_.powerDownIdleCycles > 0 && powerManagement(now)) {
        nextTryAt_ = now; // power state moved; rescan next cycle
        return;
    }

    if (params_.idleSkip && now < nextTryAt_)
        return;

    if (!channel_.cmdBusFree(now))
        return;

    // Decide whether this cycle serves the read stream or drains writes.
    if (drainingWrites_) {
        if (queue_.writes().size() <=
            static_cast<std::size_t>(params_.writeDrain.lowWatermark)) {
            drainingWrites_ = false;
        }
    } else if (queue_.writes().size() >=
               static_cast<std::size_t>(params_.writeDrain.highWatermark)) {
        drainingWrites_ = true;
        ++stats_.writeDrains;
    }

    // Lower bound on the next cycle a command could issue, refined by
    // the scans below; only trusted when no command issues this cycle.
    Cycle next_possible = kCycleNever;

    refreshPolicyCache();
    syncBanks();

    bool issued = false;
    if (drainingWrites_) {
        // Opportunistic drains still make progress on reads if no write
        // can issue this cycle (keeps the bus utilized); Strict reserves
        // the whole latched drain for writes.
        issued = scanIssue(/*writes=*/true, now, next_possible) ||
                 (params_.writeDrain.mode == WriteDrainMode::Opportunistic &&
                  scanIssue(/*writes=*/false, now, next_possible));
    } else {
        // Opportunistic write issue when the read stream cannot use the
        // slot.
        issued = scanIssue(/*writes=*/false, now, next_possible) ||
                 scanIssue(/*writes=*/true, now, next_possible);
    }
    if (!issued && params_.speculativePrecharge)
        issued = trySpeculativePrecharge(now, next_possible);
    nextTryAt_ = issued ? postIssueHorizon(now) : next_possible;
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    // Next transported request becomes visible (admitArrivals + hooks).
    Cycle horizon = queue_.nextArrivalAt();

    if (timing_->refreshEnabled) {
        for (Cycle due : refreshDueAt_) {
            // While a refresh is owed the engine owns the command slot
            // and issues precharges/refreshes on its own timing; don't
            // predict it, execute every cycle until it retires the owed
            // refresh (short: bounded by tRP + tRFC).
            if (due <= now)
                return now;
            horizon = std::min(horizon, due);
        }
    }

    // Next scheduling scan that could issue a command. nextTryAt_ is a
    // correct lower bound on the next legal issue time in both idleSkip
    // modes (it is maintained identically; idleSkip only selects
    // whether the per-cycle tick consults it), and no command can leave
    // before the command bus frees. Scans before that bound are no-ops:
    // priorities (ranks, marked bits, aging) affect which request wins
    // a scan, never whether a command can legally issue. A drain latch
    // still set over empty queues (possible with a low watermark of 0)
    // is released by the next scan, and the scans after it depend on
    // that release, so it keeps the scan term armed too.
    if (!queue_.reads().empty() || !queue_.writes().empty() ||
        drainingWrites_)
        horizon = std::min(horizon,
                           std::max(nextTryAt_, channel_.cmdBusFreeAt()));

    // A pending speculative precharge is scan-independent work: it can
    // issue even with empty queues (which the scan horizon above does
    // not cover), so fold the earliest eligible one.
    if (params_.speculativePrecharge) {
        for (int b = 0; b < channel_.numBanks(); ++b)
            if (!channel_.bank(b).precharged() && queue_.queuedAt(b) == 0)
                horizon = std::min(
                    horizon,
                    channel_.earliestIssue(dram::CommandKind::Precharge, b));
    }

    // Power-management events (powerDownIdleCycles > 0): a pending
    // wake-up, or an idle rank's next precharge/PowerDown step. Skipping
    // past these would shift when PDE/PDX issue and break cross-mode
    // trace identity.
    if (params_.powerDownIdleCycles > 0) {
        const int banks_per_rank = timing_->banksPerRank();
        for (int r = 0; r < channel_.numRanks(); ++r) {
            BankId base = static_cast<BankId>(r * banks_per_rank);
            if (channel_.rankPoweredDown(r)) {
                // Stays down until work arrives (arrival horizon above)
                // or refresh comes due (refresh horizon above); a
                // pending wake-up waits only on tCKE and the bus.
                if (rankHasQueuedWork(r))
                    horizon = std::min(
                        horizon, std::max(channel_.rankPowerUpAllowedAt(r),
                                          channel_.cmdBusFreeAt()));
                continue;
            }
            if (rankHasQueuedWork(r))
                continue;
            Cycle idleAt =
                rankLastActiveAt_[r] + params_.powerDownIdleCycles;
            Cycle step =
                channel_.earliestIssue(dram::CommandKind::PowerDown, base);
            for (BankId b = base; b < base + banks_per_rank; ++b)
                step = std::min(step,
                                channel_.earliestIssue(
                                    dram::CommandKind::Precharge, b));
            if (step != kCycleNever)
                horizon = std::min(horizon, std::max(idleAt, step));
        }
    }

    return std::max(horizon, now);
}

} // namespace tcm::mem
