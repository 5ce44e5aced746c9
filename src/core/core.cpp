#include "core/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tcm::core {

Core::Core(ThreadId id, const CoreParams &params, TraceSource &trace,
           std::vector<mem::MemoryController *> controllers,
           mem::CoreCounters *counters)
    : id_(id),
      params_(params),
      trace_(&trace),
      controllers_(std::move(controllers)),
      counters_(counters),
      doneAt_(std::bit_ceil(static_cast<std::size_t>(
                  std::max(params.windowSize, 1))),
              kCycleNever),
      doneMask_(doneAt_.size() - 1)
{
    assert(counters_ != nullptr);
}

void
Core::completeMiss(std::uint64_t missId, Cycle readyAt)
{
    doneAt_[missId & doneMask_] = readyAt;
}

void
Core::retire(Cycle now)
{
    int slots = params_.retireWidth;
    while (slots > 0 && !window_.empty()) {
        Entry &head = window_.front();
        if (head.plain > 0) {
            std::uint32_t n = std::min<std::uint32_t>(slots, head.plain);
            head.plain -= n;
            occupancy_ -= static_cast<int>(n);
            counters_->instructions += n;
            slots -= static_cast<int>(n);
            if (head.plain == 0)
                window_.pop_front();
        } else {
            Cycle &ready = doneAt_[head.missId & doneMask_];
            if (ready > now)
                break; // head-of-window miss still outstanding
            ready = kCycleNever;
            window_.pop_front();
            occupancy_ -= 1;
            counters_->instructions += 1;
            slots -= 1;
        }
    }
}

void
Core::fetch(Cycle now)
{
    int slots = params_.fetchWidth;
    int memIssued = 0;
    while (slots > 0 && occupancy_ < params_.windowSize) {
        if (!havePending_) {
            TraceItem item = trace_->next();
            pendingGap_ = item.gap;
            pendingAccess_ = item.access;
            havePending_ = true;
        }
        if (pendingGap_ > 0) {
            std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                {static_cast<std::uint64_t>(slots),
                 static_cast<std::uint64_t>(params_.windowSize - occupancy_),
                 pendingGap_}));
            if (!window_.empty() && window_.back().plain > 0)
                window_.back().plain += n;
            else
                window_.push_back(Entry{n, 0});
            occupancy_ += static_cast<int>(n);
            pendingGap_ -= n;
            slots -= static_cast<int>(n);
            continue;
        }

        // The pending memory access is at the fetch head.
        if (memIssued >= params_.maxMemPerCycle)
            break;
        mem::MemoryController *mc = controllers_[pendingAccess_.channel];
        if (pendingAccess_.isWrite) {
            if (!mc->canAcceptWrite())
                break; // write buffer full: structural stall
            mc->submitWrite(id_, pendingAccess_.bank, pendingAccess_.row,
                            pendingAccess_.col, now);
            // Writebacks are not instructions and do not enter the window.
            ++memIssued;
            slots -= 1;
            havePending_ = false;
        } else {
            if (!mc->canAcceptRead())
                break; // request buffer full: structural stall
            std::uint64_t missId = nextMissId_++;
            mc->submitRead(id_, missId, pendingAccess_.bank,
                           pendingAccess_.row, pendingAccess_.col, now);
            window_.push_back(Entry{0, missId});
            occupancy_ += 1;
            counters_->readMisses += 1;
            ++memIssued;
            slots -= 1;
            havePending_ = false;
        }
    }
}

void
Core::tick(Cycle now)
{
    retire(now);
    fetch(now);
}

bool
Core::wouldSubmitAt(Cycle now)
{
    // Fast negative: a submission requires fetch to reach the pending
    // access, which it cannot while enough plain instructions precede
    // it to exhaust every fetch slot.
    if (havePending_ &&
        pendingGap_ >= static_cast<std::uint64_t>(params_.fetchWidth))
        return false;

    // Fast negative: fully stalled window (head miss undone) admits no
    // fetch at all.
    if (occupancy_ >= params_.windowSize && !window_.empty() &&
        window_.front().plain == 0 &&
        missReadyAt(window_.front().missId) > now)
        return false;

    // --- exact peek: retire (no mutation) ---
    int slots = params_.retireWidth;
    int freed = 0;
    std::size_t idx = 0;
    while (slots > 0 && idx < window_.size()) {
        const Entry &e = window_[idx];
        if (e.plain > 0) {
            std::uint32_t n = std::min<std::uint32_t>(
                static_cast<std::uint32_t>(slots), e.plain);
            freed += static_cast<int>(n);
            slots -= static_cast<int>(n);
            if (n < e.plain)
                break;
            ++idx;
        } else {
            if (missReadyAt(e.missId) > now)
                break;
            freed += 1;
            slots -= 1;
            ++idx;
        }
    }

    // --- exact peek: fetch (mutates only the trace-pull cache) ---
    int occ = occupancy_ - freed;
    slots = params_.fetchWidth;
    std::uint64_t gap = pendingGap_;
    bool have = havePending_;
    while (slots > 0 && occ < params_.windowSize) {
        if (!have) {
            // The real tick would pull this item now; caching it in the
            // pending slot preserves trace order exactly.
            TraceItem item = trace_->next();
            pendingGap_ = item.gap;
            pendingAccess_ = item.access;
            havePending_ = true;
            have = true;
            gap = pendingGap_;
        }
        if (gap > 0) {
            std::uint32_t n =
                static_cast<std::uint32_t>(std::min<std::uint64_t>(
                    {static_cast<std::uint64_t>(slots),
                     static_cast<std::uint64_t>(params_.windowSize - occ),
                     gap}));
            occ += static_cast<int>(n);
            gap -= n;
            slots -= static_cast<int>(n);
            continue;
        }
        // The pending access is at the fetch head: the real tick
        // submits iff the mem-op budget and the target queue allow it.
        if (params_.maxMemPerCycle <= 0)
            return false;
        mem::MemoryController *mc = controllers_[pendingAccess_.channel];
        return pendingAccess_.isWrite ? mc->canAcceptWrite()
                                      : mc->canAcceptRead();
    }
    return false;
}

} // namespace tcm::core
