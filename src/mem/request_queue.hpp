/**
 * @file
 * Bounded read/write request buffers for one memory controller.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/request.hpp"

namespace tcm::mem {

/**
 * Holds the controller's queued requests: a read request buffer and a
 * write data buffer (Table 3: 128-entry reads, 64-entry writes). Requests
 * that have been transported from the core but are not yet visible
 * (cpuToMcDelay in flight) count against capacity so a core can never
 * oversubscribe the buffer.
 */
class RequestQueue
{
  public:
    /** @p numBanks sizes the per-bank occupancy counts (bank ids are
     *  channel-local, in [0, numBanks)). */
    RequestQueue(int readCap, int writeCap, int numBanks);

    /** @{ Capacity checks, counting in-flight arrivals. */
    bool canAcceptRead() const;
    bool canAcceptWrite() const;
    /** @} */

    /** Add a request still in transport; becomes visible at arrivedAt. */
    void addInFlight(const Request &req);

    /**
     * Move every in-flight request with arrivedAt <= now into the visible
     * queues; returns the requests that just arrived (for observer
     * hooks). The returned reference aliases an internal scratch buffer
     * that the next admitArrivals call reuses — no per-tick allocation,
     * and the empty-tick fast path touches nothing but the FIFO head.
     */
    const std::vector<Request> &admitArrivals(Cycle now);

    std::vector<Request> &reads() { return reads_; }
    std::vector<Request> &writes() { return writes_; }
    const std::vector<Request> &reads() const { return reads_; }
    const std::vector<Request> &writes() const { return writes_; }

    /** Remove reads()[idx] via swap-pop; returns the removed request. */
    Request removeRead(std::size_t idx);

    /** Remove writes()[idx] via swap-pop; returns the removed request. */
    Request removeWrite(std::size_t idx);

    int readCap() const { return readCap_; }
    int writeCap() const { return writeCap_; }

    /**
     * Arrival time of the next in-flight request (the FIFO is sorted by
     * arrivedAt); kCycleNever when nothing is in transport. Event
     * horizon for admitArrivals: ticks strictly before this admit
     * nothing.
     */
    Cycle
    nextArrivalAt() const
    {
        return inFlight_.empty() ? kCycleNever : inFlight_.front().arrivedAt;
    }

    /** Visible + in-flight read count. */
    std::size_t readLoad() const { return reads_.size() + inFlightReads_; }

    /** Visible + in-flight write count. */
    std::size_t writeLoad() const { return writes_.size() + inFlightWrites_; }

    /**
     * Visible reads plus writes targeting bank @p b (in-flight requests
     * are not counted). Maintained by admitArrivals, removeRead and
     * removeWrite, so "does any queued request target this bank" is one
     * load instead of a walk over both queues.
     */
    int queuedAt(BankId b) const { return bankQueued_[b]; }

    // -- SoA mirror of the read queue ---------------------------------------
    //
    // The hot candidate scan touches only a handful of Request fields;
    // keeping them in parallel arrays (index-aligned with reads()) lets
    // the scan stream over dense, cache-friendly data instead of
    // striding through whole Request structs. bank/row/arrivedAt are
    // maintained structurally here (admit + swap-pop); the packed
    // priority key is owned by the controller, which rebuilds it when
    // scheduler knobs move (see MemoryController::refreshPolicyCache).

    const std::vector<BankId> &readBank() const { return readBank_; }
    const std::vector<RowId> &readRow() const { return readRow_; }
    const std::vector<Cycle> &readArrivedAt() const { return readArrivedAt_; }
    std::vector<std::uint64_t> &readKeyHi() { return readKeyHi_; }

  private:
    int readCap_;
    int writeCap_;
    std::vector<Request> reads_;
    std::vector<Request> writes_;
    std::vector<Request> inFlight_; //!< FIFO by arrival time
    std::vector<Request> admitScratch_; //!< reused by admitArrivals
    std::size_t inFlightReads_ = 0;
    std::size_t inFlightWrites_ = 0;
    std::vector<int> bankQueued_; //!< visible reads + writes per bank

    // Index-aligned with reads_.
    std::vector<BankId> readBank_;
    std::vector<RowId> readRow_;
    std::vector<Cycle> readArrivedAt_;
    std::vector<std::uint64_t> readKeyHi_;
};

} // namespace tcm::mem
