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
 * Structure-of-arrays mirror of one visible queue, index-aligned with
 * RequestQueue::reads() or writes(), plus a per-bank index of its
 * slots. The controller's scan touches only these fields, so it streams
 * dense arrays instead of striding through whole Request structs, and
 * visits only the slots of the banks it has to.
 *
 * bank/row/arrivedAt, the per-bank counts and the slot bitsets are
 * maintained structurally by RequestQueue (admit + swap-pop). keyHi,
 * the static half of the packed priority key, is owned by the
 * controller, which stamps it at admission and rebuilds it when
 * scheduler knobs move (see MemoryController::refreshPolicyCache).
 */
struct QueueMirror
{
    std::vector<BankId> bank;
    std::vector<RowId> row;
    std::vector<Cycle> arrivedAt;
    std::vector<std::uint64_t> keyHi;

    /** Queued requests per bank. */
    std::vector<int> count;

    /**
     * Per-bank slot bitsets, `words` 64-bit words per bank: bit i of
     * bank b's set is on exactly when slot i of the queue targets b.
     */
    std::vector<std::uint64_t> slots;
    std::size_t words = 0;

    /** First word of bank @p b's slot bitset. */
    const std::uint64_t *
    slotsOf(BankId b) const
    {
        return slots.data() + static_cast<std::size_t>(b) * words;
    }
};

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
    /** @p numBanks sizes the per-bank index (bank ids are channel-local,
     *  in [0, numBanks)). */
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
     * hooks), which occupy the tails of reads() and writes() in arrival
     * order. The returned reference aliases an internal scratch buffer
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
     * are not counted): "does any queued request target this bank" is
     * two loads instead of a walk over both queues.
     */
    int
    queuedAt(BankId b) const
    {
        return readMirror_.count[b] + writeMirror_.count[b];
    }

    /** @{ SoA mirror and per-bank index of the read or write queue. */
    const QueueMirror &mirror(bool writes) const
    {
        return writes ? writeMirror_ : readMirror_;
    }
    std::vector<std::uint64_t> &keyHi(bool writes)
    {
        return writes ? writeMirror_.keyHi : readMirror_.keyHi;
    }
    /** @} */

  private:
    int readCap_;
    int writeCap_;
    std::vector<Request> reads_;
    std::vector<Request> writes_;
    std::vector<Request> inFlight_; //!< FIFO by arrival time
    std::vector<Request> admitScratch_; //!< reused by admitArrivals
    std::size_t inFlightReads_ = 0;
    std::size_t inFlightWrites_ = 0;
    QueueMirror readMirror_;  //!< index-aligned with reads_
    QueueMirror writeMirror_; //!< index-aligned with writes_
};

} // namespace tcm::mem
