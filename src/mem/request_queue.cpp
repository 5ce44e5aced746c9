#include "mem/request_queue.hpp"

#include <cassert>

namespace tcm::mem {

RequestQueue::RequestQueue(int readCap, int writeCap, int numBanks)
    : readCap_(readCap), writeCap_(writeCap), bankQueued_(numBanks, 0)
{
    reads_.reserve(readCap);
    writes_.reserve(writeCap);
    readBank_.reserve(readCap);
    readRow_.reserve(readCap);
    readArrivedAt_.reserve(readCap);
    readKeyHi_.reserve(readCap);
}

bool
RequestQueue::canAcceptRead() const
{
    return readLoad() < static_cast<std::size_t>(readCap_);
}

bool
RequestQueue::canAcceptWrite() const
{
    return writeLoad() < static_cast<std::size_t>(writeCap_);
}

void
RequestQueue::addInFlight(const Request &req)
{
    assert(req.bank >= 0 &&
           static_cast<std::size_t>(req.bank) < bankQueued_.size());
    if (req.isWrite) {
        assert(canAcceptWrite());
        ++inFlightWrites_;
    } else {
        assert(canAcceptRead());
        ++inFlightReads_;
    }
    // Arrival times are monotonic (fixed transport delay), so push_back
    // keeps the FIFO sorted by arrivedAt.
    assert(inFlight_.empty() || inFlight_.back().arrivedAt <= req.arrivedAt);
    inFlight_.push_back(req);
}

const std::vector<Request> &
RequestQueue::admitArrivals(Cycle now)
{
    // Fast path: nothing due. The FIFO is sorted by arrivedAt, so one
    // head probe decides — the scratch buffer is returned (possibly
    // stale from the previous admitting tick) but sized to zero first
    // only when we know we must touch it.
    if (inFlight_.empty() || inFlight_.front().arrivedAt > now) {
        admitScratch_.clear();
        return admitScratch_;
    }
    std::size_t n = 1;
    while (n < inFlight_.size() && inFlight_[n].arrivedAt <= now)
        ++n;
    admitScratch_.assign(inFlight_.begin(), inFlight_.begin() + n);
    inFlight_.erase(inFlight_.begin(), inFlight_.begin() + n);
    for (const Request &req : admitScratch_) {
        ++bankQueued_[req.bank];
        if (req.isWrite) {
            --inFlightWrites_;
            writes_.push_back(req);
        } else {
            --inFlightReads_;
            reads_.push_back(req);
            readBank_.push_back(req.bank);
            readRow_.push_back(req.row);
            readArrivedAt_.push_back(req.arrivedAt);
            readKeyHi_.push_back(0); // controller fills in the key
        }
    }
    return admitScratch_;
}

Request
RequestQueue::removeRead(std::size_t idx)
{
    assert(idx < reads_.size());
    Request req = reads_[idx];
    reads_[idx] = reads_.back();
    reads_.pop_back();
    readBank_[idx] = readBank_.back();
    readBank_.pop_back();
    readRow_[idx] = readRow_.back();
    readRow_.pop_back();
    readArrivedAt_[idx] = readArrivedAt_.back();
    readArrivedAt_.pop_back();
    readKeyHi_[idx] = readKeyHi_.back();
    readKeyHi_.pop_back();
    --bankQueued_[req.bank];
    return req;
}

Request
RequestQueue::removeWrite(std::size_t idx)
{
    assert(idx < writes_.size());
    Request req = writes_[idx];
    writes_[idx] = writes_.back();
    writes_.pop_back();
    --bankQueued_[req.bank];
    return req;
}

} // namespace tcm::mem
