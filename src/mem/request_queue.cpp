#include "mem/request_queue.hpp"

#include <cassert>

namespace tcm::mem {

namespace {

void
initMirror(QueueMirror &m, int cap, int numBanks)
{
    m.bank.reserve(cap);
    m.row.reserve(cap);
    m.arrivedAt.reserve(cap);
    m.keyHi.reserve(cap);
    m.count.assign(numBanks, 0);
    m.words = (static_cast<std::size_t>(cap) + 63) / 64;
    m.slots.assign(m.words * static_cast<std::size_t>(numBanks), 0);
}

std::uint64_t &
slotWord(QueueMirror &m, BankId b, std::size_t slot)
{
    return m.slots[static_cast<std::size_t>(b) * m.words + slot / 64];
}

std::uint64_t
slotBit(std::size_t slot)
{
    return std::uint64_t{1} << (slot % 64);
}

/** Append @p req at the tail slot of @p m. */
void
pushMirror(QueueMirror &m, const Request &req)
{
    const std::size_t slot = m.bank.size();
    m.bank.push_back(req.bank);
    m.row.push_back(req.row);
    m.arrivedAt.push_back(req.arrivedAt);
    m.keyHi.push_back(0); // the controller fills in the key
    ++m.count[req.bank];
    slotWord(m, req.bank, slot) |= slotBit(slot);
}

/** Swap-pop slot @p idx of @p m, mirroring the queue's own swap-pop. */
void
removeMirror(QueueMirror &m, std::size_t idx)
{
    const std::size_t last = m.bank.size() - 1;
    const BankId gone = m.bank[idx];
    --m.count[gone];
    slotWord(m, gone, idx) &= ~slotBit(idx);
    if (idx != last) {
        const BankId moved = m.bank[last];
        slotWord(m, moved, last) &= ~slotBit(last);
        slotWord(m, moved, idx) |= slotBit(idx);
        m.bank[idx] = moved;
        m.row[idx] = m.row[last];
        m.arrivedAt[idx] = m.arrivedAt[last];
        m.keyHi[idx] = m.keyHi[last];
    }
    m.bank.pop_back();
    m.row.pop_back();
    m.arrivedAt.pop_back();
    m.keyHi.pop_back();
}

} // namespace

RequestQueue::RequestQueue(int readCap, int writeCap, int numBanks)
    : readCap_(readCap), writeCap_(writeCap)
{
    reads_.reserve(readCap);
    writes_.reserve(writeCap);
    initMirror(readMirror_, readCap, numBanks);
    initMirror(writeMirror_, writeCap, numBanks);
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
           static_cast<std::size_t>(req.bank) < readMirror_.count.size());
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
        if (req.isWrite) {
            --inFlightWrites_;
            writes_.push_back(req);
            pushMirror(writeMirror_, req);
        } else {
            --inFlightReads_;
            reads_.push_back(req);
            pushMirror(readMirror_, req);
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
    removeMirror(readMirror_, idx);
    return req;
}

Request
RequestQueue::removeWrite(std::size_t idx)
{
    assert(idx < writes_.size());
    Request req = writes_[idx];
    writes_[idx] = writes_.back();
    writes_.pop_back();
    removeMirror(writeMirror_, idx);
    return req;
}

} // namespace tcm::mem
