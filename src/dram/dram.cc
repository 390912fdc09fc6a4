#include "dram/dram.hh"

#include <algorithm>
#include <cassert>

namespace ecdp
{

DramSystem::DramSystem(const DramParams &params, unsigned cores,
                       std::uint32_t block_bytes)
    : params_(params),
      bufferCapacity_(params.requestBufferPerCore * cores),
      geom_(block_bytes),
      bankFree_(params.banks, Cycle{}),
      perCoreBus_(cores, 0)
{
    assert(cores > 0);
    assert(params.banks > 0);
    assert(block_bytes > 0);
}

unsigned
DramSystem::bankIndex(unsigned core, Addr block_addr) const
{
    // Fold several address ranges plus the core id so that regular
    // strides and identical per-core heap layouts spread over banks.
    // BlockGeometry discards exactly the intra-block bits: with a
    // shift hard-coded for 128 B blocks, a 64 B-block configuration
    // would alias each adjacent block pair into the same bank and
    // every sequential stream would see a fixed lockstep bank pattern.
    std::uint32_t v = geom_.blockOf(block_addr).raw();
    v ^= v >> 6; // simlint-allow(magic-block-shift): hash mixing
    v ^= core * 0x9e3779b9u;
    return v % params_.banks;
}

unsigned
DramSystem::bufferOccupancy(Cycle now)
{
    while (!inFlight_.empty() && inFlight_.front() <= now)
        inFlight_.pop_front();
    return static_cast<unsigned>(inFlight_.size());
}

void
DramSystem::attachObservability(const Observability &obs)
{
    tracer_ = obs.tracer;
    if (obs.metrics) {
        readsCtr_ = &obs.metrics->counter("dram.reads");
        writebacksCtr_ = &obs.metrics->counter("dram.writebacks");
        bankConflictsCtr_ =
            &obs.metrics->counter("dram.bank_conflicts");
        bufferRejectsCtr_ =
            &obs.metrics->counter("dram.buffer_rejects");
    } else {
        readsCtr_ = writebacksCtr_ = bankConflictsCtr_ =
            bufferRejectsCtr_ = nullptr;
    }
}

Cycle
DramSystem::reserve(unsigned core, Addr block_addr, Cycle now)
{
    unsigned bank = bankIndex(core, block_addr);
    Cycle earliest = now + params_.frontLatency;
    if (bankFree_[bank] > earliest) {
        // Bank conflict: this request waits on a previous access to
        // the same bank — the contention the coordinated throttling
        // mechanism exists to manage.
        if (bankConflictsCtr_)
            bankConflictsCtr_->inc();
        if (tracer_) {
            obs::TraceEvent event;
            event.type = obs::EventType::DramBankConflict;
            event.core = static_cast<std::uint16_t>(core);
            event.cycle = now;
            event.addr = block_addr.raw();
            event.a = static_cast<std::uint8_t>(bank);
            event.arg = (bankFree_[bank] - earliest).raw();
            tracer_->record(event);
        }
    }
    Cycle bank_start = std::max(earliest, bankFree_[bank]);
    Cycle bank_done = bank_start + params_.bankBusy;
    bankFree_[bank] = bank_done;

    Cycle bus_start = std::max(bank_done, busFree_);
    Cycle bus_done = bus_start + params_.busTransfer;
    busFree_ = bus_done;
    // Each completion is the new busFree_, so the buffer fills in
    // completion order and drains from its front.
    assert(inFlight_.empty() || inFlight_.back() <= bus_done);
    inFlight_.push_back(bus_done);

    ++busTransactions_;
    ++perCoreBus_[core];
    return bus_done;
}

std::optional<Cycle>
DramSystem::read(unsigned core, Addr block_addr, Cycle now,
                 unsigned reserved)
{
    // The buffer drains lazily by now: a call from the past would
    // miss entries still in flight at its cycle.
    assert(now >= lastCall_);
    lastCall_ = now;
    unsigned usable = bufferCapacity_ > reserved
        ? bufferCapacity_ - reserved
        : 0;
    if (bufferOccupancy(now) >= usable) {
        if (bufferRejectsCtr_)
            bufferRejectsCtr_->inc();
        return std::nullopt;
    }
    if (readsCtr_)
        readsCtr_->inc();
    return reserve(core, block_addr, now);
}

void
DramSystem::writeback(unsigned core, Addr block_addr, Cycle now)
{
    assert(now >= lastCall_);
    lastCall_ = now;
    if (writebacksCtr_)
        writebacksCtr_->inc();
    // A writeback occupies a request-buffer entry until its bus
    // transfer completes, just like a read — otherwise writeback
    // bursts are invisible to the per-core buffer limit and
    // bandwidth contention is underestimated. Unlike reads it is
    // never refused: the evicting cache has no write buffer to stall
    // into, so the entry is posted even when the buffer is full.
    reserve(core, block_addr, now);
}

} // namespace ecdp
