#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tcm::sim {

namespace {

/** splitmix64: decorrelate per-thread trace seeds from the run seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Simulator::Simulator(const SystemConfig &config,
                     const std::vector<workload::ThreadProfile> &profiles,
                     const sched::SchedulerSpec &spec, std::uint64_t seed,
                     bool enableProbe)
    : config_(config)
{
    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::vector<int> weights;
    traces.reserve(profiles.size());
    weights.reserve(profiles.size());
    for (std::size_t t = 0; t < profiles.size(); ++t) {
        workload::ThreadProfile p = profiles[t];
        p.mpki *= config_.mpkiScale;
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            p, config_.geometry(), mixSeed(seed, t)));
        weights.push_back(p.weight);
    }
    init(std::move(traces), spec, seed, enableProbe, weights);
}

Simulator::Simulator(const SystemConfig &config,
                     std::vector<std::unique_ptr<core::TraceSource>> traces,
                     const sched::SchedulerSpec &spec, std::uint64_t seed,
                     bool enableProbe, std::vector<int> weights)
    : config_(config)
{
    if (weights.empty())
        weights.assign(traces.size(), 1);
    init(std::move(traces), spec, seed, enableProbe, weights);
}

void
Simulator::init(std::vector<std::unique_ptr<core::TraceSource>> traces,
                const sched::SchedulerSpec &spec, std::uint64_t seed,
                bool enableProbe, const std::vector<int> &weights)
{
    const int numThreads = static_cast<int>(traces.size());
    assert(static_cast<int>(weights.size()) == numThreads);
    traces_ = std::move(traces);

    policy_ = sched::makeScheduler(spec, seed);
    mem::SchedulerPolicy *active = policy_.get();
    if (enableProbe) {
        probe_ = std::make_unique<ProbePolicy>(*policy_);
        active = probe_.get();
    }
    active->configure(numThreads, config_.numChannels,
                      config_.timing.banksPerChannel);

    counters_.resize(numThreads);
    active->setCoreCounters(&counters_);

    bool anyWeight = false;
    for (int w : weights)
        anyWeight |= w != 1;
    if (anyWeight)
        active->setThreadWeights(weights);

    if (config_.protocolCheck)
        checker_ = std::make_unique<dram::ProtocolChecker>(config_.timing);

    // Closed-page policies (e.g. FRFCFS-CP) pick their controller row
    // policy at construction; the probe forwards the preference.
    if (active->prefersClosedPage())
        config_.controller.pagePolicy = mem::PagePolicy::Closed;

    controllers_.reserve(config_.numChannels);
    for (ChannelId ch = 0; ch < config_.numChannels; ++ch) {
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            ch, config_.timing, config_.controller, *active));
        active->attachQueue(ch, controllers_.back().get());
        if (checker_) {
            controllers_.back()->addCommandObserver(checker_.get());
            checker_->observeChannel(ch);
        }
    }

    std::vector<mem::MemoryController *> mcs;
    for (auto &mc : controllers_)
        mcs.push_back(mc.get());

    cores_.reserve(numThreads);
    for (ThreadId t = 0; t < numThreads; ++t) {
        cores_.push_back(std::make_unique<core::Core>(
            t, config_.core, *traces_[t], mcs, &counters_[t]));
    }

    baseInstructions_.assign(numThreads, 0);
    baseMisses_.assign(numThreads, 0);

    ctrlDue_.assign(controllers_.size(), 0);
    ctrlSubmits_.assign(controllers_.size(), 0);
    coreDue_.assign(numThreads, 0);
    parkedSince_.assign(numThreads, 0);
    activeCores_.assign((static_cast<std::size_t>(numThreads) + 63) / 64, 0);
    streamingCores_.assign(activeCores_.size(), 0);
    for (std::size_t i = 0; i < cores_.size(); ++i)
        setCoreActive(i, true);
}

Simulator::~Simulator() = default;

void
Simulator::attachCommandObserver(dram::CommandObserver *observer)
{
    for (auto &mc : controllers_)
        mc->addCommandObserver(observer);
}

void
Simulator::attachTelemetry(telemetry::TelemetrySink *sink)
{
    telemetry_ = sink;
    const telemetry::TelemetryConfig &cfg = sink->config();

    telemetry::TelemetrySink::Meta meta = sink->meta();
    meta.scheduler = policy_->name();
    meta.numThreads = numThreads();
    meta.numChannels = config_.numChannels;
    meta.sampleInterval = cfg.sampleInterval;
    sink->setMeta(std::move(meta));

    // Decisions come from the real policy (the probe wrapper only
    // forwards hooks; it makes no decisions of its own).
    if (cfg.traceDecisions)
        policy_->setDecisionSink(sink);

    if (cfg.traceLifecycle)
        for (auto &mc : controllers_)
            mc->setLifecycleSink(sink);

    if (cfg.sampleInterval > 0) {
        sampler_ = std::make_unique<telemetry::IntervalSampler>(
            numThreads(), config_.numChannels, config_.timing.tCK,
            config_.timing.tBURST);
        sampler_->rebase(now_, threadGauges(), channelGauges());
        telemetrySampleAt_ = now_ + cfg.sampleInterval;
    }
}

void
Simulator::attachProfiler(prof::Profiler *profiler)
{
    prof_ = profiler;
    if (prof_ == nullptr) {
        for (auto &mc : controllers_)
            mc->setProfile(nullptr);
        return;
    }
    prof_->configure(numThreads(), config_.numChannels);
    for (ChannelId ch = 0; ch < config_.numChannels; ++ch)
        controllers_[ch]->setProfile(prof_->controllerShard(ch));
}

std::vector<telemetry::ThreadGauges>
Simulator::threadGauges()
{
    std::vector<telemetry::ThreadGauges> gauges(cores_.size());
    sched::ThreadBankMonitor::Snapshot snap;
    if (probe_)
        snap = probe_->monitor().snapshot(now_);
    for (std::size_t t = 0; t < gauges.size(); ++t) {
        telemetry::ThreadGauges &g = gauges[t];
        g.instructions = counters_[t].instructions;
        g.readMisses = counters_[t].readMisses;
        if (probe_) {
            ThreadId tid = static_cast<ThreadId>(t);
            g.hasBehavior = true;
            g.shadowHits = snap.shadowHits[t];
            g.accesses = snap.accesses[t];
            g.banksWithLoad = probe_->monitor().banksWithLoad(tid);
            g.outstanding = probe_->monitor().outstanding(tid);
        }
    }
    return gauges;
}

std::vector<telemetry::ChannelGauges>
Simulator::channelGauges() const
{
    std::vector<telemetry::ChannelGauges> gauges(controllers_.size());
    for (std::size_t ch = 0; ch < gauges.size(); ++ch) {
        const mem::ControllerStats &s = controllers_[ch]->stats();
        telemetry::ChannelGauges &g = gauges[ch];
        g.commands = s.activates + s.precharges + s.readsServiced +
                     s.writesServiced + s.refreshes;
        g.columns = s.readsServiced + s.writesServiced;
        g.rowHits = s.rowHits;
        g.readQueue = static_cast<std::uint32_t>(controllers_[ch]->readLoad());
        g.writeQueue =
            static_cast<std::uint32_t>(controllers_[ch]->writeLoad());
    }
    return gauges;
}

void
Simulator::sampleTelemetry()
{
    prof::ScopedPhase timer(prof_ ? &prof_->main() : nullptr,
                            prof::Phase::Telemetry);
    sampler_->sample(now_, threadGauges(), channelGauges(), *telemetry_);
    if (prof_) {
        // Cumulative simulator-side sample, rendered as the "simulator"
        // lane in the Chrome trace (the JSONL stream is untouched —
        // its bytes are part of the bit-identity contract).
        prof::Profiler::Pulse p = prof_->pulse();
        telemetry_->addSimulatorSample(
            telemetry::SimulatorSample{now_, p.wallMs, p.skips,
                                       p.skippedCycles});
    }
    telemetrySampleAt_ = now_ + telemetry_->config().sampleInterval;
}

void
Simulator::executeCycle(Cycle now, mem::SchedulerPolicy *active)
{
    {
        prof::ScopedPhase timer(prof_ ? &prof_->main() : nullptr,
                                prof::Phase::SchedTick);
        active->tick(now);
    }
    for (auto &mc : controllers_) {
        mc->tick(now);
        auto &comps = mc->completions();
        for (const auto &c : comps)
            cores_[c.thread]->completeMiss(c.missId, c.readyAt);
        comps.clear();
    }
    {
        prof::ScopedPhase coreTimer(prof_ ? &prof_->main() : nullptr,
                                    prof::Phase::CoreTick);
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            cores_[i]->tick(now);
            if (prof_)
                prof_->addRegime(i, prof::Regime::Lockstep, 1);
        }
        if (prof_)
            prof_->addCoreVisits(cores_.size());
    }
    if (now >= telemetrySampleAt_)
        sampleTelemetry();
}

template <typename F>
void
Simulator::forEachBit(std::uint64_t bits, std::size_t base, F &&f)
{
    for (; bits != 0; bits &= bits - 1)
        f(base + static_cast<std::size_t>(std::countr_zero(bits)));
}

template <typename F>
void
Simulator::forEachCore(const std::vector<std::uint64_t> &mask, F &&f)
{
    for (std::size_t w = 0; w < mask.size(); ++w)
        forEachBit(mask[w], w * 64, f);
}

template <typename F>
void
Simulator::forEachParkedCore(F &&f)
{
    const std::size_t n = cores_.size();
    for (std::size_t w = 0; w < activeCores_.size(); ++w) {
        std::uint64_t parked = ~activeCores_[w];
        // The tail word's bits past the last core are clear in
        // activeCores_ but name no core.
        if (n - w * 64 < 64)
            parked &= (std::uint64_t{1} << (n - w * 64)) - 1;
        forEachBit(parked, w * 64, [&](std::size_t i) {
            assert(i < n && !coreActive(i));
            f(i);
        });
    }
}

bool
Simulator::retestCore(std::size_t i, Cycle now, Cycle end)
{
    const core::Core &core = *cores_[i];
    Cycle due = core.dormantWakeAt(now);
    if (due == now) {
        const Cycle span = core.silentSpan(now, end - now);
        if (span <= 1) {
            coreDue_[i] = now + span;
            return true;
        }
        // Streaming: the span advances by the closed form, which only
        // needs applying before someone reads the core's counters (see
        // catchUpStreaming).
        due = now + span;
        setCoreStreaming(i, true);
    }
    // Dormant or streaming: the core leaves the active set until its
    // due time.
    setCoreActive(i, false);
    coreDue_[i] = due;
    parkedSince_[i] = now;
    wakeMin_ = std::min(wakeMin_, due);
    return false;
}

void
Simulator::catchUpCore(std::size_t i, Cycle to)
{
    const Cycle k = to - parkedSince_[i];
    if (k == 0)
        return;
    cores_[i]->fastForwardSilent(k);
    parkedSince_[i] = to;
    if (prof_) {
        prof_->addRegime(i, prof::Regime::Streaming, k);
        prof_->addCoreVisits(1);
    }
}

void
Simulator::catchUpStreaming(Cycle to)
{
    forEachCore(streamingCores_, [&](std::size_t i) { catchUpCore(i, to); });
}

void
Simulator::advanceCore(std::size_t i, Cycle now)
{
    if (coreDue_[i] > now) {
        cores_[i]->fastForwardSilent(1);
        if (prof_)
            prof_->addRegime(i, prof::Regime::Streaming, 1);
    } else {
        cores_[i]->tick(now);
        if (prof_)
            prof_->addRegime(i, prof::Regime::Lockstep, 1);
    }
}

void
Simulator::wakeDueCores(Cycle now)
{
    wakeMin_ = kCycleNever;
    forEachParkedCore([&](std::size_t i) {
        if (coreDue_[i] > now) {
            wakeMin_ = std::min(wakeMin_, coreDue_[i]);
            return;
        }
        setCoreActive(i, true);
        if (coreStreaming(i)) {
            catchUpCore(i, now);
            setCoreStreaming(i, false);
        } else if (prof_) {
            prof_->addRegime(i, prof::Regime::Dormant, now - parkedSince_[i]);
        }
        coreDue_[i] = now; // regime re-test at this visit
    });
}

void
Simulator::settleParkedCores()
{
    forEachParkedCore([&](std::size_t i) {
        if (coreStreaming(i))
            catchUpCore(i, now_);
        else if (prof_)
            prof_->addRegime(i, prof::Regime::Dormant,
                             now_ - parkedSince_[i]);
        parkedSince_[i] = now_;
    });
}

void
Simulator::executeDueCycle(Cycle now, mem::SchedulerPolicy *active,
                           Cycle end)
{
    {
        prof::ScopedPhase timer(prof_ ? &prof_->main() : nullptr,
                                prof::Phase::SchedTick);
        // A due tick may read CoreCounters (see
        // SchedulerPolicy::setCoreCounters); a tick before the policy's
        // own horizon is a no-op and reads nothing.
        if (schedDue_ <= now)
            catchUpStreaming(now);
        active->tick(now);
    }
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
        // Ticks before a controller's own horizon are no-ops.
        if (ctrlDue_[ch] > now)
            continue;
        mem::MemoryController &mc = *controllers_[ch];
        mc.tick(now);
        auto &comps = mc.completions();
        for (const auto &c : comps) {
            const std::size_t i = c.thread;
            cores_[i]->completeMiss(c.missId, c.readyAt);
            // A streaming window holds no miss, so no completion is
            // outstanding for a core parked in a streaming span.
            assert(!coreStreaming(i));
            if (coreActive(i)) {
                // A delivered completion can end a regime; force a
                // fresh regime test for this core.
                coreDue_[i] = now;
                continue;
            }
            // A parked core stays parked: the completion can only
            // reveal when its head miss's data will be ready. A wake
            // time of now is served by the core phase below.
            coreDue_[i] = cores_[i]->dormantWakeAt(now);
            wakeMin_ = std::min(wakeMin_, coreDue_[i]);
        }
        comps.clear();
    }
    {
        prof::ScopedPhase coreTimer(prof_ ? &prof_->main() : nullptr,
                                    prof::Phase::CoreTick);
        if (wakeMin_ <= now)
            wakeDueCores(now);
        // The regime test runs after completions were delivered, so a
        // just-woken core correctly falls out of its regime and takes
        // the full tick.
        std::uint64_t visits = 0;
        forEachCore(activeCores_, [&](std::size_t i) {
            if (coreDue_[i] <= now && !retestCore(i, now, end))
                return;
            ++visits;
            advanceCore(i, now);
        });
        if (prof_)
            prof_->addCoreVisits(visits);
    }
    if (now >= telemetrySampleAt_) {
        // The sample reads every core's counters through cycle now.
        catchUpStreaming(now + 1);
        sampleTelemetry();
    }
}

Cycle
Simulator::horizonAt(Cycle now, Cycle end, prof::HorizonSource &src) const
{
    // Value-identical to min-of-everything-then-clamp; the source
    // tracking mirrors std::min's tie behavior (first listed wins).
    Cycle h = schedDue_;
    src = prof::HorizonSource::Scheduler;
    if (telemetrySampleAt_ < h) {
        h = telemetrySampleAt_;
        src = prof::HorizonSource::Telemetry;
    }
    // A cached horizon below now stands for "due now", which is what a
    // fresh nextEventAt(now) would return.
    Cycle m = kCycleNever;
    for (Cycle due : ctrlDue_)
        m = std::min(m, due);
    m = std::max(m, now);
    if (m < h) {
        h = m;
        src = prof::HorizonSource::Controller;
    }
    if (h > end) {
        h = end;
        src = prof::HorizonSource::End;
    }
    return h < now ? now : h;
}

void
Simulator::step(Cycle cycles)
{
    mem::SchedulerPolicy *active = probe_ ? static_cast<mem::SchedulerPolicy *>(
                                                probe_.get())
                                          : policy_.get();
    const Cycle end = now_ + cycles;

    if (!config_.cycleSkip) {
        // Per-cycle oracle: the original loop, kept verbatim as the
        // differential reference for the event-horizon kernel.
        for (; now_ < end; ++now_)
            executeCycle(now_, active);
        return;
    }

    // Event-horizon kernel. Invariant: every cycle at which a scheduler,
    // controller, or telemetry clock could act — and every cycle at
    // which a core submits a memory operation — is executed through
    // executeDueCycle in canonical order, so all cross-component state
    // changes happen exactly as in the per-cycle loop. Within executed
    // cycles, a controller ticks only once its own horizon is due, and
    // dormant cores stay parked until their wake time. A core in a
    // streaming span of more than one cycle is parked too, until the
    // span ends; its closed form is applied lazily, before anything
    // reads its counters (a due policy tick, a telemetry sample, its
    // wake-up, the end of the step). Cycles strictly inside a horizon
    // span touch active cores only: in-regime cores advance by the
    // closed form, out-of-regime cores tick in lockstep (exact, just
    // without the no-op scheduler/controller calls).
    const std::size_t nch = controllers_.size();
    auto requery = [&](std::size_t ch) {
        ctrlDue_[ch] = controllers_[ch]->nextEventAt(now_);
        ctrlSubmits_[ch] = controllers_[ch]->submissions();
    };
    for (std::size_t ch = 0; ch < nch; ++ch)
        requery(ch);
    // No horizon is known yet: treat the first executed tick as due.
    schedDue_ = now_;
    while (now_ < end) {
        executeDueCycle(now_, active, end);
        ++now_;
        if (now_ >= end)
            break;
        // Horizons the executed cycle made stale: controllers that
        // ticked (their due time has passed) and those a core
        // submitted to.
        for (std::size_t ch = 0; ch < nch; ++ch)
            if (ctrlDue_[ch] < now_ ||
                controllers_[ch]->submissions() != ctrlSubmits_[ch])
                requery(ch);
        // No hook fires before the next executed cycle's policy tick,
        // so this horizon also decides whether that tick is due.
        schedDue_ = active->nextEventAt(now_);
        prof::HorizonSource hsrc = prof::HorizonSource::Scheduler;
        const Cycle h = horizonAt(now_, end, hsrc);
        prof::ScopedPhase coreTimer(prof_ ? &prof_->main() : nullptr,
                                    prof::Phase::CoreTick);
        std::uint64_t visits = 0;
        while (now_ < h) {
            if (wakeMin_ <= now_)
                wakeDueCores(now_);
            // Re-test expired regimes; the jump is bounded by the
            // horizon, the earliest parked wake-up (the end of every
            // parked streaming span among them) and every active core's
            // one-cycle streaming span. No completion can arrive inside
            // the horizon (completions at executed cycles reset the
            // recipient's due time).
            Cycle bound = h;
            bool out = false;
            forEachCore(activeCores_, [&](std::size_t i) {
                if (coreDue_[i] <= now_ && !retestCore(i, now_, end))
                    return;
                if (coreDue_[i] <= now_)
                    out = true;
                else
                    bound = std::min(bound, coreDue_[i]);
            });
            bound = std::min(bound, wakeMin_);
            if (!out) {
                // Every active core in regime: one closed-form jump.
                const Cycle k = bound - now_;
                forEachCore(activeCores_, [&](std::size_t i) {
                    cores_[i]->fastForwardSilent(k);
                    ++visits;
                    if (prof_)
                        prof_->addRegime(i, prof::Regime::Streaming, k);
                });
                // Attribute the realized jump: a jump cut short of the
                // horizon was bounded by a core regime ending.
                if (prof_)
                    prof_->recordSkip(bound == h ? hsrc
                                                 : prof::HorizonSource::Core,
                                      k);
                now_ = bound;
                continue;
            }
            // A submission this cycle is a cross-component effect:
            // promote it to a fully executed cycle so the controller
            // sees it in canonical order. Only out-of-regime cores can
            // submit (both regimes preclude reaching a memory access);
            // the peek stops at the first submitter.
            bool submits = false;
            forEachCore(activeCores_, [&](std::size_t i) {
                submits = submits ||
                          (coreDue_[i] <= now_ &&
                           cores_[i]->wouldSubmitAt(now_));
            });
            if (submits)
                break;
            // Mixed single cycle: lockstep-tick the out-of-regime
            // cores, closed-form the rest.
            forEachCore(activeCores_, [&](std::size_t i) {
                ++visits;
                advanceCore(i, now_);
            });
            ++now_;
        }
        if (prof_)
            prof_->addCoreVisits(visits);
    }
    settleParkedCores();

    // Catch up lazily accrued scheduler statistics (STFM stall time) to
    // the last simulated cycle so post-step reads observe the same
    // values the per-cycle loop leaves behind. No-op in per-cycle mode
    // and for stateless-in-time policies.
    if (cycles > 0)
        active->syncTo(now_ - 1);
}

void
Simulator::beginMeasurement()
{
    measureStart_ = now_;
    for (std::size_t t = 0; t < cores_.size(); ++t) {
        baseInstructions_[t] = counters_[t].instructions;
        baseMisses_[t] = counters_[t].readMisses;
    }
    for (auto &mc : controllers_)
        mc->resetStats();
    if (probe_)
        probe_->resetProbe(now_);
    // Controller/probe counters just rewound; rebase the sampler so the
    // next interval differentiates against the reset values.
    if (sampler_) {
        sampler_->rebase(now_, threadGauges(), channelGauges());
        telemetrySampleAt_ = now_ + telemetry_->config().sampleInterval;
    }
}

void
Simulator::run(Cycle warmup, Cycle measure)
{
    step(warmup);
    beginMeasurement();
    step(measure);
}

double
Simulator::measuredIpc(ThreadId t) const
{
    Cycle elapsed = now_ - measureStart_;
    if (elapsed == 0)
        return 0.0;
    std::uint64_t insts = counters_[t].instructions - baseInstructions_[t];
    return static_cast<double>(insts) / static_cast<double>(elapsed);
}

Simulator::BehaviorStats
Simulator::behavior(ThreadId t) const
{
    BehaviorStats b;
    b.ipc = measuredIpc(t);
    std::uint64_t insts = counters_[t].instructions - baseInstructions_[t];
    std::uint64_t misses = counters_[t].readMisses - baseMisses_[t];
    b.mpki = insts > 0 ? 1000.0 * static_cast<double>(misses) /
                             static_cast<double>(insts)
                       : 0.0;
    if (probe_) {
        auto s = probe_->monitor().snapshot(now_);
        b.blp = s.blp[t];
        b.rbl = s.rbl[t];
        b.probed = true;
    }
    return b;
}

const mem::ControllerStats &
Simulator::controllerStats(ChannelId ch) const
{
    return controllers_[ch]->stats();
}

const mem::LatencyTracker &
Simulator::latency(ChannelId ch) const
{
    return controllers_[ch]->latency();
}

dram::CommandCounts
Simulator::commandCounts(ChannelId ch) const
{
    const mem::ControllerStats &s = controllers_[ch]->stats();
    dram::CommandCounts c;
    c.activates = s.activates;
    c.reads = s.readsServiced;
    c.writes = s.writesServiced;
    c.refreshes = s.refreshes;
    c.bankBusyCycles = s.bankBusyCycles;
    const dram::Channel &chan = controllers_[ch]->channel();
    for (int r = 0; r < chan.numRanks(); ++r)
        c.powerDownBankCycles +=
            static_cast<std::uint64_t>(chan.rankPowerDownCycles(r, now_)) *
            config_.timing.banksPerRank();
    return c;
}

} // namespace tcm::sim
