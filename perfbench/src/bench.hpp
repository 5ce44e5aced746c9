/**
 * @file
 * Shared declarations of the tcmsim benchmark harness (tcmbench).
 *
 * The harness reaches the simulator only through its public entry points:
 * sim::runWorkload, sim::sweepd::Server/Manifest, sim::AloneIpcCache,
 * results::ResultsDoc, and standalone mem::MemoryController,
 * dram::Channel, dram::ProtocolChecker, workload::SyntheticTrace and
 * SchedulerPolicy objects. See RATIONALE.md for the workloads and the
 * metric map.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/alone_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/system_config.hpp"
#include "workload/profile.hpp"

namespace tcmbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** The @p q quantile of @p v (0.5 = median), interpolating between
 *  neighbouring samples; 0 when @p v is empty. */
double quantile(std::vector<double> v, double q);

/** Write @p text to @p path; throws std::runtime_error on failure. */
void writeFile(const std::string &path, const std::string &text);

// -- spans (spans.cpp) -------------------------------------------------------

/**
 * One recorded span. A span normally covers one call; an aggregate span
 * (`calls` > 1) stands for many short calls of one kind made inside its
 * [start, end) window, with `busyNs` their summed duration, so per-cycle
 * calls can be timed without keeping one record per call.
 */
struct Span
{
    int id = 0;
    int parent = -1; //!< enclosing span, -1 at top level
    int job = -1;    //!< job index the call belongs to, -1 when none
    std::string name;
    std::int64_t startNs = 0; //!< since the recorder was created
    std::int64_t endNs = 0;
    std::uint64_t calls = 1;
    std::int64_t busyNs = 0;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** In-memory span store, written out once when the run ends. Safe to
 *  use from pool workers. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span and return its id. */
    int open(const std::string &name, int parent = -1, int job = -1);

    /** Close span @p id; returns its duration in seconds. */
    double close(int id);

    /** Record a finished aggregate span of @p calls calls. */
    int addAggregate(const std::string &name, int parent, Clock::time_point start,
                     Clock::time_point end, std::uint64_t calls,
                     std::int64_t busyNs);

    /** Every span named @p name (copies). */
    std::vector<Span> named(const std::string &name) const;

    /** Write one JSON object per line, prefixed by @p header. */
    void writeJsonl(const std::string &path, const std::string &header) const;

  private:
    std::int64_t sinceOrigin(Clock::time_point t) const;

    Clock::time_point origin_;
    mutable std::mutex mutex_; //!< guards spans_
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed by stop() or the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name,
               int parent = -1, int job = -1)
        : recorder_(&recorder), id_(recorder.open(name, parent, job))
    {
    }
    ~ScopedSpan() { stop(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

    /** Close now (idempotent); returns the span's seconds. */
    double
    stop()
    {
        if (!open_)
            return seconds_;
        open_ = false;
        seconds_ = recorder_->close(id_);
        return seconds_;
    }

  private:
    SpanRecorder *recorder_;
    int id_;
    bool open_ = true;
    double seconds_ = 0.0;
};

/** Cost of one empty timed region (back-to-back clock reads), in ns. */
double clockOverheadNs();

// -- workloads (workloads.cpp) -----------------------------------------------

/** One (scheduler, mix) simulation of a workload's fixed job list. */
struct Job
{
    std::string scheduler; //!< sched::specByName registry name
    int mix = 0;           //!< index into Workload::mixes
    std::uint64_t seed = 0;
};

/** Where a mix comes from, in sweepd manifest terms. */
struct MixId
{
    double intensity = 1.0;
    int index = 0;
};

/** A workload: a closed batch of jobs over one system configuration. */
struct Workload
{
    std::string name;
    /** The configuration the jobs run under, observers included. */
    tcm::sim::SystemConfig config;
    /** The same without observers (checker, telemetry, profiler). */
    tcm::sim::SystemConfig bare;
    tcm::sim::ExperimentScale scale;
    int poolJobs = 1;      //!< worker threads of the timed pass
    bool viaSweepd = false; //!< timed pass goes through sweepd
    double writeFraction = -1.0; //!< >= 0 overrides every thread's value
    std::vector<MixId> mixIds;
    std::vector<Job> jobs;   //!< scheduler-major, mix-minor
    std::vector<std::string> schedulers;
    /** Job seed of mix m is baseSeed + m; derived from --seed, it seeds
     *  every thread's address stream and the policy's own randomness. */
    std::uint64_t baseSeed = 0;

    double cyclesPerJob() const
    {
        return static_cast<double>(scale.warmup + scale.measure);
    }
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name from @p seed; false on an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload *out);

/** The random mixes of @p w: its fixed compositions, which do not
 *  depend on the benchmark seed. */
std::vector<std::vector<tcm::workload::ThreadProfile>>
makeMixes(const Workload &w);

/** The sweepd manifest text of @p w's jobs. For a workload whose knobs a
 *  manifest cannot express (write fraction, controller policies), it is
 *  the manifest-expressible projection of the jobs. */
std::string manifestText(const Workload &w);

/** SystemConfig sweepd builds for @p w's manifest projection. */
tcm::sim::SystemConfig manifestConfig(const Workload &w);

/** Everything set-up leaves for the timed phase. */
struct Prepared
{
    std::vector<std::vector<tcm::workload::ThreadProfile>> mixes;
    std::unique_ptr<tcm::sim::AloneIpcCache> cache;
    std::string stateDir;     //!< sweepd state dir (alone store inside)
    std::string manifestPath; //!< sweepd manifest file
};

/** Simulated outputs of one job, in a canonical, byte-comparable form. */
struct JobOutput
{
    bool ok = false;
    std::string text; //!< canonical form of every simulated output
    double ws = 0.0;
    double ms = 0.0;
    std::string error;
};

/** JSONL bytes of a telemetry sink. */
std::string telemetryBytes(const tcm::telemetry::TelemetrySink &sink);

/** Canonical text of a runWorkload result (see JobOutput::text). */
JobOutput outputOf(const std::string &scheduler,
                   const tcm::sim::RunResult &r, bool withThreads);

/**
 * Set the workload up in @p dir: mixes, alone-IPC prewarm (and, for
 * sweepd workloads, the persistent store and the manifest), recording
 * spans under @p parent.
 */
Prepared setUp(const Workload &w, const std::string &dir, SpanRecorder &spans,
               int parent);

/** Result of one pass over the job list. */
struct PassResult
{
    double seconds = 0.0;
    std::vector<JobOutput> outputs; //!< job order
    std::string stream;             //!< sweepd JSONL bytes (sweepd only)
};

/** One timed pass over the job list, the way the workload runs it. */
PassResult runPass(const Workload &w, Prepared &p, const std::string &outPath,
                   SpanRecorder &spans, int parent);

/** Re-run job @p j through the per-cycle oracle (cycleSkip off). */
JobOutput runOracle(const Workload &w, Prepared &p, std::size_t j);

/** 64-bit FNV-1a digest of a pass's canonical outputs. */
std::uint64_t digestOf(const std::vector<JobOutput> &outputs);

// -- per-layer measurements (layers.cpp) -------------------------------------

/** Named per-layer metric values, plus the checks they made. */
struct LayerResult
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

/** The traced run: every per-layer metric of workload @p w. */
LayerResult measureLayers(const Workload &w, const std::string &dir,
                          SpanRecorder &spans);

} // namespace tcmbench
