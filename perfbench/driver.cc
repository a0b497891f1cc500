/**
 * @file
 * The repository benchmark driver: one process, one thread, three
 * workloads, every metric printed by name with its unit.
 *
 *   perfbench_driver --workload solo_beam32|bursty_continuous|
 *                               multiturn_sliced
 *                    --seed N --seconds S --trace 0|1 [--spans FILE]
 *
 * The driver only calls the library's public entry points
 * (ServingSystem::create/serve/submit/step, OnlineServer::create/
 * serveRequests, makeArrivalTrace) plus read-only accessors for the
 * counters they leave behind. The seed is the driver's own: it derives
 * the problem set, the arrival trace and the session mix, and the
 * library only ever sees the generated requests.
 *
 * Two kinds of numbers come out. Simulated metrics (latency, goodput,
 * SLO attainment, token counts) are deterministic per seed, so any
 * change in modelled behaviour shows exactly; host metrics measure the
 * simulator's own speed, which bounds how large a trace is affordable.
 *
 * Every line before the last is "name value unit [note]". The last
 * line is one JSON object: with --trace 0 it carries the end-to-end
 * metrics, with --trace 1 the per-layer ones. If an output check fails
 * the driver prints the failure to stderr and exits 2 without a
 * result line.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/online_server.h"
#include "core/serving.h"
#include "metrics/request_metrics.h"

using namespace fasttts;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workload constants. Changing any of them changes the benchmark. ---

constexpr int kProbeServes = 4;     //!< Calibration probe size.
constexpr double kSloFactor = 3.0;  //!< SLO = this x probe mean.
constexpr double kCapacityTarget = 0.9; //!< slo_capacity_rps threshold.

constexpr int kSoloProblems = 1500;
constexpr int kOnlineRequests = 2000;
constexpr int kOnlineBeams = 16;
constexpr int kOnlineInflight = 4;
const double kBurstyLadder[] = {0.25, 0.5, 1.0, 2.0}; //!< x mu.
constexpr size_t kBurstyNominal = 2;                  //!< The 1x point.
constexpr double kBurstyKvFraction = 0.5;
constexpr double kMultiturnKvFraction = 0.3;
constexpr double kHostLinkGBs = 16;
constexpr int kSessionSlots = 32;
constexpr int kMaxTurns = 8;
constexpr int kBasePromptTokens = 128;
constexpr int kTurnGrowthTokens = 64;

// --- Deterministic input generation (the driver's own, not the
//     library's, so the library receives only generated requests). ---

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
uniform01(uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t state = seed ^ (stream * 0xd1342543de82ef95ULL);
    return splitmix64(state);
}

// --- Tracing: spans around the driver's own calls into the library. ---

class Tracer
{
  public:
    /** Open a span; returns its id. */
    int open(const char *name, int parent, long request)
    {
        Span span;
        span.name = name;
        span.parent = parent;
        span.request = request;
        span.start = now();
        spans_.push_back(span);
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[static_cast<size_t>(id)].end = now(); }

    /** Close a step() span with what the wave did. */
    void closeStep(int id, const ScheduleOutcome &outcome)
    {
        Span &span = spans_[static_cast<size_t>(id)];
        span.end = now();
        span.waveTime = outcome.waveTime;
        span.tokensDecoded = outcome.tokensDecoded;
    }

    /** Host durations (us) of every span with this name. */
    std::vector<double> durationsUs(const char *name) const
    {
        std::vector<double> out;
        for (const Span &span : spans_)
            if (span.name == name)
                out.push_back((span.end - span.start) * 1e6);
        return out;
    }

    /** Write one JSON object per span. */
    bool write(const std::string &path) const
    {
        FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(file,
                         "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                         "\"request\":%ld,\"start_s\":%.9f,"
                         "\"end_s\":%.9f",
                         i, s.name.c_str(), s.parent, s.request, s.start,
                         s.end);
            if (s.waveTime >= 0)
                std::fprintf(file,
                             ",\"wave_time_sim_s\":%.9g,"
                             "\"tokens_decoded\":%ld",
                             s.waveTime, s.tokensDecoded);
            std::fprintf(file, "}\n");
        }
        return std::fclose(file) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        long request = -1;
        double start = 0;
        double end = 0;
        double waveTime = -1; //!< step() spans only.
        long tokensDecoded = 0;
    };

    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span that is a no-op without a tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int parent,
               long request = -1)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->open(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    std::exit(2);
}

// --- Small statistics helpers. ---

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Ceil-rank percentile: the online server's own definition. */
double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return ceilRankPercentile(values, p);
}

/** "(median of N passes: t1 t2 ...)" for a host-time note. */
std::string
passesNote(const std::vector<double> &seconds)
{
    std::string note =
        "(median of " + std::to_string(seconds.size()) + " passes:";
    for (double s : seconds) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.4g", s);
        note += buf;
    }
    return note + ")";
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Peak resident set of this process image (VmHWM, reset at exec, so
 *  a launcher's own footprint is not counted). */
double
peakRssMiB()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        fail("cannot read /proc/self/status");
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(status);
    if (!(kib > 0))
        fail("no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

template <typename T>
T
orFail(StatusOr<T> value, const char *what)
{
    if (!value.ok())
        fail(std::string(what) + ": " + value.status().message());
    return std::move(*value);
}

// --- Metric report. ---

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

class Report
{
  public:
    void add(const std::string &name, double value, const char *unit,
             const std::string &note = "")
    {
        metrics_.push_back({name, value, unit});
        std::printf("%s %.10g %s%s%s\n", name.c_str(), value, unit,
                    note.empty() ? "" : " ", note.c_str());
    }

    /** Human-readable line that is not a metric. */
    static void note(const std::string &text)
    {
        std::printf("# %s\n", text.c_str());
    }

    /** The driver-facing result line over the named metrics. A library
     *  error aborts the run before this line, so `failed` is always 0. */
    void printResult(const std::vector<const char *> &names,
                     long attempted) const
    {
        std::string json = "{\"correct\": true, \"attempted\": "
            + std::to_string(attempted)
            + ", \"failed\": 0, \"metrics\": {";
        bool first = true;
        for (const char *name : names) {
            const Metric *metric = find(name);
            if (metric == nullptr)
                fail(std::string("metric not computed: ") + name);
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", metric->value);
            json += std::string(first ? "" : ", ") + "\"" + name
                + "\": {\"value\": " + value + ", \"unit\": \""
                + metric->unit + "\"}";
            first = false;
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    const Metric *find(const char *name) const
    {
        for (const Metric &metric : metrics_)
            if (metric.name == name)
                return &metric;
        return nullptr;
    }

    std::vector<Metric> metrics_;
};

/** End-to-end metrics: the --trace 0 result line. */
const std::vector<const char *> kEndToEnd = {
    "setup_s", "host_ns_per_token", "peak_rss_mib",
};

/** Per-layer metrics: the --trace 1 result line. */
const std::vector<const char *> kPerLayer = {
    "engine.step_host_us_p50",  "engine.step_host_us_p99",
    "engine.steps_per_request", "engine.generator_sim_s",
    "engine.verifier_sim_s",    "engine.spec_useful_ratio",
    "engine.verified_share",    "kv.hit_token_ratio",
    "kv.evicted_tokens",        "kv.reprefilled_tokens",
    "kv.preempt_evicted_tokens", "kv.ledger_peak_fraction",
    "prefix.hit_token_share",   "tier.swapped_in_tokens",
    "tier.swapped_out_tokens",  "tier.rejected_nodes",
    "batch.occupancy",          "serve.shed_requests",
    "serve.context_switches",   "serve.preemptions",
    "serve.utilization",        "serve.generated_tokens",
    "setup.create_host_s",      "setup.calibrate_host_s",
    "setup.trace_host_s",       "trace.overhead_share",
};

// --- Shared measurement pieces. ---

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

/**
 * Host-speed reference: a fixed hashing-and-sorting workload that
 * belongs to the benchmark, not the library, and allocates nothing
 * while timed. It is sampled next to every setup repeat. The shared
 * host's speed drifts by tens of percent over minutes, and the
 * reference drifts with it, so the gated host metrics are given at a
 * fixed host speed: measured seconds x kReferenceSeconds / reference
 * seconds measured in the same run. Raw values are printed beside them.
 */
class HostReference
{
  public:
    /** Nominal reference time; it only sets the scale. */
    static constexpr double kReferenceSeconds = 0.015;

    void sample()
    {
        const Clock::time_point start = Clock::now();
        std::fill(table_.begin(), table_.end(), 0);
        uint64_t state = 42;
        for (double &value : values_) {
            const uint64_t key = splitmix64(state) | 1;
            size_t slot = key & (kSlots - 1);
            while (table_[slot] != 0 && table_[slot] != key)
                slot = (slot + 1) & (kSlots - 1);
            table_[slot] = key;
            value = static_cast<double>(key >> 11) * 0x1.0p-53;
        }
        std::sort(values_.begin(), values_.end());
        for (double value : values_)
            sink_ += value;
        samples_.push_back(secondsSince(start));
    }

    /** Scale for a median-based host time. */
    double medianFactor() const
    {
        return kReferenceSeconds / median(samples_);
    }

    /** Scale for a fastest-repeat host time. */
    double fastestFactor() const
    {
        return kReferenceSeconds
            / *std::min_element(samples_.begin(), samples_.end());
    }

    void report(Report &report) const
    {
        report.add("host_reference_ms", median(samples_) * 1e3, "ms",
                   "(median of " + std::to_string(samples_.size())
                       + "; nominal "
                       + std::to_string(kReferenceSeconds * 1e3) + " ms)");
    }

  private:
    static constexpr size_t kSlots = size_t{1} << 18;
    static constexpr size_t kValues = size_t{1} << 17; // Half load.

    std::vector<uint64_t> table_ = std::vector<uint64_t>(kSlots);
    std::vector<double> values_ = std::vector<double>(kValues);
    std::vector<double> samples_;
    double sink_ = 0; //!< Keeps the sum observable.
};

/** Host seconds of each setup phase, one entry per repeat. */
struct SetupTimes
{
    std::vector<double> create, calibrate, trace, total;

    void add(double c, double k, double t)
    {
        create.push_back(c);
        calibrate.push_back(k);
        trace.push_back(t);
        total.push_back(c + k + t);
    }

    /** Medians at the reference host speed (HostReference). */
    void report(Report &report, const HostReference &ref) const
    {
        const double f = ref.medianFactor();
        report.add("setup_s", median(total) * f, "s",
                   "(median of " + std::to_string(total.size())
                       + " at reference speed; raw "
                       + std::to_string(median(total)) + " s)");
        report.add("setup.create_host_s", median(create) * f, "s");
        report.add("setup.calibrate_host_s", median(calibrate) * f, "s");
        report.add("setup.trace_host_s", median(trace) * f, "s");
    }
};

/** Calibration probe: serve the first problems alone. */
struct Calibration
{
    double meanService = 0; //!< Sim seconds per probe request.
    double kvBudgetBytes = 0;
    double expectedStepTokens = 0;

    double mu() const { return 1.0 / meanService; }
    double slo() const { return kSloFactor * meanService; }
};

Calibration
calibrate(ServingSystem &system, Tracer *tracer, int parent)
{
    Calibration out;
    const int probes = std::min<int>(
        kProbeServes, static_cast<int>(system.problems().size()));
    for (int i = 0; i < probes; ++i) {
        ScopedSpan span(tracer, "probe.serve", parent, i);
        out.meanService +=
            system.serve(system.problems()[static_cast<size_t>(i)])
                .completionTime;
    }
    out.meanService /= std::max(1, probes);
    out.kvBudgetBytes = system.engine().kvBudgetBytes();
    out.expectedStepTokens = system.engine().expectedStepTokens();
    if (!(out.meanService > 0))
        fail("calibration probe measured no service time");
    return out;
}

/**
 * Serve one request alone. Untraced this is ServingSystem::serve();
 * traced it is submit() and one span per step(), so each engine
 * iteration's host cost is measured.
 */
RequestResult
serveAlone(ServingSystem &system, const Problem &problem, Tracer *tracer,
           int parent, long request)
{
    if (tracer == nullptr)
        return system.serve(problem);
    ScopedSpan span(tracer, "request", parent, request);
    RequestId id = 0;
    {
        ScopedSpan submit(tracer, "submit", span.id(), request);
        id = system.submit(problem);
    }
    ScheduleOutcome outcome;
    do {
        const int step = tracer->open("step", span.id(), request);
        outcome = system.step();
        tracer->closeStep(step, outcome);
    } while (outcome.moreWork);
    RequestResult result = orFail(system.result(id), "result");
    if (Status released = system.release(id); !released.ok())
        fail("release: " + released.message());
    return result;
}

/**
 * Engine-layer metrics over a set of solo request results; the step
 * timings come from the traced submit()/step() spans (none untraced).
 */
void
reportEngine(Report &report, const std::vector<RequestResult> &results,
             const Tracer *tracer, const std::string &source)
{
    const std::vector<double> stepUs =
        tracer != nullptr ? tracer->durationsUs("step")
                          : std::vector<double>{};
    const size_t stepped =
        tracer != nullptr ? tracer->durationsUs("request").size() : 0;
    double gen = 0, ver = 0, xfer = 0;
    double spec = 0, wasted = 0, verified = 0, generated = 0;
    double hit = 0, miss = 0, evicted = 0;
    for (const RequestResult &r : results) {
        gen += r.generatorTime;
        ver += r.verifierTime;
        xfer += r.transferTime;
        spec += static_cast<double>(r.speculativeTokens);
        wasted += static_cast<double>(r.wastedSpecTokens);
        verified += static_cast<double>(r.verifiedTokens);
        generated += static_cast<double>(r.generatedTokens);
        hit += static_cast<double>(r.kvStats.hitTokens);
        miss += static_cast<double>(r.kvStats.missTokens);
        evicted += static_cast<double>(r.kvStats.evictedTokens);
    }
    const double n = std::max<size_t>(1, results.size());
    const std::string steps_note =
        "(n=" + std::to_string(stepUs.size()) + " steps, " + source + ")";
    report.add("engine.step_host_us_p50", percentile(stepUs, 0.50), "us",
               steps_note);
    report.add("engine.step_host_us_p99", percentile(stepUs, 0.99), "us",
               steps_note);
    report.add("engine.steps_per_request",
               ratio(static_cast<double>(stepUs.size()),
                     static_cast<double>(stepped)),
               "count");
    const std::string note = "(per request, " + source + ")";
    report.add("engine.generator_sim_s", gen / n, "s", note);
    report.add("engine.verifier_sim_s", ver / n, "s", note);
    report.add("engine.transfer_sim_s", xfer / n, "s", note);
    report.add("engine.spec_useful_ratio", ratio(spec - wasted, spec),
               "ratio");
    report.add("engine.verified_share", ratio(verified, generated),
               "ratio");
    report.add("kv.hit_token_ratio", ratio(hit, hit + miss), "ratio",
               "(" + source + ")");
    report.add("kv.evicted_tokens", evicted, "count", "(" + source + ")");
}

/**
 * Repeat passes for about `seconds`, at least twice, appending host
 * seconds to `untraced` or `traced`. `pass(index, traced)` gets its
 * index among passes of its kind. With `trace` set, traced passes
 * alternate with untraced ones so both see the same host conditions;
 * the first pass is always untraced.
 */
template <typename Pass>
void
repeatPasses(double seconds, bool trace, Pass pass,
             std::vector<double> &untraced, std::vector<double> &traced)
{
    const Clock::time_point start = Clock::now();
    while (untraced.size() + traced.size() < 2
           || secondsSince(start) < seconds) {
        const bool traced_pass = trace && untraced.size() > traced.size();
        std::vector<double> &out = traced_pass ? traced : untraced;
        out.push_back(pass(out.size(), traced_pass));
    }
}

/**
 * Simulator speed: host nanoseconds per verified token, over the
 * fastest repeat of each unit of work (`best_unit_s`: one request on
 * solo, one serveRequests() call online). The shared host's speed
 * swings by tens of percent over seconds, so the fastest repeat is the
 * steadiest estimate of the code's own cost; dividing by the tokens a
 * pass verifies keeps a seed that completes more work from reading as
 * slower.
 */
void
reportHostSpeed(Report &report, const std::vector<double> &best_unit_s,
                double verified_tokens, const HostReference &ref)
{
    if (!(verified_tokens > 0))
        fail("a pass verified no tokens");
    double best = 0;
    for (double s : best_unit_s)
        best += s;
    const double raw_ns = best / verified_tokens * 1e9;
    report.add("host_ns_per_token", raw_ns * ref.fastestFactor(), "ns",
               "(fastest repeat of each of "
                   + std::to_string(best_unit_s.size())
                   + " units at reference speed; raw "
                   + std::to_string(raw_ns) + " ns)");
    ref.report(report);
}

/** Element-wise minimum of `sample` into `best` (empty = first). */
void
keepFastest(std::vector<double> &best, const std::vector<double> &sample)
{
    if (best.empty()) {
        best = sample;
        return;
    }
    for (size_t i = 0; i < best.size(); ++i)
        best[i] = std::min(best[i], sample[i]);
}

/** Fastest traced pass over fastest untraced pass, minus one. */
void
reportTraceOverhead(Report &report, const std::vector<double> &untraced,
                    const std::vector<double> &traced)
{
    if (traced.empty())
        return;
    const double t = *std::min_element(traced.begin(), traced.end());
    const double u = *std::min_element(untraced.begin(), untraced.end());
    report.add("trace.overhead_share", t / u - 1.0, "ratio",
               "(fastest traced pass " + std::to_string(t)
                   + " s vs untraced " + std::to_string(u) + " s)");
}

void
writeSpans(const Tracer *tracer, const Args &args)
{
    if (tracer == nullptr || args.spans.empty())
        return;
    if (!tracer->write(args.spans))
        fail("cannot write spans to " + args.spans);
    Report::note("spans written to " + args.spans);
}

// --- solo_beam32 ---

ServingOptions
soloOptions(uint64_t seed)
{
    ServingOptions opts; // AIME, 1.5B+1.5B, RTX4090, beam_search n=32.
    opts.config = FastTtsConfig::fastTts();
    opts.problemCount = kSoloProblems;
    opts.seed = seed;
    return opts;
}

int
runSolo(const Args &args)
{
    const ServingOptions opts = soloOptions(deriveSeed(args.seed, 1));
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;

    // Setup runs once before the passes and again after each pass, so
    // its median samples the host across the whole run.
    SetupTimes setup;
    HostReference host_ref;
    Calibration cal;
    auto setupOnce = [&](Tracer *rep_tr) {
        ScopedSpan root(rep_tr, "setup", -1);
        Clock::time_point t = Clock::now();
        ServingSystem system = [&] {
            ScopedSpan span(rep_tr, "create", root.id());
            return orFail(ServingSystem::create(opts), "create");
        }();
        const double c = secondsSince(t);
        t = Clock::now();
        cal = calibrate(system, rep_tr, root.id());
        const double k = secondsSince(t);
        t = Clock::now();
        std::vector<Problem> order;
        {
            ScopedSpan span(rep_tr, "request_set", root.id());
            order = system.problems();
        }
        setup.add(c, k, secondsSince(t));
        host_ref.sample();
    };
    setupOnce(tr);

    ServingSystem system = orFail(ServingSystem::create(opts), "create");
    const std::vector<Problem> &problems = system.problems();

    // Timed passes: serve() back to back, closed loop, one client.
    std::vector<RequestResult> results;
    std::vector<double> request_ms;
    std::vector<double> fastest_s; // Per request, over passes.
    auto servePass = [&](size_t pass) {
        const Clock::time_point start = Clock::now();
        std::vector<double> this_pass(problems.size());
        for (size_t i = 0; i < problems.size(); ++i) {
            const Clock::time_point t = Clock::now();
            RequestResult r = system.serve(problems[i]);
            this_pass[i] = secondsSince(t);
            request_ms.push_back(this_pass[i] * 1e3);
            if (pass == 0) {
                results.push_back(std::move(r));
            } else if (r.verifiedTokens != results[i].verifiedTokens
                       || r.completionTime
                           != results[i].completionTime) {
                fail("solo pass " + std::to_string(pass)
                     + " diverged from pass 0 at problem "
                     + std::to_string(i));
            }
        }
        keepFastest(fastest_s, this_pass);
        const double seconds = secondsSince(start);
        setupOnce(nullptr);
        return seconds;
    };

    // Traced passes: submit() + one span per step().
    auto tracedPass = [&](size_t pass) {
        ScopedSpan root(tr, "pass", -1, static_cast<long>(pass));
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < problems.size(); ++i) {
            const RequestResult r =
                serveAlone(system, problems[i], tr, root.id(),
                           static_cast<long>(i));
            if (r.verifiedTokens != results[i].verifiedTokens
                || r.completionTime != results[i].completionTime)
                fail("submit/step result differs from serve() at "
                     "problem "
                     + std::to_string(i));
        }
        const double seconds = secondsSince(start);
        setupOnce(nullptr);
        return seconds;
    };
    std::vector<double> pass_s, traced_s;
    repeatPasses(
        args.seconds, tr != nullptr,
        [&](size_t i, bool traced) {
            return traced ? tracedPass(i) : servePass(i);
        },
        pass_s, traced_s);

    // Output checks.
    const long sent = static_cast<long>(problems.size());
    long completed = 0;
    for (const RequestResult &r : results)
        completed += r.completedBeams > 0 ? 1 : 0;
    if (completed != sent)
        fail("solo: " + std::to_string(sent - completed)
             + " requests completed no beam");

    Report report;
    Report::note("workload solo_beam32 seed " + std::to_string(args.seed)
                 + ": closed loop, 1 client, AIME 1.5B+1.5B RTX4090 "
                   "beam_search n=32");
    std::vector<double> latencies;
    double verified = 0, sim_busy = 0;
    for (const RequestResult &r : results) {
        latencies.push_back(r.completionTime);
        verified += static_cast<double>(r.verifiedTokens);
        sim_busy += r.completionTime;
    }
    long met = 0;
    for (double latency : latencies)
        met += latency <= cal.slo() ? 1 : 0;
    const BatchResult batch = aggregateResults(results, opts.numBeams);
    const std::string n_note =
        "(n=" + std::to_string(latencies.size()) + ")";

    Report::note("sent " + std::to_string(sent) + " completed "
                 + std::to_string(completed)
                 + " shed 0 failed 0 timed_out 0 cancelled 0");
    setup.report(report, host_ref);
    report.add("host_serve_s", median(pass_s), "s", passesNote(pass_s));
    reportHostSpeed(report, fastest_s, verified, host_ref);
    report.add("host_request_ms_p50", percentile(request_ms, 0.50), "ms",
               "(n=" + std::to_string(request_ms.size()) + ")");
    report.add("host_request_ms_p99", percentile(request_ms, 0.99), "ms",
               "(n=" + std::to_string(request_ms.size()) + ")");
    report.add("latency_p50_s", percentile(latencies, 0.50), "s", n_note);
    report.add("latency_p99_s", percentile(latencies, 0.99), "s", n_note);
    report.add("slo_attainment", ratio(static_cast<double>(met),
                                       static_cast<double>(sent)),
               "ratio", "(slo " + std::to_string(cal.slo()) + " s)");
    report.add("goodput_tok_s", ratio(verified, sim_busy), "tok/s");
    report.add("precise_goodput_tok_s", batch.meanGoodput, "tok/s");
    report.add("failed_share", 0.0, "ratio");
    report.add("top1_accuracy", batch.top1Accuracy, "%");

    reportEngine(report, results, tr, "submit/step");
    double reprefilled = 0, preempt_evicted = 0, generated = 0;
    for (const RequestResult &r : results) {
        reprefilled += static_cast<double>(r.kvStats.reprefilledTokens);
        preempt_evicted +=
            static_cast<double>(r.kvStats.preemptEvictedTokens);
        generated += static_cast<double>(r.generatedTokens);
    }
    report.add("kv.reprefilled_tokens", reprefilled, "count");
    report.add("kv.preempt_evicted_tokens", preempt_evicted, "count");
    report.add("kv.ledger_peak_fraction", 0.0, "ratio", "(no ledger)");
    report.add("prefix.hit_token_share", 0.0, "ratio", "(no prefix cache)");
    report.add("tier.swapped_in_tokens", 0.0, "count", "(no tier)");
    report.add("tier.swapped_out_tokens", 0.0, "count", "(no tier)");
    report.add("tier.rejected_nodes", 0.0, "count", "(no tier)");
    report.add("tier.transfer_sim_s", 0.0, "s", "(no tier)");
    report.add("batch.occupancy", 1.0, "count", "(one request per wave)");
    report.add("queue.delay_p50_s", 0.0, "s", "(closed loop)");
    report.add("queue.delay_p99_s", 0.0, "s", "(closed loop)");
    report.add("serve.shed_requests", 0.0, "count");
    report.add("serve.context_switches", 0.0, "count");
    report.add("serve.preemptions", 0.0, "count");
    report.add("serve.utilization", 1.0, "ratio", "(back to back)");
    report.add("serve.generated_tokens", generated, "count");
    reportTraceOverhead(report, pass_s, traced_s);
    report.add("peak_rss_mib", peakRssMiB(), "MiB");

    writeSpans(tr, args);
    report.printResult(args.trace ? kPerLayer : kEndToEnd, sent);
    return 0;
}

// --- Online workloads (bursty_continuous, multiturn_sliced) ---

/** One serveRequests() call at one offered rate. */
struct OnlinePoint
{
    double rate = 0;
    std::vector<OnlineRequest> requests;
    long promptTokens = 0; //!< Sum over requests sent.
};

struct OnlineWorkload
{
    ServingOptions opts;
    OnlineServerOptions online;
    std::vector<OnlinePoint> points;
    size_t nominal = 0; //!< Point whose metrics are the headline.
    Calibration cal;
};

/** What one served point left behind. */
struct PointOutcome
{
    OnlineTraceResult trace;
    double ledgerPeakFraction = 0;
    HostKvTierStats tier;
};

ServingOptions
onlineOptions(uint64_t seed, int problems)
{
    ServingOptions opts;
    opts.config = FastTtsConfig::fastTts();
    opts.datasetName = "AMC";
    opts.numBeams = kOnlineBeams;
    opts.problemCount = problems;
    opts.seed = seed;
    return opts;
}

/** Unshared prompts, Pareto-bursty arrivals on the mu ladder. */
OnlineWorkload
buildBursty(uint64_t seed, Tracer *tracer, int parent, double *create_s,
            double *calibrate_s, double *trace_s)
{
    OnlineWorkload w;
    w.opts = onlineOptions(deriveSeed(seed, 2), kOnlineRequests);
    Clock::time_point t = Clock::now();
    ServingSystem probe = [&] {
        ScopedSpan span(tracer, "create", parent);
        return orFail(ServingSystem::create(w.opts), "create");
    }();
    *create_s = secondsSince(t);
    t = Clock::now();
    w.cal = calibrate(probe, tracer, parent);
    *calibrate_s = secondsSince(t);

    t = Clock::now();
    w.online.policy = "edf";
    w.online.maxInflight = kOnlineInflight;
    w.online.slo = w.cal.slo();
    w.online.shedDoomed = true;
    w.online.batching = "continuous";
    // README sizing rule: maxInflight x beams x expected step tokens.
    w.online.maxBatchedTokens = kOnlineInflight * kOnlineBeams
        * std::max(1, static_cast<int>(w.cal.expectedStepTokens + 1));
    w.online.kvBudgetGiB =
        kBurstyKvFraction * w.cal.kvBudgetBytes / (1024.0 * 1024 * 1024);
    w.online.prefixCache = "on";

    const uint64_t arrival_seed = deriveSeed(seed, 3);
    for (double multiple : kBurstyLadder) {
        OnlinePoint point;
        point.rate = multiple * w.cal.mu();
        std::vector<double> arrivals;
        {
            ScopedSpan span(tracer, "makeArrivalTrace", parent);
            arrivals = orFail(makeArrivalTrace("bursty", kOnlineRequests,
                                               point.rate, arrival_seed),
                              "makeArrivalTrace");
        }
        for (int i = 0; i < kOnlineRequests; ++i) {
            OnlineRequest request;
            request.problemId = i;
            request.arrival = arrivals[static_cast<size_t>(i)];
            request.slo = w.cal.slo();
            point.promptTokens +=
                probe.problems()[static_cast<size_t>(i)].promptTokens;
            point.requests.push_back(std::move(request));
        }
        w.points.push_back(std::move(point));
    }
    w.nominal = kBurstyNominal;
    *trace_s = secondsSince(t);
    return w;
}

/**
 * Zipf-popular multi-turn sessions: each request picks a session slot
 * with weight 1/(slot+1); a slot runs one session of up to kMaxTurns
 * turns, then opens a fresh one. Each session has its own problem and
 * turn k's prompt extends turn k-1's by kTurnGrowthTokens tokens.
 */
std::vector<OnlineRequest>
makeSessions(uint64_t seed, const std::vector<double> &arrivals,
             double slo, int *sessions)
{
    std::vector<double> cdf;
    double total = 0;
    for (int s = 0; s < kSessionSlots; ++s)
        cdf.push_back(total += 1.0 / (s + 1));
    uint64_t state = seed;
    std::vector<int> slot_session(kSessionSlots, -1);
    std::vector<int> slot_turns(kSessionSlots, kMaxTurns);
    std::vector<OnlineRequest> out;
    *sessions = 0;
    for (double arrival : arrivals) {
        const double u = uniform01(state) * total;
        const size_t slot = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const size_t s = std::min<size_t>(slot, kSessionSlots - 1);
        if (slot_turns[s] >= kMaxTurns) {
            slot_session[s] = (*sessions)++;
            slot_turns[s] = 0;
        }
        const int turn = ++slot_turns[s];
        const int session = slot_session[s];
        OnlineRequest request;
        request.problemId = session;
        request.arrival = arrival;
        request.slo = slo;
        const int tokens = kBasePromptTokens + (turn - 1) * kTurnGrowthTokens;
        for (int j = 0; j < tokens; ++j)
            request.promptIds.push_back(static_cast<int32_t>(
                ((static_cast<int64_t>(session) + 1) * 1000003 + j)
                & 0x7FFFFFFF));
        out.push_back(std::move(request));
    }
    return out;
}

OnlineWorkload
buildMultiturn(uint64_t seed, Tracer *tracer, int parent, double *create_s,
               double *calibrate_s, double *trace_s)
{
    OnlineWorkload w;
    // Probe on AMC problems of the same seed; the session count is not
    // known until the trace is drawn, so the served set is sized after.
    const uint64_t problem_seed = deriveSeed(seed, 4);
    Clock::time_point t = Clock::now();
    ServingSystem probe = [&] {
        ScopedSpan span(tracer, "create", parent);
        return orFail(ServingSystem::create(
                          onlineOptions(problem_seed, kProbeServes)),
                      "create");
    }();
    *create_s = secondsSince(t);
    t = Clock::now();
    w.cal = calibrate(probe, tracer, parent);
    *calibrate_s = secondsSince(t);

    t = Clock::now();
    OnlinePoint point;
    point.rate = w.cal.mu();
    std::vector<double> arrivals;
    {
        ScopedSpan span(tracer, "makeArrivalTrace", parent);
        arrivals = orFail(makeArrivalTrace("poisson", kOnlineRequests,
                                           point.rate,
                                           deriveSeed(seed, 5)),
                          "makeArrivalTrace");
    }
    int sessions = 0;
    point.requests =
        makeSessions(deriveSeed(seed, 6), arrivals, w.cal.slo(), &sessions);
    for (const OnlineRequest &r : point.requests)
        point.promptTokens += static_cast<long>(r.promptIds.size());
    w.points.push_back(std::move(point));
    w.opts = onlineOptions(problem_seed, std::max(sessions, kProbeServes));

    w.online.maxInflight = kOnlineInflight;
    w.online.slo = w.cal.slo();
    w.online.batching = "off";
    w.online.preempt = "slice";
    w.online.kvBudgetGiB = kMultiturnKvFraction * w.cal.kvBudgetBytes
        / (1024.0 * 1024 * 1024);
    w.online.kvTier = "host";
    w.online.hostBandwidthGBs = kHostLinkGBs;
    w.online.prefixCache = "on";
    *trace_s = secondsSince(t);
    return w;
}

PointOutcome
servePoint(const OnlineWorkload &w, const OnlinePoint &point,
           Tracer *tracer, int parent, double *host_s)
{
    OnlineServer server = [&] {
        ScopedSpan span(tracer, "create", parent);
        return orFail(OnlineServer::create(w.opts, w.online),
                      "OnlineServer::create");
    }();
    PointOutcome out;
    const Clock::time_point t = Clock::now();
    {
        ScopedSpan span(tracer, "serveRequests", parent);
        out.trace = orFail(server.serveRequests(point.requests),
                           "serveRequests");
    }
    *host_s = secondsSince(t);
    out.ledgerPeakFraction = ratio(server.kvLedger().peakUsedBytes(),
                                   server.kvLedger().totalBytes());
    if (server.hostTier() != nullptr)
        out.tier = server.hostTier()->stats();
    return out;
}

bool
samePoint(const PointOutcome &a, const PointOutcome &b)
{
    return a.trace.records.size() == b.trace.records.size()
        && a.trace.verifiedTokens == b.trace.verifiedTokens
        && a.trace.makespan == b.trace.makespan
        && a.trace.shedRequests == b.trace.shedRequests
        && a.trace.p99Latency == b.trace.p99Latency;
}

/** Terminal-state counts of one point, against requests sent. */
struct Tally
{
    long sent = 0, completed = 0, shed = 0, failed = 0, timedOut = 0,
         cancelled = 0, met = 0;

    long notServed() const { return shed + failed + timedOut + cancelled; }
};

Tally
tally(const OnlinePoint &point, const OnlineTraceResult &trace)
{
    Tally t;
    t.sent = static_cast<long>(point.requests.size());
    t.completed = static_cast<long>(trace.records.size());
    t.shed = trace.shedRequests;
    t.failed = trace.failedRequests;
    t.timedOut = trace.timeouts;
    t.cancelled = trace.cancelled;
    for (const OnlineRequestRecord &r : trace.records)
        t.met += r.hasDeadline() && !r.missedDeadline() ? 1 : 0;
    return t;
}

/**
 * Output check: every request ends in exactly one terminal state, and
 * the verified tokens of the completed requests equal their solo
 * references for the same (problem, prompt).
 */
std::vector<bool>
checkPoint(const std::string &label, const OnlinePoint &point,
           const PointOutcome &out, const std::vector<long> &reference)
{
    const Tally t = tally(point, out.trace);
    if (t.completed + t.notServed() != t.sent)
        fail(label + ": completed " + std::to_string(t.completed)
             + " + not served " + std::to_string(t.notServed())
             + " != sent " + std::to_string(t.sent));
    std::map<std::pair<int, double>, size_t> index;
    for (size_t i = 0; i < point.requests.size(); ++i)
        index[{point.requests[i].problemId, point.requests[i].arrival}] = i;
    if (index.size() != point.requests.size())
        fail(label + ": requests are not distinct by (problem, arrival)");
    std::vector<bool> seen(point.requests.size(), false);
    long expected = 0;
    for (const OnlineRequestRecord &r : out.trace.records) {
        const auto it = index.find({r.problemId, r.arrival});
        if (it == index.end() || seen[it->second])
            fail(label + ": record for problem "
                 + std::to_string(r.problemId)
                 + " matches no unserved request");
        seen[it->second] = true;
        expected += reference[it->second];
    }
    if (expected != out.trace.verifiedTokens)
        fail(label + ": verified tokens " +
             std::to_string(out.trace.verifiedTokens)
             + " != solo references " + std::to_string(expected));
    Report::note(label + " check ok: verified " + std::to_string(expected)
                 + " = solo references");
    return seen;
}

int
runOnline(const Args &args, bool bursty)
{
    const char *name = bursty ? "bursty_continuous" : "multiturn_sliced";
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;

    // Setup runs once before the passes and again after each pass, so
    // its median samples the host across the whole run.
    SetupTimes setup;
    HostReference host_ref;
    auto setupOnce = [&](Tracer *rep_tr) {
        ScopedSpan root(rep_tr, "setup", -1);
        double c = 0, k = 0, t = 0;
        OnlineWorkload built =
            bursty ? buildBursty(args.seed, rep_tr, root.id(), &c, &k, &t)
                   : buildMultiturn(args.seed, rep_tr, root.id(), &c, &k,
                                    &t);
        // The served stack is built once per pass; its creation is
        // setup work too.
        const Clock::time_point start = Clock::now();
        {
            ScopedSpan span(rep_tr, "create", root.id());
            orFail(OnlineServer::create(built.opts, built.online),
                   "OnlineServer::create");
        }
        setup.add(c + secondsSince(start), k, t);
        host_ref.sample();
        return built;
    };
    const OnlineWorkload w = setupOnce(tr);

    // Timed passes: one serveRequests() per point, on a fresh server.
    std::vector<PointOutcome> outcomes;
    std::vector<std::vector<double>> point_s(w.points.size());
    auto pass = [&](size_t pass_index, Tracer *ptr) {
        ScopedSpan root(ptr, "pass", -1, static_cast<long>(pass_index));
        double total = 0;
        for (size_t p = 0; p < w.points.size(); ++p) {
            double host = 0;
            PointOutcome out =
                servePoint(w, w.points[p], ptr, root.id(), &host);
            total += host;
            if (ptr == nullptr)
                point_s[p].push_back(host);
            if (outcomes.size() < w.points.size())
                outcomes.push_back(std::move(out));
            else if (!samePoint(out, outcomes[p]))
                fail(std::string(name) + ": pass "
                     + std::to_string(pass_index)
                     + " diverged at point " + std::to_string(p));
        }
        setupOnce(nullptr); // Same inputs again; only its time is kept.
        return total;
    };
    std::vector<double> pass_s, traced_s;
    repeatPasses(
        args.seconds, tr != nullptr,
        [&](size_t i, bool traced) { return pass(i, traced ? tr : nullptr); },
        pass_s, traced_s);

    // Solo references for the output check (and the engine-layer
    // metrics): every request of the nominal point served alone.
    const OnlinePoint &nominal = w.points[w.nominal];
    ServingSystem ref = orFail(ServingSystem::create(w.opts), "create");
    std::vector<RequestResult> ref_results;
    std::vector<long> reference;
    {
        ScopedSpan root(tr, "references", -1);
        for (size_t i = 0; i < nominal.requests.size(); ++i) {
            const OnlineRequest &request = nominal.requests[i];
            Problem problem =
                ref.problems()[static_cast<size_t>(request.problemId)];
            if (!request.promptIds.empty()) {
                problem.promptIds = request.promptIds;
                problem.promptTokens =
                    static_cast<int>(request.promptIds.size());
            }
            ref_results.push_back(
                serveAlone(ref, problem, tr, root.id(), static_cast<long>(i)));
            reference.push_back(ref_results.back().verifiedTokens);
        }
    }
    // Every ladder point serves the same (problem, prompt) per index.
    std::vector<bool> nominal_completed;
    for (size_t p = 0; p < w.points.size(); ++p) {
        std::vector<bool> completed =
            checkPoint(std::string(name) + " point " + std::to_string(p),
                       w.points[p], outcomes[p], reference);
        if (p == w.nominal)
            nominal_completed = std::move(completed);
    }

    Report report;
    Report::note(std::string("workload ") + name + " seed "
                 + std::to_string(args.seed)
                 + (bursty ? ": open loop, Pareto-bursty arrivals, AMC n=16"
                           : ": open loop, Poisson arrivals at 1 mu, "
                             "multi-turn sessions, AMC n=16"));
    Report::note("mu " + std::to_string(w.cal.mu()) + " req/s (probe mean "
                 + std::to_string(w.cal.meanService) + " s), slo "
                 + std::to_string(w.cal.slo()) + " s, max_batched_tokens "
                 + std::to_string(w.online.maxBatchedTokens)
                 + ", kv budget " + std::to_string(w.online.kvBudgetGiB)
                 + " GiB");

    double capacity = 0;
    for (size_t p = 0; p < w.points.size(); ++p) {
        const OnlinePoint &point = w.points[p];
        const OnlineTraceResult &trace = outcomes[p].trace;
        const Tally t = tally(point, trace);
        const double attainment = ratio(static_cast<double>(t.met),
                                        static_cast<double>(t.sent));
        if (attainment >= kCapacityTarget)
            capacity = std::max(capacity, point.rate);
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "rate %.6g req/s (%.4g mu): sent %ld completed %ld shed %ld "
            "failed %ld timed_out %ld cancelled %ld slo_attainment %.6g "
            "goodput %.6g tok/s p50 %.6g s p99 %.6g s host %.6g s",
            point.rate, point.rate / w.cal.mu(), t.sent, t.completed,
            t.shed, t.failed, t.timedOut, t.cancelled, attainment,
            ratio(static_cast<double>(trace.verifiedTokens), trace.makespan),
            trace.p50Latency, trace.p99Latency, median(point_s[p]));
        Report::note(line);
    }

    const PointOutcome &head = outcomes[w.nominal];
    const OnlineTraceResult &trace = head.trace;
    const Tally t = tally(nominal, trace);
    std::vector<double> latencies, delays;
    for (const OnlineRequestRecord &r : trace.records) {
        latencies.push_back(r.latency());
        delays.push_back(r.queueDelay());
    }
    const std::string n_note =
        "(n=" + std::to_string(latencies.size()) + " completed of "
        + std::to_string(t.sent) + " sent)";

    setup.report(report, host_ref);
    report.add("host_serve_s", median(pass_s), "s", passesNote(pass_s));
    double verified = 0;
    std::vector<double> fastest_s;
    for (size_t p = 0; p < w.points.size(); ++p) {
        verified += static_cast<double>(outcomes[p].trace.verifiedTokens);
        fastest_s.push_back(
            *std::min_element(point_s[p].begin(), point_s[p].end()));
    }
    reportHostSpeed(report, fastest_s, verified, host_ref);
    report.add("latency_p50_s", percentile(latencies, 0.50), "s", n_note);
    report.add("latency_p99_s", percentile(latencies, 0.99), "s", n_note);
    report.add("slo_attainment", ratio(static_cast<double>(t.met),
                                       static_cast<double>(t.sent)),
               "ratio", "(of sent)");
    report.add("goodput_tok_s",
               ratio(static_cast<double>(trace.verifiedTokens),
                     trace.makespan),
               "tok/s");
    report.add("failed_share", ratio(static_cast<double>(t.notServed()),
                                     static_cast<double>(t.sent)),
               "ratio");
    if (bursty)
        report.add("slo_capacity_rps", capacity, "1/s",
                   "(highest ladder rate with slo_attainment >= 0.9)");

    reportEngine(report, ref_results, tr, "solo references");
    report.add("kv.reprefilled_tokens",
               static_cast<double>(trace.reprefilledTokens), "count");
    report.add("kv.preempt_evicted_tokens",
               static_cast<double>(trace.preemptEvictedTokens), "count");
    report.add("kv.ledger_peak_fraction", head.ledgerPeakFraction, "ratio");
    report.add("prefix.hit_token_share",
               ratio(static_cast<double>(trace.prefixHitTokens),
                     static_cast<double>(nominal.promptTokens)),
               "ratio", "(of prompt tokens sent)");
    report.add("tier.swapped_in_tokens",
               static_cast<double>(head.tier.swappedInTokens), "count");
    report.add("tier.swapped_out_tokens",
               static_cast<double>(head.tier.swappedOutTokens), "count");
    report.add("tier.rejected_nodes",
               static_cast<double>(head.tier.rejectedNodes), "count");
    report.add("tier.transfer_sim_s", trace.swapTransferTime, "s");
    report.add("batch.occupancy", trace.batchOccupancy, "count");
    report.add("queue.delay_p50_s", percentile(delays, 0.50), "s", n_note);
    report.add("queue.delay_p99_s", percentile(delays, 0.99), "s", n_note);
    report.add("serve.shed_requests", t.shed, "count");
    report.add("serve.context_switches", trace.contextSwitches, "count");
    report.add("serve.preemptions", trace.preemptions, "count");
    report.add("serve.utilization", trace.utilization, "ratio");
    double generated = 0;
    for (size_t i = 0; i < ref_results.size(); ++i)
        if (nominal_completed[i])
            generated += static_cast<double>(ref_results[i].generatedTokens);
    report.add("serve.generated_tokens", generated, "count",
               "(solo references of the completed requests)");
    reportTraceOverhead(report, pass_s, traced_s);
    report.add("peak_rss_mib", peakRssMiB(), "MiB");

    writeSpans(tr, args);
    long attempted = 0;
    for (const OnlinePoint &point : w.points)
        attempted += static_cast<long>(point.requests.size());
    report.printResult(args.trace ? kPerLayer : kEndToEnd, attempted);
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fail("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                fail("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0)
                || args.seconds > 600)
                fail("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                fail("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spans = value;
        } else {
            fail("unknown flag " + flag);
        }
    }
    if (!have_workload)
        fail("--workload is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.workload == "solo_beam32")
        return runSolo(args);
    if (args.workload == "bursty_continuous")
        return runOnline(args, true);
    if (args.workload == "multiturn_sliced")
        return runOnline(args, false);
    fail("unknown workload " + args.workload
         + " (solo_beam32, bursty_continuous, multiturn_sliced)");
}
