// The five workloads of the campaign benchmark. perf/README.md gives the
// reason for each and the layer metric -> end-to-end metric map.
//
// Every workload follows one shape: set-up (timed, repeated), references
// (untimed prologue), warm-up, then a measured phase. The untraced run
// reports the end-to-end metrics from it; the traced run measures an
// untraced half and a traced half (for trace.overhead_frac) and then the
// traced-only extras: the direct ConcurrentSim drive, its good-only twin,
// and the 1-thread Session::run walls behind scheduler.work_inflation.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "eraser/supervisor.h"
#include "perf.h"
#include "util/prng.h"

namespace perf {
namespace {

using eraser::Prng;
namespace suite = eraser::suite;

/// An independent stream of the workload seed for one use (fault samples,
/// slices, stimulus seeds, the arrival schedule).
uint64_t derive(uint64_t seed, uint64_t tag) {
    return Prng(seed ^ (tag * 0x9E3779B97F4A7C15ULL)).next();
}

double ms(double s) { return s * 1e3; }

// --- set-up ------------------------------------------------------------------

struct SetupTimes {
    double frontend = 0.0;
    double build = 0.0;
    double faults = 0.0;
    double session = 0.0;
    double spawn = 0.0;
    /// HostMeter factor sampled just before this repetition.
    double host = 1.0;
    [[nodiscard]] double total() const {
        return frontend + build + faults + session + spawn;
    }
};

/// Everything set-up builds. Member order is destruction order in reverse:
/// sessions drain first, then the journal, the cache, the FileIo the
/// journal writes through, the fleet, the campaigns, and the designs.
struct World {
    std::vector<Circuit> circuits;
    std::vector<Campaign> campaigns;
    /// service-mixed: the fault universe of each circuit (slices).
    std::vector<std::vector<fault::Fault>> universes;
    std::unique_ptr<core::WorkerSupervisor> fleet;
    std::unique_ptr<TimedFileIo> journal_io;
    std::shared_ptr<core::VerdictCache> cache;
    std::shared_ptr<core::CampaignJournal> journal;
    std::vector<std::unique_ptr<core::Session>> sessions;   // per circuit
};

/// One measured campaign.
struct Record {
    size_t campaign = 0;
    bool warm = false;   // service-mixed: a resubmission served by the cache
    bool traced = false;
    /// Latency origin: submit start (closed loop) or due time (open loop).
    Clock::time_point origin{};
    Clock::time_point submit_at{};
    double submit_s = 0.0;   // time inside submit()
    double late_s = 0.0;     // open loop: how late the generator submitted
    double latency_s = 0.0;
    /// The latency in reference-host seconds: times the HostMeter factor
    /// sampled just before the campaign (closed loop), or read on the
    /// HostClock (open loop).
    double norm_latency_s = 0.0;
    double first_event_s = -1.0;   // submit -> first shard event (traced)
    double last_event_s = -1.0;    // submit -> last shard event (traced)
    core::CampaignResult result;
};

struct Phase {
    std::vector<Record> records;
    double wall_s = 0.0;
    /// Open loop: the same span on the HostClock.
    double norm_wall_s = 0.0;
    bool closed = false;
};

struct Context {
    Context(const Options& o, Report& r)
        : opts(o), report(r), tracer(Clock::now()), meter(o.threads) {}

    const Options& opts;
    Report& report;
    Tracer tracer;
    HostMeter meter;
    std::atomic<int64_t> apply_ns{0};
    World world;
    std::vector<SetupTimes> setups;
    /// Every HostMeter factor the measured phases sampled (host_kernel_ms).
    std::vector<double> host_factors;
    std::mutex host_mu;
    /// Engine threads the measured load runs on (idle_frac's denominator).
    uint32_t engine_threads = 1;
    bool pooled = false;   // campaigns go through Session::submit
};

void note_span(Context& cx, const std::string& name, Clock::time_point t0,
               Clock::time_point t1) {
    cx.tracer.span(name, "setup", t0, seconds_between(t0, t1),
                   cx.tracer.thread_lane());
}

void load_circuits(Context& cx, World& w,
                   const std::vector<std::string>& names, SetupTimes& t) {
    for (const std::string& name : names) {
        Circuit c;
        c.bench = &suite::find_benchmark(name);
        const Clock::time_point t0 = Clock::now();
        c.design = suite::load_design(*c.bench);
        const Clock::time_point t1 = Clock::now();
        c.compiled = core::CompiledDesign::build(*c.design);
        const Clock::time_point t2 = Clock::now();
        t.frontend += seconds_between(t0, t1);
        t.build += seconds_between(t1, t2);
        note_span(cx, "frontend.compile " + name, t0, t1);
        note_span(cx, "compiled_design.build " + name, t1, t2);
        w.circuits.push_back(std::move(c));
    }
}

/// Sessions for every circuit; `pooled` starts each pool (and any remote
/// dispatchers) now rather than on the first submit.
void start_sessions(Context& cx, World& w,
                    const std::function<core::SessionOptions(size_t)>& opts,
                    SetupTimes& t) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < w.circuits.size(); ++i) {
        w.sessions.push_back(
            std::make_unique<core::Session>(w.circuits[i].compiled, opts(i)));
        if (cx.pooled) (void)w.sessions.back()->scheduler();
    }
    const Clock::time_point t1 = Clock::now();
    t.session += seconds_between(t0, t1);
    note_span(cx, "session.start", t0, t1);
}

/// Repeats `setup` into fresh worlds (one untimed repetition that warms
/// file and allocator caches, then 11, or 1 under --smoke), keeps the last
/// world, and records each timed repetition: set-up takes a few ms, so
/// only a median is steady.
template <class Setup>
bool timed_setup(Context& cx, Setup&& setup) {
    const int reps = cx.opts.smoke ? 2 : 12;
    try {
        for (int r = 0; r < reps; ++r) {
            World w;
            SetupTimes t;
            t.host = cx.meter.factor(1);
            setup(w, t);
            if (r > 0) cx.setups.push_back(t);
            if (r + 1 == reps) cx.world = std::move(w);
        }
    } catch (const std::exception& e) {
        cx.report.fail(std::string("set-up failed: ") + e.what());
        return false;
    }
    return true;
}

/// One registry-scale campaign per circuit: the registry's cycle count and
/// fault-sample size, the sample drawn by the workload seed (keyed by the
/// circuit's registry position, so every workload draws the same sample).
void suite_campaigns(Context& cx, World& w, SetupTimes& t) {
    const Clock::time_point t0 = Clock::now();
    const auto& reg = suite::registry();
    for (size_t i = 0; i < w.circuits.size(); ++i) {
        const suite::Benchmark& b = *w.circuits[i].bench;
        fault::FaultGenOptions fo;
        fo.sample_max = b.fault_sample;
        fo.sample_seed =
            derive(cx.opts.seed, 1 + static_cast<uint64_t>(&b - reg.data()));
        w.campaigns.push_back(suite_campaign(
            w.circuits, i, fault::generate_faults(*w.circuits[i].design, fo),
            b.cycles));
    }
    const Clock::time_point t1 = Clock::now();
    t.faults += seconds_between(t0, t1);
    note_span(cx, "fault.generate", t0, t1);
}

void setup_suite(Context& cx, World& w, SetupTimes& t, uint32_t threads) {
    std::vector<std::string> names;
    for (const suite::Benchmark& b : suite::registry()) names.push_back(b.name);
    load_circuits(cx, w, names, t);
    suite_campaigns(cx, w, t);
    start_sessions(
        cx, w,
        [&](size_t) {
            core::SessionOptions so;
            so.num_threads = threads;
            return so;
        },
        t);
}

// --- running campaigns -------------------------------------------------------

/// Checks a finished campaign against its reference and counts it.
void verify(Context& cx, Campaign& c, const Record& r) {
    const bool ok =
        !r.result.canceled && check_verdict(c, r.result.detected);
    cx.report.count(ok, c.label + (r.result.canceled
                                       ? ": canceled"
                                       : ": verdict digest differs from the "
                                         "reference"));
}

/// The stimulus a traced run hands the engine: timed apply().
core::StimulusFactory factory_for(Context& cx, const Campaign& c,
                                  bool traced) {
    if (!traced) return c.make;
    std::atomic<int64_t>* ns = &cx.apply_ns;
    core::StimulusFactory make = c.make;
    return [make, ns] {
        return std::make_unique<TimedStimulus>(make(), *ns);
    };
}

/// Streams shard-event times into the record (traced runs only): the
/// submitting thread is blocked in wait() while these land.
core::ShardObserver event_observer(Record& r) {
    return [&r](const core::ShardEvent& e) {
        if (e.terminal) return;
        const double t = seconds_between(r.submit_at, Clock::now());
        if (r.first_event_s < 0) r.first_event_s = t;
        r.last_event_s = t;
    };
}

/// Spans of one finished campaign: the campaign and its submit on the
/// caller's lane, then its shards rebuilt from ShardBreakdown (queue wait,
/// engine wall, stimulus-blocked time, remote shipping overhead).
void trace_record(Context& cx, const Record& r, uint64_t id) {
    Tracer& t = cx.tracer;
    if (!t.on()) return;
    const Campaign& c = cx.world.campaigns[r.campaign];
    const std::string name = "campaign " + c.label;
    const uint32_t lane = t.thread_lane();
    t.span(name, "campaign", r.origin, r.latency_s, lane, id);
    if (r.submit_s > 0) {
        t.span("scheduler.submit", "scheduler", r.submit_at, r.submit_s, lane,
               id, "campaign");
    }
    for (const core::ShardBreakdown& s : r.result.stats.shards) {
        const double len = s.queue_seconds + s.wall_seconds + s.rtt_seconds;
        const uint32_t sl = t.shard_lane(r.submit_at, len);
        const std::string unit = "unit " + std::to_string(s.shard);
        const Clock::time_point run =
            r.submit_at + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s.queue_seconds));
        t.span("scheduler.queue", "scheduler", r.submit_at, s.queue_seconds,
               sl, id, unit);
        t.span(s.remote ? "remote.unit" : "shard.unit", "shard", run,
               s.wall_seconds, sl, id, "campaign");
        if (s.stimulus_seconds > 0) {
            t.span("sim.stimulus_blocked", "sim", run, s.stimulus_seconds,
                   sl, id, unit);
        }
        if (s.remote) {
            t.span("remote.ship", "remote",
                   run + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(s.wall_seconds)),
                   s.rtt_seconds, sl, id, unit);
        }
    }
}

/// One blocking campaign on the caller thread (suite-1t).
void run_blocking(Context& cx, Record& r, bool traced) {
    Campaign& c = cx.world.campaigns[r.campaign];
    auto stim = factory_for(cx, c, traced)();
    r.origin = r.submit_at = Clock::now();
    r.result = cx.world.sessions[c.circuit]->run(c.faults, *stim);
    r.latency_s = seconds_between(r.origin, Clock::now());
}

/// One submitted campaign, waited for (closed loop). `spec` submits the
/// wire-serializable form (remote-eligible); otherwise a factory.
void run_submitted(Context& cx, Record& r, bool traced, bool spec,
                   const core::CampaignOptions& copts) {
    Campaign& c = cx.world.campaigns[r.campaign];
    core::Session& s = *cx.world.sessions[c.circuit];
    core::ShardObserver obs = traced ? event_observer(r) : nullptr;
    r.origin = r.submit_at = Clock::now();
    core::CampaignHandle h =
        spec ? s.submit(c.faults, c.spec, copts, std::move(obs))
             : s.submit(c.faults, factory_for(cx, c, traced), copts,
                        std::move(obs));
    r.submit_s = seconds_between(r.submit_at, Clock::now());
    r.result = h.wait();
    r.latency_s = seconds_between(r.origin, Clock::now());
}

using RunOne = std::function<void(Record&, bool traced)>;

/// Passes over `order` until `seconds` have passed and at least
/// `min_records` campaigns ran (whole passes only, so per-pass counts are
/// exact multiples).
Phase closed_phase(Context& cx, const std::vector<size_t>& order,
                   double seconds, size_t min_records, bool traced,
                   const RunOne& run_one) {
    Phase ph;
    ph.closed = true;
    uint64_t id = 0;
    const Clock::time_point t0 = Clock::now();
    // The host is sampled before a campaign once 50 ms have passed since
    // the last sample, so short campaigns share one.
    double f = 1.0;
    Clock::time_point sampled{};
    do {
        for (size_t c : order) {
            Record r;
            r.campaign = c;
            r.traced = traced;
            if (Clock::now() - sampled >= std::chrono::milliseconds(50)) {
                f = cx.meter.factor(cx.engine_threads);
                sampled = Clock::now();
                cx.host_factors.push_back(f);
            }
            try {
                run_one(r, traced);
                r.norm_latency_s = r.latency_s * f;
                verify(cx, cx.world.campaigns[c], r);
            } catch (const std::exception& e) {
                cx.report.fail(cx.world.campaigns[c].label + ": " + e.what());
                continue;
            }
            trace_record(cx, r, ++id);
            ph.records.push_back(std::move(r));
        }
    } while (seconds_between(t0, Clock::now()) < seconds ||
             ph.records.size() < min_records);
    ph.wall_s = seconds_between(t0, Clock::now());
    return ph;
}

void warm_up(Context& cx, const std::vector<size_t>& order, int passes,
             const RunOne& run_one) {
    for (int p = 0; p < passes; ++p) {
        (void)closed_phase(cx, order, 0.0, 0, false, run_one);
    }
}

// --- traced-only extras ------------------------------------------------------

class SimHandle final : public sim::DriveHandle {
  public:
    explicit SimHandle(core::ConcurrentSim& sim) : sim_(sim) {}
    void set_input(rtl::SignalId sig, uint64_t value) override {
        sim_.poke(sig, value);
    }
    void load_array(rtl::ArrayId arr,
                    std::span<const uint64_t> words) override {
        sim_.load_array(arr, words);
    }

  private:
    core::ConcurrentSim& sim_;
};

struct Extras {
    double reset = 0.0, tick = 0.0, observe = 0.0;
    double behavioral = 0.0, rtl = 0.0, good_only = 0.0;
    size_t driven = 0;
    double work_inflation = 0.0;
};

/// The engine loop of one campaign, driven from outside through
/// reset/poke/tick/observe_outputs with phase timers on and the stimulus
/// pipeline off; one reset-to-end pass per epoch, faults detected in an
/// earlier epoch dropped, exactly like the library's own loop. `ran`
/// receives each pass's executed cycle range for the good-only replay.
std::vector<bool> drive_direct(const Circuit& cir, const Campaign& c,
                               Extras& x,
                               std::vector<std::pair<uint32_t, uint32_t>>& ran) {
    const rtl::Design& d = cir.compiled->design();
    auto stim = c.make();
    stim->bind(d);
    const rtl::SignalId clk = d.signal_id(stim->clock_name());
    const uint32_t epochs = std::max<uint32_t>(1, stim->num_epochs());
    core::EngineOptions eo;
    eo.time_phases = true;
    eo.pipeline_stimulus = false;

    std::vector<bool> detected(c.faults.size(), false);
    std::vector<fault::Fault> alive = c.faults;
    std::vector<size_t> ids(c.faults.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    for (uint32_t e = 0; e < epochs && !alive.empty(); ++e) {
        const auto [cb, ce] = epochs == 1
                                  ? std::pair<uint32_t, uint32_t>{0, stim->num_cycles()}
                                  : stim->epoch_range(e);
        core::ConcurrentSim sim(*cir.compiled, alive, eo);
        SimHandle h(sim);
        Clock::time_point t0 = Clock::now();
        sim.reset();
        stim->initialize(h);
        Clock::time_point t1 = Clock::now();
        x.reset += seconds_between(t0, t1);
        uint32_t cyc = cb;
        while (cyc < ce) {
            stim->apply(cyc, h);
            t0 = Clock::now();
            sim.tick(clk);
            t1 = Clock::now();
            sim.observe_outputs();
            x.tick += seconds_between(t0, t1);
            x.observe += seconds_between(t1, Clock::now());
            ++cyc;
            if (sim.num_detected() == alive.size()) break;
        }
        ran.emplace_back(cb, cyc);
        x.behavioral += sim.stats().time_behavioral.total_seconds();
        x.rtl += sim.stats().time_rtl.total_seconds();
        std::vector<fault::Fault> next;
        std::vector<size_t> next_ids;
        for (size_t i = 0; i < alive.size(); ++i) {
            if (sim.detected()[i]) {
                detected[ids[i]] = true;
            } else {
                next.push_back(alive[i]);
                next_ids.push_back(ids[i]);
            }
        }
        alive.swap(next);
        ids.swap(next_ids);
    }
    return detected;
}

/// The same loop over the same cycles with no faults: the good network's
/// cost, the ceiling on what sharing one good simulation could save.
void drive_good_only(const Circuit& cir, const Campaign& c, Extras& x,
                     const std::vector<std::pair<uint32_t, uint32_t>>& ran) {
    const rtl::Design& d = cir.compiled->design();
    auto stim = c.make();
    stim->bind(d);
    const rtl::SignalId clk = d.signal_id(stim->clock_name());
    core::EngineOptions eo;
    eo.pipeline_stimulus = false;
    for (const auto& [cb, ce] : ran) {
        core::ConcurrentSim sim(*cir.compiled, {}, eo);
        SimHandle h(sim);
        const Clock::time_point t0 = Clock::now();
        sim.reset();
        stim->initialize(h);
        for (uint32_t cyc = cb; cyc < ce; ++cyc) {
            stim->apply(cyc, h);
            sim.tick(clk);
            sim.observe_outputs();
        }
        x.good_only += seconds_between(t0, Clock::now());
    }
}

Extras traced_extras(Context& cx, const Phase& ph) {
    Extras x;
    const size_t limit = cx.opts.smoke ? 1 : 10;
    std::vector<size_t> subset;
    std::set<size_t> seen;
    for (const Record& r : ph.records) {
        if (r.warm || subset.size() == limit) continue;
        if (seen.insert(r.campaign).second) subset.push_back(r.campaign);
    }
    std::vector<double> solo(cx.world.campaigns.size(), 0.0);
    for (size_t ci : subset) {
        Campaign& c = cx.world.campaigns[ci];
        const Circuit& cir = cx.world.circuits[c.circuit];
        const Clock::time_point t0 = Clock::now();
        std::vector<std::pair<uint32_t, uint32_t>> ran;
        const bool ok = check_verdict(c, drive_direct(cir, c, x, ran));
        cx.report.count(ok, c.label + ": direct ConcurrentSim drive differs "
                                      "from the reference");
        drive_good_only(cir, c, x, ran);
        // The same campaign's 1-thread wall through Session::run.
        auto stim = c.make();
        const Clock::time_point t1 = Clock::now();
        (void)cx.world.sessions[c.circuit]->run(c.faults, *stim);
        solo[ci] = seconds_between(t1, Clock::now());
        cx.tracer.span("concurrent_sim.direct " + c.label, "concurrent_sim",
                       t0, seconds_between(t0, t1), cx.tracer.thread_lane());
        ++x.driven;
    }
    double shard_wall = 0.0, solo_wall = 0.0;
    for (const Record& r : ph.records) {
        if (solo[r.campaign] == 0.0 || r.result.stats.shards.empty()) continue;
        for (const auto& s : r.result.stats.shards) shard_wall += s.wall_seconds;
        solo_wall += solo[r.campaign];
    }
    x.work_inflation = solo_wall > 0 ? shard_wall / solo_wall : 0.0;
    return x;
}

// --- metrics -----------------------------------------------------------------

// The host this runs on is shared: other tenants slow this engine's kind
// of code by up to 1.8x, in phases of seconds to minutes, and every
// process on it alike. The end-to-end metrics are therefore in
// reference-host time (HostMeter): closed-loop latencies times the factor
// sampled just before each campaign, open-loop latencies read on the
// HostClock, set-up times the factor sampled before each repetition. The
// raw_* lines print the same estimators in wall time.

/// Closed loop: each distinct campaign's time, the median of its repeated
/// latencies (reference-host seconds when `normalized`).
std::unordered_map<size_t, double> campaign_seconds(const Phase& ph,
                                                    bool normalized) {
    std::unordered_map<size_t, std::vector<double>> by_campaign;
    for (const Record& r : ph.records) {
        by_campaign[r.campaign].push_back(normalized ? r.norm_latency_s
                                                     : r.latency_s);
    }
    std::unordered_map<size_t, double> out;
    for (const auto& [c, v] : by_campaign) out[c] = percentile(v, 0.5);
    return out;
}

/// Closed loop: Σ fault-cycles ÷ Σ time over the distinct campaigns (one
/// pass at each campaign's median time). Open loop: all fault-cycles over
/// the phase's span, which the arrival rate sets.
double throughput(const Context& cx, const Phase& ph, bool normalized) {
    uint64_t fc = 0;
    double s = 0.0;
    if (ph.closed) {
        for (const auto& [c, t] : campaign_seconds(ph, normalized)) {
            fc += cx.world.campaigns[c].fault_cycles();
            s += t;
        }
    } else {
        for (const Record& r : ph.records) {
            fc += cx.world.campaigns[r.campaign].fault_cycles();
        }
        s = normalized ? ph.norm_wall_s : ph.wall_s;
    }
    return s > 0 ? static_cast<double>(fc) / s : 0.0;
}

/// Latency percentile `q` in ms, and the number of values it is taken over.
/// Closed loop: over the distinct campaigns' median times (10 on the suite
/// workloads, 64 on thin-epochs, 3 on remote-loopback). Open loop: every
/// campaign runs once, so the percentile is the median over ten
/// consecutive time blocks of the arrivals of the block's percentile, which
/// a short queue build-up moves in one block only.
std::pair<double, size_t> latency_ms(const Phase& ph, double q,
                                     bool normalized) {
    if (ph.closed) {
        std::vector<double> lat;
        for (const auto& [c, t] : campaign_seconds(ph, normalized)) {
            lat.push_back(ms(t));
        }
        return {percentile(lat, q), lat.size()};
    }
    constexpr size_t kBlocks = 10;
    std::vector<double> blocks;
    for (size_t b = 0; b < kBlocks; ++b) {
        std::vector<double> lat;
        for (size_t i = b * ph.records.size() / kBlocks;
             i < (b + 1) * ph.records.size() / kBlocks; ++i) {
            const Record& r = ph.records[i];
            lat.push_back(ms(normalized ? r.norm_latency_s : r.latency_s));
        }
        if (!lat.empty()) blocks.push_back(percentile(lat, q));
    }
    return {percentile(blocks, 0.5), ph.records.size()};
}

/// How much slower than the reference host this one ran over the measured
/// phase: the median of 1 / HostMeter factor.
double host_slowdown(Context& cx) {
    std::vector<double> v;
    std::lock_guard<std::mutex> lock(cx.host_mu);
    for (double f : cx.host_factors) v.push_back(1.0 / f);
    return percentile(v, 0.5);
}

void end_to_end_metrics(Context& cx, const Phase& ph,
                        const std::vector<double>& children_kb) {
    Metrics& m = cx.report.metrics;
    for (const bool norm : {true, false}) {
        const std::string pre = norm ? "" : "raw_";
        std::vector<double> setup;
        for (const SetupTimes& s : cx.setups) {
            setup.push_back(s.total() * (norm ? s.host : 1.0));
        }
        m.add(pre + "setup_s", percentile(setup, 0.5), "s", setup.size());
        m.add(pre + "throughput_fcps", throughput(cx, ph, norm),
              "fault-cycles/s");
        const auto [lat50, n50] = latency_ms(ph, 0.5, norm);
        const auto [lat90, n90] = latency_ms(ph, 0.9, norm);
        m.add(pre + "latency_ms_p50", lat50, "ms", n50);
        m.add(pre + "latency_ms_p90", lat90, "ms", n90);
        if (norm) m.add("peak_rss_mb", peak_rss_mb(children_kb), "MB");
    }
    m.add("host.slowdown", host_slowdown(cx), "ratio", cx.host_factors.size());
}

/// Counters read before and after the traced phase.
struct Snapshot {
    uint64_t redispatched = 0, skipped_cost = 0, reconnects = 0;
    core::CacheStats cache;
    core::JournalStats journal;
    TimedFileIo::Totals io;
    int64_t apply_ns = 0;
};

Snapshot snapshot(Context& cx) {
    Snapshot s;
    if (cx.pooled) {
        for (auto& session : cx.world.sessions) {
            const core::RemoteFleetStats f = session->scheduler().stats().remote;
            s.redispatched += f.units_redispatched;
            s.skipped_cost += f.units_skipped_cost;
            s.reconnects += f.reconnects;
        }
    }
    if (cx.world.cache) s.cache = cx.world.cache->stats();
    if (cx.world.journal) s.journal = cx.world.journal->stats();
    if (cx.world.journal_io) s.io = cx.world.journal_io->totals();
    s.apply_ns = cx.apply_ns.load();
    return s;
}

double p50(const std::vector<double>& v) { return percentile(v, 0.5); }

void layer_metrics(Context& cx, const Phase& ph, const Extras& x,
                   const Snapshot& a, const Snapshot& b, double overhead,
                   double late_p90_ms) {
    Metrics& m = cx.report.metrics;
    const double n = std::max<double>(1.0, static_cast<double>(ph.records.size()));

    // setup: medians over the repetitions.
    auto setup_ms = [&](double SetupTimes::*f) {
        std::vector<double> v;
        for (const SetupTimes& s : cx.setups) v.push_back(ms(s.*f * s.host));
        return p50(v);
    };
    m.add("frontend.compile_ms", setup_ms(&SetupTimes::frontend), "ms");
    m.add("compiled_design.build_ms", setup_ms(&SetupTimes::build), "ms");
    m.add("fault.generate_ms", setup_ms(&SetupTimes::faults), "ms");
    m.add("session.start_ms", setup_ms(&SetupTimes::session), "ms");
    m.add("supervisor.spawn_ms", setup_ms(&SetupTimes::spawn), "ms");

    // concurrent_sim: the direct drive, per driven campaign.
    const double dn = std::max<double>(1.0, static_cast<double>(x.driven));
    m.add("concurrent_sim.tick_ms", ms(x.tick) / dn, "ms");
    m.add("concurrent_sim.behavioral_ms", ms(x.behavioral) / dn, "ms");
    m.add("concurrent_sim.rtl_ms", ms(x.rtl) / dn, "ms");
    m.add("concurrent_sim.observe_ms", ms(x.observe) / dn, "ms");
    m.add("concurrent_sim.reset_ms", ms(x.reset) / dn, "ms");
    m.add("concurrent_sim.good_only_ms", ms(x.good_only) / dn, "ms");

    // Engine counters of the measured campaigns, per campaign.
    core::Instrumentation sum;
    for (const Record& r : ph.records) sum.merge_from(r.result.stats);
    auto per = [&](uint64_t v) { return static_cast<double>(v) / n; };
    auto ratio = [](uint64_t num, uint64_t den) {
        return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };
    m.add("concurrent_sim.bn_candidates", per(sum.bn_candidates), "count");
    m.add("concurrent_sim.bn_executed", per(sum.bn_executed), "count");
    m.add("concurrent_sim.bn_skipped_explicit", per(sum.bn_skipped_explicit),
          "count");
    m.add("concurrent_sim.bn_skipped_implicit", per(sum.bn_skipped_implicit),
          "count");
    m.add("concurrent_sim.bn_exec_ratio",
          ratio(sum.bn_executed, sum.bn_candidates), "ratio");
    m.add("concurrent_sim.lane_passes", per(sum.bn_lane_passes), "count");
    m.add("concurrent_sim.lane_deferred", per(sum.bn_lane_deferred), "count");
    m.add("concurrent_sim.lane_defer_ratio",
          ratio(sum.bn_lane_deferred,
                sum.bn_lane_deferred + sum.bn_lane_survivors),
          "ratio");
    m.add("concurrent_sim.rtl_fault_evals", per(sum.rtl_fault_evals), "count");

    // sim, shard, scheduler: from the shard breakdowns.
    double blocked = 0, shard_wall = 0, imbalance = 0, splits = 0;
    uint64_t units = 0, faults = 0, groups = 0, remote_units = 0;
    size_t multi = 0, with_units = 0;
    std::vector<double> queue, rtt, submit, first, merge, warm, cold;
    for (const Record& r : ph.records) {
        const auto& shards = r.result.stats.shards;
        double mx = 0, tot = 0;
        std::set<std::pair<uint32_t, uint32_t>> windows;
        for (const core::ShardBreakdown& s : shards) {
            blocked += s.stimulus_seconds;
            shard_wall += s.wall_seconds;
            mx = std::max(mx, s.wall_seconds);
            tot += s.wall_seconds;
            faults += s.faults;
            groups += (s.faults + 63) / 64;
            windows.insert({s.epoch_begin, s.epoch_end});
            if (cx.pooled) queue.push_back(ms(s.queue_seconds));
            if (s.remote) {
                ++remote_units;
                rtt.push_back(ms(s.rtt_seconds));
            }
        }
        units += shards.size();
        if (!shards.empty()) {
            ++with_units;
            splits += static_cast<double>(windows.size());
        }
        if (shards.size() > 1 && tot > 0) {
            ++multi;
            imbalance += mx / (tot / static_cast<double>(shards.size()));
        }
        if (r.submit_s > 0) submit.push_back(r.submit_s * 1e6);
        if (r.first_event_s >= 0) {
            first.push_back(ms(r.first_event_s));
            const double done =
                r.latency_s - seconds_between(r.origin, r.submit_at);
            merge.push_back(ms(done - r.last_event_s));
        }
        (r.warm ? warm : cold).push_back(ms(r.latency_s));
    }
    m.add("sim.stimulus_apply_ms", ms(1e-9 * static_cast<double>(b.apply_ns - a.apply_ns)) / n,
          "ms");
    m.add("sim.stimulus_blocked_ms", ms(blocked) / n, "ms");
    m.add("shard.units_per_campaign", static_cast<double>(units) / n, "count");
    m.add("shard.lane_fill",
          groups == 0 ? 0.0 : static_cast<double>(faults) / (64.0 * static_cast<double>(groups)),
          "ratio");
    m.add("scheduler.work_inflation", x.work_inflation, "ratio");
    m.add("scheduler.idle_frac",
          ph.wall_s > 0 ? std::max(0.0, 1.0 - shard_wall / (cx.engine_threads * ph.wall_s)) : 0.0,
          "ratio");
    m.add("scheduler.wall_imbalance",
          multi == 0 ? 1.0 : imbalance / static_cast<double>(multi), "ratio");
    m.add("scheduler.epoch_split",
          with_units == 0 ? 0.0 : splits / static_cast<double>(with_units), "count");
    m.add("scheduler.submit_us_p50", p50(submit), "us", submit.size());
    m.add("scheduler.queue_ms_p50", p50(queue), "ms", queue.size());
    m.add("scheduler.queue_ms_p90", percentile(queue, 0.9), "ms", queue.size());
    m.add("scheduler.first_verdict_ms_p50", p50(first), "ms", first.size());
    m.add("scheduler.merge_ms_p50", p50(merge), "ms", merge.size());

    // verdict_cache
    const uint64_t hits = b.cache.hits - a.cache.hits;
    const uint64_t misses = b.cache.misses - a.cache.misses;
    const bool cached = cx.world.cache != nullptr;
    m.add("verdict_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.add("verdict_cache.warm_latency_ms_p50", cached ? p50(warm) : 0.0, "ms",
          cached ? warm.size() : 0);
    m.add("verdict_cache.cold_latency_ms_p50", cached ? p50(cold) : 0.0, "ms",
          cached ? cold.size() : 0);
    m.add("verdict_cache.bytes", static_cast<double>(b.cache.bytes), "bytes");
    m.add("verdict_cache.evictions",
          static_cast<double>(b.cache.evictions - a.cache.evictions), "count");

    // journal
    std::vector<double> fsyncs;
    for (size_t i = a.io.fsync_each_s.size(); i < b.io.fsync_each_s.size(); ++i) {
        fsyncs.push_back(ms(b.io.fsync_each_s[i]));
    }
    m.add("journal.appends",
          static_cast<double>(b.journal.appends - a.journal.appends), "count");
    m.add("journal.fsyncs",
          static_cast<double>(b.journal.fsyncs - a.journal.fsyncs), "count");
    m.add("journal.bytes", static_cast<double>(b.io.bytes - a.io.bytes), "bytes");
    m.add("journal.write_ms", ms(b.io.write_s - a.io.write_s), "ms");
    m.add("journal.fsync_ms", ms(b.io.fsync_s - a.io.fsync_s), "ms");
    m.add("journal.fsync_ms_p90", percentile(fsyncs, 0.9), "ms", fsyncs.size());
    m.add("journal.append_failures",
          static_cast<double>(b.journal.append_failures - a.journal.append_failures),
          "count");

    // remote
    m.add("remote.remote_unit_frac", ratio(remote_units, units), "ratio");
    m.add("remote.rtt_ms_p50", p50(rtt), "ms", rtt.size());
    m.add("remote.rtt_ms_p90", percentile(rtt, 0.9), "ms", rtt.size());
    m.add("remote.redispatched", static_cast<double>(b.redispatched - a.redispatched),
          "count");
    m.add("remote.skipped_cost", static_cast<double>(b.skipped_cost - a.skipped_cost),
          "count");
    m.add("remote.reconnects", static_cast<double>(b.reconnects - a.reconnects),
          "count");

    // harness
    m.add("host.slowdown", host_slowdown(cx), "ratio", cx.host_factors.size());
    m.add("loadgen.late_ms_p90", late_p90_ms, "ms");
    m.add("trace.overhead_frac", overhead, "ratio");
}

/// Writes the traced run's artifacts: the Chrome trace and the flat layer
/// metrics.
void write_trace_outputs(Context& cx) {
    const std::string base = cx.opts.out_dir + "/" + cx.opts.workload;
    if (!cx.tracer.write(base + ".trace.json")) {
        cx.report.fail("cannot write " + base + ".trace.json");
    }
    FILE* f = std::fopen((base + ".layers.json").c_str(), "w");
    if (f == nullptr) {
        cx.report.fail("cannot write " + base + ".layers.json");
        return;
    }
    std::fprintf(f, "{\n");
    const auto& items = cx.report.metrics.items();
    for (size_t i = 0; i < items.size(); ++i) {
        std::fprintf(f, "  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                     items[i].name.c_str(), items[i].value,
                     items[i].unit.c_str(), i + 1 < items.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
}

// --- closed-loop workloads ---------------------------------------------------

/// eraser_worker processes of remote-loopback.
constexpr uint32_t kRemoteWorkers = 2;

struct ClosedPlan {
    int warmups = 0;   // untimed passes first
    RunOne run_one;
    /// StimulusSpec submissions: the traced phase times apply() through
    /// the stimulus registry instead of a decorated factory.
    bool spec = false;
};

/// Warm-up then the measured phase(s) over every campaign in order.
/// Returns the untraced phase for the end-to-end metrics; in a traced run
/// it reports the layer metrics itself and returns an empty phase.
Phase measure_closed(Context& cx, const ClosedPlan& p) {
    const Options& o = cx.opts;
    const double seconds = o.smoke ? std::min(o.seconds, 0.3) : o.seconds;
    std::vector<size_t> order(cx.world.campaigns.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    warm_up(cx, order, o.smoke ? 0 : p.warmups, p.run_one);
    cx.host_factors.clear();
    if (!o.trace) {
        return closed_phase(cx, order, seconds, o.smoke ? 1 : 100, false,
                            p.run_one);
    }
    // --smoke skips the untraced half (trace.overhead_frac then reads 0).
    const Phase a = o.smoke ? Phase{}
                            : closed_phase(cx, order, seconds / 2, 1, false,
                                           p.run_one);
    const Snapshot s0 = snapshot(cx);
    if (p.spec) install_timed_stimulus_kinds(cx.world.campaigns, cx.apply_ns);
    cx.tracer.enable(true);
    const Phase b = closed_phase(cx, order, seconds / 2, 1, true, p.run_one);
    const Snapshot s1 = snapshot(cx);
    const Extras x = traced_extras(cx, b);
    const double ta = throughput(cx, a, true);
    layer_metrics(cx, b, x, s0, s1, ta > 0 ? 1.0 - throughput(cx, b, true) / ta : 0.0,
                  0.0);
    write_trace_outputs(cx);
    return {};
}

/// The closed-loop shape: set-up, references, measurement, end-to-end
/// metrics. A worker fleet's peak RSS is read while its processes live,
/// then the fleet is stopped.
template <class Setup>
void closed_workload(Context& cx, Setup&& setup, const ClosedPlan& p) {
    if (!timed_setup(cx, setup)) return;
    if (!resolve_references(cx.world.campaigns, cx.world.circuits, cx.opts,
                            cx.report) ||
        cx.opts.regen_golden) {
        return;
    }
    cx.tracer.enable(false);
    const Phase ph = measure_closed(cx, p);
    std::vector<double> workers_kb;
    if (cx.world.fleet) {
        for (uint32_t i = 0; i < kRemoteWorkers; ++i) {
            workers_kb.push_back(peak_rss_kb(cx.world.fleet->pid(i)));
        }
        cx.world.sessions.clear();
        cx.world.fleet->stop_fleet(2000);
    }
    if (!cx.opts.trace) end_to_end_metrics(cx, ph, workers_kb);
}

void suite_1t(Context& cx) {
    cx.engine_threads = 1;
    closed_workload(
        cx, [&](World& w, SetupTimes& t) { setup_suite(cx, w, t, 1); },
        {3, [&](Record& r, bool traced) { run_blocking(cx, r, traced); }});
}

void suite_mt(Context& cx) {
    cx.engine_threads = cx.opts.threads;
    cx.pooled = true;
    closed_workload(
        cx,
        [&](World& w, SetupTimes& t) {
            setup_suite(cx, w, t, cx.opts.threads);
        },
        {5, [&](Record& r, bool traced) {
             run_submitted(cx, r, traced, false, {});
         }});
}

/// Distinct campaigns per circuit in thin-epochs (a pass runs each once).
/// A thin campaign's cost swings 5x with whether one of its 48 faults
/// escapes the first epoch, so a pass needs many of them to cost the same
/// at every seed.
constexpr uint32_t kThinCampaigns = 32;
constexpr uint32_t kThinFaults = 48;
constexpr uint32_t kThinEpochs = 64;
constexpr uint32_t kThinEpochCycles = 100;

void thin_epochs(Context& cx) {
    cx.engine_threads = cx.opts.threads;
    cx.pooled = true;
    auto setup = [&](World& w, SetupTimes& t) {
        load_circuits(cx, w, {"sha256_hv", "picorv32"}, t);
        const Clock::time_point t0 = Clock::now();
        std::vector<std::vector<fault::Fault>> universe;
        for (const Circuit& c : w.circuits) {
            universe.push_back(fault::generate_faults(*c.design, {}));
        }
        // Interleaved circuits: a pass alternates them.
        for (uint32_t k = 0; k < kThinCampaigns; ++k) {
            for (size_t ci = 0; ci < w.circuits.size(); ++ci) {
                const uint64_t tag = 100 + 16 * ci + k;
                w.campaigns.push_back(random_campaign(
                    w.circuits, ci,
                    fault::sample_faults(universe[ci], kThinFaults,
                                         derive(cx.opts.seed, tag)),
                    random_config(*w.circuits[ci].bench,
                                  derive(cx.opts.seed, tag + 1000),
                                  kThinEpochs * kThinEpochCycles),
                    kThinEpochs));
            }
        }
        const Clock::time_point t1 = Clock::now();
        t.faults += seconds_between(t0, t1);
        note_span(cx, "fault.generate", t0, t1);
        start_sessions(
            cx, w,
            [&](size_t) {
                core::SessionOptions so;
                so.num_threads = cx.opts.threads;
                return so;
            },
            t);
    };
    closed_workload(cx, setup, {1, [&](Record& r, bool traced) {
                                    run_submitted(cx, r, traced, false, {});
                                }});
}

void remote_loopback(Context& cx) {
    const uint32_t t = cx.opts.threads;
    const uint32_t local =
        std::max<uint32_t>(1, t - std::min(t, kRemoteWorkers));
    cx.engine_threads = local + kRemoteWorkers;
    cx.pooled = true;
    auto setup = [&](World& w, SetupTimes& times) {
        load_circuits(cx, w, {"sha256_c2v", "fpu", "picorv32"}, times);
        suite_campaigns(cx, w, times);
        const Clock::time_point t0 = Clock::now();
        core::SupervisorOptions so;
        so.binary = PERF_WORKER_BIN;
        so.workers = kRemoteWorkers;
        w.fleet = std::make_unique<core::WorkerSupervisor>(so);
        w.fleet->start();
        const std::vector<uint16_t> ports = w.fleet->ports();
        const Clock::time_point t1 = Clock::now();
        start_sessions(
            cx, w,
            [&](size_t i) {
                core::SessionOptions s;
                s.num_threads = local;
                s.scheduler.remote.workers = ports;
                s.scheduler.remote.design =
                    suite::design_spec(*w.circuits[i].bench);
                return s;
            },
            times);
        // Handshake: every session's links connected and compiled.
        const Clock::time_point t2 = Clock::now();
        for (auto& s : w.sessions) {
            while (s->scheduler().stats().remote.workers_connected <
                   kRemoteWorkers) {
                if (seconds_between(t2, Clock::now()) > 30.0) {
                    throw std::runtime_error(
                        "worker fleet did not connect within 30 s");
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
        const Clock::time_point t3 = Clock::now();
        times.spawn += seconds_between(t0, t1) + seconds_between(t2, t3);
        note_span(cx, "supervisor.spawn", t0, t1);
        note_span(cx, "supervisor.handshake", t2, t3);
    };
    core::CampaignOptions copts;
    copts.num_shards = t;   // one unit per executor
    closed_workload(cx, setup,
                    {2,
                     [&](Record& r, bool traced) {
                         run_submitted(cx, r, traced, true, copts);
                     },
                     true});
}

// --- service-mixed: open loop ------------------------------------------------

/// Arrival rate (campaigns per second of HostClock time): about 43% of
/// this mix's saturation rate (~580/s) on the 4-vCPU reference host
/// (perf/README.md); BENCHMARK.json's workload line names it too.
constexpr double kServiceRate = 250.0;
constexpr uint32_t kWarmPercent = 40;   // warm reads; the rest cold writes
constexpr uint32_t kHighPercent = 20;
constexpr uint32_t kPrewarm = 64;
/// One cold write in this many takes its reference from the serial oracle
/// at a new seed; the others from Session::run (Campaign::engine_reference).
/// The pre-warmed campaigns, which the warm reads resubmit, all do. Oracle
/// references for every cold write took 50 s a run, five times the
/// measurement.
constexpr uint32_t kOracleEvery = 8;
/// Generator lateness above which a run is reported as having drifted from
/// its arrival schedule (a warning: latencies count from the due time, so
/// lateness is inside them).
constexpr double kMaxLateMs = 5.0;

struct Arrival {
    double due_s = 0.0;   // on the HostClock
    size_t campaign = 0;
    bool warm = false;
    bool high = false;
};

/// A 64-128-fault contiguous slice of circuit `ci`'s fault universe under
/// a fresh random-stimulus seed.
Campaign slice_campaign(const World& w, size_t ci, Prng& rng) {
    const std::vector<fault::Fault>& u = w.universes[ci];
    const size_t n = std::min<size_t>(64 + rng.below(65), u.size());
    const size_t off = rng.below(u.size() - n + 1);
    const suite::Benchmark& b = *w.circuits[ci].bench;
    return random_campaign(
        w.circuits, ci,
        std::vector<fault::Fault>(u.begin() + static_cast<ptrdiff_t>(off),
                                  u.begin() + static_cast<ptrdiff_t>(off + n)),
        random_config(b, rng.next(), b.cycles));
}

template <class T>
void shuffle(std::vector<T>& v, Prng& rng) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// `count` slots of which `marked` are set, in seed-shuffled order.
std::vector<char> shuffled_slots(size_t count, size_t marked, Prng& rng) {
    std::vector<char> slots(count, 0);
    std::fill_n(slots.begin(), marked, 1);
    shuffle(slots, rng);
    return slots;
}

/// Poisson arrivals over [0, seconds); cold writes append fresh campaigns.
/// The mix is stratified: every ten consecutive arrivals hold exactly four
/// warm reads and two High-priority ones, and every three consecutive cold
/// writes one slice of each circuit, in seed-shuffled order. So the seed
/// moves which campaigns arrive and when but not the mix, which would move
/// the percentiles between seeds.
std::vector<Arrival> schedule(World& w, uint64_t seed, double seconds) {
    Prng pick(derive(seed, 400));
    Prng fresh(derive(seed, 500));
    std::vector<Arrival> out;
    std::vector<char> warm, high;
    std::vector<size_t> circuits;
    double t = 0.0;
    for (size_t i = 0;; ++i) {
        const double u = static_cast<double>(pick.next() >> 11) * 0x1p-53;
        t += -std::log1p(-u) / kServiceRate;
        if (t >= seconds) break;
        if (i % 10 == 0) {
            warm = shuffled_slots(10, kWarmPercent / 10, pick);
            high = shuffled_slots(10, kHighPercent / 10, pick);
        }
        Arrival a;
        a.due_s = t;
        a.warm = warm[i % 10] != 0;
        a.high = high[i % 10] != 0;
        if (a.warm) {
            a.campaign = pick.below(kPrewarm);
        } else {
            if (circuits.empty()) {
                for (size_t c = 0; c < w.circuits.size(); ++c) circuits.push_back(c);
                shuffle(circuits, pick);
            }
            a.campaign = w.campaigns.size();
            w.campaigns.push_back(slice_campaign(w, circuits.back(), fresh));
            w.campaigns.back().engine_reference =
                (a.campaign - kPrewarm) % kOracleEvery != 0;
            circuits.pop_back();
        }
        out.push_back(a);
    }
    return out;
}

/// The open loop's clock: reference-host seconds, advancing at the
/// HostMeter factor. Arrivals are due on it, so a slower host gets them
/// further apart and the engine stays as busy as on the reference host;
/// with the queueing held steady, latencies read on it are normalized.
class HostClock {
  public:
    HostClock(Clock::time_point start, double factor)
        : segments_{{start, 0.0, factor}} {}

    /// From `now` on, the clock advances at `factor`.
    void set_factor(Clock::time_point now, double factor) {
        std::lock_guard<std::mutex> lock(mu_);
        const Segment& last = segments_.back();
        segments_.push_back({now, at(last, now), factor});
    }

    /// Reference seconds since the start at wall time `t`.
    [[nodiscard]] double read(Clock::time_point t) const {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = std::upper_bound(
            segments_.begin(), segments_.end(), t,
            [](Clock::time_point x, const Segment& s) { return x < s.start; });
        return at(it == segments_.begin() ? *it : *std::prev(it), t);
    }

    /// Wall time at which the clock reads `due`, at the current factor.
    [[nodiscard]] Clock::time_point wall_at(double due) const {
        std::lock_guard<std::mutex> lock(mu_);
        const Segment& last = segments_.back();
        return last.start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    (due - last.origin) / last.factor));
    }

  private:
    struct Segment {
        Clock::time_point start;
        double origin;   // reading at `start`
        double factor;
    };
    static double at(const Segment& s, Clock::time_point t) {
        return s.origin + seconds_between(s.start, t) * s.factor;
    }

    mutable std::mutex mu_;
    std::vector<Segment> segments_;
};

/// Phase over the records of one half (by traced flag): from the first due
/// time to the last completion.
Phase open_phase(const std::vector<Record>& recs,
                 const std::vector<Clock::time_point>& done,
                 const HostClock& clock, bool traced) {
    Phase ph;
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    for (size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].traced != traced || done[i] == Clock::time_point{}) continue;
        first = std::min(first, recs[i].origin);
        last = std::max(last, done[i]);
        ph.records.push_back(recs[i]);
    }
    if (!ph.records.empty()) {
        ph.wall_s = seconds_between(first, last);
        ph.norm_wall_s = clock.read(last) - clock.read(first);
    }
    return ph;
}

void service_mixed(Context& cx) {
    const Options& o = cx.opts;
    const uint32_t per = std::max<uint32_t>(1, (o.threads - 1) / 3);
    cx.engine_threads = 3 * per;
    cx.pooled = true;
    const std::string journal_path = o.out_dir + "/service-mixed.journal";
    if (!timed_setup(cx, [&](World& w, SetupTimes& t) {
            load_circuits(cx, w, {"sha256_hv", "picorv32", "apb"}, t);
            const Clock::time_point t0 = Clock::now();
            for (const Circuit& c : w.circuits) {
                w.universes.push_back(fault::generate_faults(*c.design, {}));
            }
            Prng rng(derive(o.seed, 300));
            for (uint32_t k = 0; k < kPrewarm; ++k) {
                w.campaigns.push_back(
                    slice_campaign(w, k % w.circuits.size(), rng));
            }
            const Clock::time_point t1 = Clock::now();
            t.faults += seconds_between(t0, t1);
            note_span(cx, "fault.generate", t0, t1);

            const Clock::time_point t2 = Clock::now();
            std::filesystem::remove(journal_path);
            core::JournalOptions jo;
            jo.path = journal_path;
            jo.fsync_interval = 8;
            if (o.trace) {
                w.journal_io = std::make_unique<TimedFileIo>();
                jo.io = w.journal_io.get();
            }
            w.journal = std::make_shared<core::CampaignJournal>(jo);
            w.cache = std::make_shared<core::VerdictCache>();
            t.session += seconds_between(t2, Clock::now());
            start_sessions(
                cx, w,
                [&](size_t) {
                    core::SessionOptions so;
                    so.num_threads = per;
                    so.scheduler.verdict_cache = w.cache;
                    so.scheduler.journal = w.journal;
                    return so;
                },
                t);
        })) {
        return;
    }
    World& w = cx.world;
    const double seconds = o.smoke ? std::min(o.seconds, 0.5) : o.seconds;
    const std::vector<Arrival> arrivals = schedule(w, o.seed, seconds);
    if (!resolve_references(w.campaigns, w.circuits, o, cx.report) ||
        o.regen_golden) {
        return;
    }
    cx.tracer.enable(false);

    // Untimed pre-warm: the warm reads' campaigns land in the cache.
    {
        std::vector<core::CampaignHandle> hs;
        for (uint32_t k = 0; k < kPrewarm; ++k) {
            const Campaign& c = w.campaigns[k];
            hs.push_back(w.sessions[c.circuit]->submit(c.faults, c.spec, {}));
        }
        for (uint32_t k = 0; k < kPrewarm; ++k) {
            Record r;
            r.campaign = k;
            r.result = hs[k].wait();
            verify(cx, w.campaigns[k], r);
        }
    }

    // The generator (this thread) submits on schedule; terminal shard
    // events queue completions for the collector, which waits and checks.
    const size_t n = arrivals.size();
    std::vector<Record> recs(n);
    std::vector<Clock::time_point> done(n);
    std::vector<std::string> submit_errors;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> ready;
    std::vector<core::CampaignHandle> handles(n);
    std::vector<char> submitted(n, 0);   // 1 = handle stored, 2 = refused
    std::vector<char> queued(n, 0);
    auto enqueue_locked = [&](size_t i) {
        if (queued[i]) return;
        queued[i] = 1;
        ready.push_back(i);
        cv.notify_all();
    };
    const double split = o.trace ? seconds / 2 : seconds + 1.0;
    Snapshot s0;
    // The clock starts at the median of three samples; the sampler then
    // moves it to the median of the last three every 100 ms.
    std::vector<double> recent;
    for (int k = 0; k < 3; ++k) recent.push_back(cx.meter.factor(1));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    HostClock host_clock(t0, percentile(recent, 0.5));
    {
        // Declared first, so it stops after the collector.
        std::jthread sampler([&](std::stop_token stop) {
            while (!stop.stop_requested()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                const double f = cx.meter.factor(1);
                recent.erase(recent.begin());
                recent.push_back(f);
                host_clock.set_factor(Clock::now(), percentile(recent, 0.5));
                std::lock_guard<std::mutex> lock(cx.host_mu);
                cx.host_factors.push_back(f);
            }
        });
        std::jthread collector([&] {
            for (size_t k = 0; k < n; ++k) {
                size_t i = 0;
                core::CampaignHandle h;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] {
                        return !ready.empty() && submitted[ready.front()] != 0;
                    });
                    i = ready.front();
                    ready.pop_front();
                    h = handles[i];
                }
                if (!h.valid()) continue;
                Record& r = recs[i];
                try {
                    r.result = h.wait();
                    done[i] = Clock::now();
                    r.latency_s = seconds_between(r.origin, done[i]);
                    r.norm_latency_s = host_clock.read(done[i]) - host_clock.read(r.origin);
                    verify(cx, w.campaigns[r.campaign], r);
                    trace_record(cx, r, i + 1);
                } catch (const std::exception& e) {
                    cx.report.fail(w.campaigns[r.campaign].label + ": " +
                                   e.what());
                }
            }
        });

        bool traced = false;
        for (size_t i = 0; i < n; ++i) {
            const Arrival& a = arrivals[i];
            Record& r = recs[i];
            if (!traced && a.due_s >= split) {
                traced = true;
                s0 = snapshot(cx);
                install_timed_stimulus_kinds(w.campaigns, cx.apply_ns);
                cx.tracer.enable(true);
            }
            r.campaign = a.campaign;
            r.warm = a.warm;
            r.traced = traced;
            // Due on the HostClock; re-read at least every 10 ms, as the
            // sampler may change its pace.
            for (;;) {
                r.origin = host_clock.wall_at(a.due_s);
                const Clock::time_point now = Clock::now();
                if (r.origin <= now) break;
                std::this_thread::sleep_until(
                    std::min(r.origin, now + std::chrono::milliseconds(10)));
            }
            const Campaign& c = w.campaigns[a.campaign];
            core::CampaignOptions copts;
            copts.priority = a.high ? core::Priority::High : core::Priority::Normal;
            core::ShardObserver obs = [&, i, traced](const core::ShardEvent& e) {
                if (!e.terminal) {
                    if (!traced) return;
                    const double t = seconds_between(recs[i].submit_at, Clock::now());
                    if (recs[i].first_event_s < 0) recs[i].first_event_s = t;
                    recs[i].last_event_s = t;
                    return;
                }
                std::lock_guard<std::mutex> lock(mu);
                enqueue_locked(i);
            };
            core::CampaignHandle h;
            r.submit_at = Clock::now();
            r.late_s = seconds_between(r.origin, r.submit_at);
            try {
                h = w.sessions[c.circuit]->submit(c.faults, c.spec, copts,
                                                  std::move(obs));
            } catch (const std::exception& e) {
                submit_errors.push_back(c.label + ": " + e.what());
            }
            r.submit_s = seconds_between(r.submit_at, Clock::now());
            std::lock_guard<std::mutex> lock(mu);
            handles[i] = h;
            submitted[i] = h.valid() ? 1 : 2;
            if (!h.valid()) enqueue_locked(i);
            cv.notify_all();
        }
    }
    for (const std::string& e : submit_errors) cx.report.fail(e);

    std::vector<double> late;
    for (const Record& r : recs) late.push_back(ms(r.late_s));
    const double late_p90 = percentile(late, 0.9);
    if (late_p90 > kMaxLateMs) {
        std::fprintf(stderr,
                     "[service-mixed] warning: load generator ran late, p90 "
                     "%.2f ms > %.1f ms\n",
                     late_p90, kMaxLateMs);
    }
    if (!o.trace) {
        end_to_end_metrics(cx, open_phase(recs, done, host_clock, false), {});
        return;
    }
    const Snapshot s1 = snapshot(cx);
    const Phase a = open_phase(recs, done, host_clock, false);
    const Phase b = open_phase(recs, done, host_clock, true);
    const Extras x = traced_extras(cx, b);
    const double ta = throughput(cx, a, true);
    layer_metrics(cx, b, x, s0, s1, ta > 0 ? 1.0 - throughput(cx, b, true) / ta : 0.0,
                  late_p90);
    write_trace_outputs(cx);
}

}  // namespace

bool run_workload(const Options& opts, Report& report) {
    static const std::vector<std::pair<std::string, void (*)(Context&)>> kAll = {
        {"suite-1t", suite_1t},
        {"suite-mt", suite_mt},
        {"thin-epochs", thin_epochs},
        {"service-mixed", service_mixed},
        {"remote-loopback", remote_loopback},
    };
    for (const auto& [name, fn] : kAll) {
        if (name != opts.workload) continue;
        suite::register_remote_stimuli();
        Context cx(opts, report);
        cx.tracer.enable(opts.trace);
        fn(cx);
        return true;
    }
    return false;
}

}  // namespace perf
