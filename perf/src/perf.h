// Shared pieces of the campaign benchmark (see perf/README.md): options,
// campaign definitions with their golden/oracle references, metric sets,
// the in-memory span recorder, and the timing decorators the traced run
// wraps around the library's Stimulus and FileIo seams.
//
// Everything here measures the library from the outside, through its
// public headers; nothing in src/ knows the benchmark exists.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eraser/eraser.h"
#include "suite/suite.h"
#include "util/fileio.h"

namespace perf {

namespace core = eraser::core;
namespace fault = eraser::fault;
namespace rtl = eraser::rtl;
namespace sim = eraser::sim;

using Clock = std::chrono::steady_clock;

/// The seed the committed golden digests were generated at.
inline constexpr uint64_t kDefaultSeed = 20250423;

struct Options {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    /// Length of the measured phase (the traced run splits it in two: an
    /// untraced half and a traced half, for trace.overhead_frac).
    double seconds = 10.0;
    bool trace = false;
    /// Minimal sizes (one short measured phase, few set-up repetitions) for
    /// perf/selftest.sh; the campaigns themselves are unchanged, so the
    /// golden digests still apply.
    bool smoke = false;
    /// Recompute every reference with the serial oracle and rewrite the
    /// golden file instead of measuring.
    bool regen_golden = false;
    std::string golden_path;
    std::string out_dir;
    /// T = min(nproc, 4): the engine threads the whole load may use.
    uint32_t threads = 4;
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

// --- metrics -----------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Sample count behind a percentile or median (0 = not a percentile).
    size_t samples = 0;
};

class Metrics {
  public:
    void add(const std::string& name, double value, const std::string& unit,
             size_t samples = 0);
    [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/// Linear-interpolation percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Campaigns attempted and failed, with the first few failure messages.
struct Report {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    Metrics metrics;

    /// Counts one attempted campaign; a failure keeps `why`.
    void count(bool ok, const std::string& why);
    /// A failure that is not one campaign (set-up, lost fleet): recorded
    /// as an error and as one failed attempt.
    void fail(const std::string& why);
};

// --- campaigns and references ------------------------------------------------

struct Circuit {
    const eraser::suite::Benchmark* bench = nullptr;
    std::unique_ptr<rtl::Design> design;
    std::shared_ptr<const core::CompiledDesign> compiled;
};

/// One distinct campaign: what is submitted, and what it must return.
struct Campaign {
    size_t circuit = 0;
    std::vector<fault::Fault> faults;
    core::StimulusSpec spec;
    /// Builds the plain (untimed) stimulus; identical instances each call.
    core::StimulusFactory make;
    uint32_t cycles = 0;
    /// Canonical description of the stimulus (part of the content key).
    std::string stimulus;
    std::string label;
    /// Content key: hash of circuit, stimulus and fault names. Golden
    /// lines are looked up by it, so a campaign identical in content to
    /// one of the default seed's reuses its digest at any seed.
    std::string key;
    /// Without a golden line, take the reference from the library's
    /// blocking single-engine path (Session::run: no shards, scheduler,
    /// cache or journal) instead of the serial oracle, which costs ~30x
    /// more. For campaigns that only exercise the layers above the engine;
    /// --regen-golden ignores it.
    bool engine_reference = false;
    /// SHA-256 of the reference verdict bitmap (golden file, oracle or
    /// engine_reference).
    std::string reference;
    /// A bitmap already matched against `reference` (fast path for repeats).
    std::vector<bool> verified;

    [[nodiscard]] uint64_t fault_cycles() const {
        return static_cast<uint64_t>(faults.size()) * cycles;
    }
};

/// Campaign over a suite benchmark's own stimulus at `cycles`.
[[nodiscard]] Campaign suite_campaign(const std::vector<Circuit>& circuits,
                                      size_t circuit,
                                      std::vector<fault::Fault> faults,
                                      uint32_t cycles);
/// Campaign over a seeded random stimulus; `epochs` > 1 makes it the
/// epoched ("epoch_random") variant.
[[nodiscard]] Campaign random_campaign(
    const std::vector<Circuit>& circuits, size_t circuit,
    std::vector<fault::Fault> faults,
    const eraser::suite::RandomStimulus::Config& cfg, uint32_t epochs = 1);

/// Random-stimulus configuration for a suite circuit (its reset port and
/// polarity) with the given seed and length.
[[nodiscard]] eraser::suite::RandomStimulus::Config random_config(
    const eraser::suite::Benchmark& b, uint64_t seed, uint32_t cycles);

[[nodiscard]] std::string sha256_hex(std::string_view data);
[[nodiscard]] std::string verdict_digest(const std::vector<bool>& bits);

/// Fills every campaign's key and reference: the golden digest when the
/// golden file has the key, the serial oracle (or, for an
/// `engine_reference` campaign, Session::run) otherwise, in an untimed
/// prologue parallel on `threads`. With `regen`, every reference comes
/// from the oracle and the golden file is rewritten. Returns false (after
/// recording why) when the golden file cannot be read or written.
bool resolve_references(std::vector<Campaign>& campaigns,
                        const std::vector<Circuit>& circuits,
                        const Options& opts, Report& report);

/// True when `detected` matches the campaign's reference.
[[nodiscard]] bool check_verdict(Campaign& c,
                                 const std::vector<bool>& detected);

/// Runs fn(i) for i in [0, n) on `threads` threads; rethrows the first
/// exception after every thread has joined.
void parallel_for(size_t n, uint32_t threads,
                  const std::function<void(size_t)>& fn);

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder written as Chrome trace-event JSON at exit
/// (Perfetto and chrome://tracing open it). Off until enable(); every
/// record call is then one branch.
class Tracer {
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool on() const {
        return on_.load(std::memory_order_relaxed);
    }

    /// One complete span. `campaign` (0 = none) groups the spans of one
    /// campaign; `parent` names the span that caused it.
    void span(const std::string& name, const char* cat,
              Clock::time_point start, double dur_s, uint32_t tid,
              uint64_t campaign = 0, const std::string& parent = {});
    /// Small stable id of the calling thread.
    [[nodiscard]] uint32_t thread_lane();
    /// Lane for a span rebuilt from ShardBreakdown: the lowest lane (from
    /// 100 up) free over [start, start + dur_s), so lanes never overlap.
    [[nodiscard]] uint32_t shard_lane(Clock::time_point start, double dur_s);

    bool write(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        const char* cat;
        double ts_us;
        double dur_us;
        uint32_t tid;
        uint64_t campaign;
        std::string parent;
    };
    Clock::time_point origin_;
    std::atomic<bool> on_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::thread::id, uint32_t>> threads_;
    std::vector<double> lane_end_us_;
};

// --- timing decorators -------------------------------------------------------

/// Stimulus decorator summing the time spent in apply() (the traced run's
/// sim.stimulus_apply_ms). Forwards everything else, epochs included.
class TimedStimulus final : public sim::Stimulus {
  public:
    TimedStimulus(std::unique_ptr<sim::Stimulus> inner,
                  std::atomic<int64_t>& apply_ns)
        : inner_(std::move(inner)), apply_ns_(apply_ns) {}

    void bind(const rtl::Design& design) override { inner_->bind(design); }
    [[nodiscard]] std::string clock_name() const override {
        return inner_->clock_name();
    }
    [[nodiscard]] uint32_t num_cycles() const override {
        return inner_->num_cycles();
    }
    void initialize(sim::DriveHandle& h) override { inner_->initialize(h); }
    void apply(uint32_t cycle, sim::DriveHandle& h) override;
    [[nodiscard]] uint32_t num_epochs() const override {
        return inner_->num_epochs();
    }
    [[nodiscard]] std::pair<uint32_t, uint32_t> epoch_range(
        uint32_t e) const override {
        return inner_->epoch_range(e);
    }

  private:
    std::unique_ptr<sim::Stimulus> inner_;
    std::atomic<int64_t>& apply_ns_;
};

/// FileIo decorator over the real passthrough that times writes and
/// fsyncs (the journal layer's metrics).
class TimedFileIo final : public eraser::util::FileIo {
  public:
    [[nodiscard]] ssize_t write(int fd, const void* data,
                                size_t len) override;
    [[nodiscard]] int fsync(int fd) override;

    struct Totals {
        uint64_t bytes = 0;
        double write_s = 0.0;
        double fsync_s = 0.0;
        std::vector<double> fsync_each_s;
    };
    [[nodiscard]] Totals totals() const;

  private:
    mutable std::mutex mu_;
    Totals totals_;
};

/// Re-registers the suite's stimulus kinds process-wide so that they
/// rebuild the registered campaigns' stimuli wrapped in
/// TimedStimulus (the traced run of StimulusSpec workloads; worker
/// processes keep their own kinds, so remote apply time is not seen).
void install_timed_stimulus_kinds(const std::vector<Campaign>& campaigns,
                                  std::atomic<int64_t>& apply_ns);

// --- host normalization ------------------------------------------------------

/// Measures how fast the host runs right now. The reference host is a
/// shared VM whose speed for this engine's kind of code swings by up to
/// 1.8x over seconds to minutes; every timing is therefore taken next to a
/// sample of fixed reference kernels on the same number of threads and
/// reported in reference-host time, `raw x factor()` (perf/README.md,
/// "Host normalization").
class HostMeter {
  public:
    /// The kernels' times on the reference host: the scale that keeps
    /// normalized values in real units of that host.
    static constexpr double kReferenceInterpSeconds = 0.75e-3;
    static constexpr double kReferenceStreamSeconds = 0.45e-3;

    /// Kernels (640 KiB each) for up to `threads` threads at once.
    explicit HostMeter(uint32_t threads);
    ~HostMeter();
    HostMeter(const HostMeter&) = delete;
    HostMeter& operator=(const HostMeter&) = delete;

    /// Runs the kernels on `threads` threads at once (one caller at a
    /// time) and returns the factor that turns a time taken now, on that
    /// many threads, into reference-host time: the lower of the kernels'
    /// wall-time speed and their CPU-time speed times the share of CPU
    /// time the hypervisor let the guest have over about the last second.
    [[nodiscard]] double factor(uint32_t threads);

  private:
    class Sampler;
    class Availability;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<Availability> availability_;
};

// --- process -----------------------------------------------------------------

/// Peak resident set (VmHWM) of a live process, in kB; 0 when unreadable.
[[nodiscard]] double peak_rss_kb(pid_t pid);

/// Peak resident set of this process plus the given children's peaks (kB
/// each, from peak_rss_kb), in MB.
[[nodiscard]] double peak_rss_mb(const std::vector<double>& children_kb);

/// Engine threads of the load: min(online CPUs available to us, 4).
[[nodiscard]] uint32_t engine_threads();

/// Runs one workload; fills `report`. Returns false for an unknown name.
bool run_workload(const Options& opts, Report& report);

}  // namespace perf
