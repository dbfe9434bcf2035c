// Shared benchmark machinery: metrics, campaign references (golden digests
// and the serial oracle), the span recorder, and the timing decorators.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perf.h"
#include "util/diagnostics.h"

namespace perf {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- metrics -----------------------------------------------------------------

void Metrics::add(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
    items_.push_back(Metric{name, value, unit, samples});
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::count(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 10) errors.push_back(why);
}

void Report::fail(const std::string& why) { count(false, why); }

// --- campaigns ---------------------------------------------------------------

namespace {

std::string describe(const eraser::suite::RandomStimulus::Config& cfg) {
    std::string s = "seed=" + std::to_string(cfg.seed) +
                    " cycles=" + std::to_string(cfg.cycles) + " reset=" +
                    cfg.reset + (cfg.reset_active_high ? "/high" : "/low") +
                    "x" + std::to_string(cfg.reset_cycles);
    for (const auto& [name, value] : cfg.constants) {
        s += " " + name + "=" + std::to_string(value);
    }
    return s;
}

}  // namespace

Campaign suite_campaign(const std::vector<Circuit>& circuits, size_t circuit,
                        std::vector<fault::Fault> faults, uint32_t cycles) {
    const eraser::suite::Benchmark* b = circuits[circuit].bench;
    Campaign c;
    c.circuit = circuit;
    c.faults = std::move(faults);
    c.cycles = cycles;
    c.spec = eraser::suite::remote_stimulus(*b, cycles);
    c.make = [b, cycles] { return eraser::suite::make_stimulus(*b, cycles); };
    c.stimulus = "suite cycles=" + std::to_string(cycles);
    c.label = b->name + " " + c.stimulus +
              " faults=" + std::to_string(c.faults.size());
    return c;
}

Campaign random_campaign(const std::vector<Circuit>& circuits, size_t circuit,
                         std::vector<fault::Fault> faults,
                         const eraser::suite::RandomStimulus::Config& cfg,
                         uint32_t epochs) {
    using eraser::suite::EpochRandomStimulus;
    using eraser::suite::RandomStimulus;
    Campaign c;
    c.circuit = circuit;
    c.faults = std::move(faults);
    c.cycles = cfg.cycles;
    if (epochs > 1) {
        c.spec = eraser::suite::remote_stimulus(cfg, epochs);
        c.make = [cfg, epochs] {
            return std::make_unique<EpochRandomStimulus>(cfg, epochs);
        };
        c.stimulus =
            "epoch_random " + describe(cfg) + " epochs=" + std::to_string(epochs);
    } else {
        c.spec = eraser::suite::remote_stimulus(cfg);
        c.make = [cfg] { return std::make_unique<RandomStimulus>(cfg); };
        c.stimulus = "random " + describe(cfg);
    }
    c.label = circuits[circuit].bench->name + " " + c.spec.kind +
              " seed=" + std::to_string(cfg.seed) +
              " faults=" + std::to_string(c.faults.size());
    return c;
}

eraser::suite::RandomStimulus::Config random_config(
    const eraser::suite::Benchmark& b, uint64_t seed, uint32_t cycles) {
    eraser::suite::RandomStimulus::Config cfg;
    // Reset ports of the circuits the random workloads use (apb's is the
    // active-low rstn; the others are active-high rst).
    cfg.reset = b.name == "apb" ? "rstn" : "rst";
    cfg.reset_active_high = b.name != "apb";
    cfg.cycles = cycles;
    cfg.seed = seed;
    return cfg;
}

std::string verdict_digest(const std::vector<bool>& bits) {
    std::string s(bits.size(), '0');
    for (size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) s[i] = '1';
    }
    return sha256_hex(s);
}

bool check_verdict(Campaign& c, const std::vector<bool>& detected) {
    if (!c.verified.empty()) return detected == c.verified;
    if (verdict_digest(detected) != c.reference) return false;
    c.verified = detected;
    return true;
}

void parallel_for(size_t n, uint32_t threads,
                  const std::function<void(size_t)>& fn) {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::exception_ptr first;
    auto work = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first) first = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> pool;
        for (uint32_t t = 1; t < std::max<uint32_t>(1, threads); ++t) {
            pool.emplace_back(work);
        }
        work();
    }
    if (first) std::rethrow_exception(first);
}

namespace {

/// Content key: circuit, stimulus and fault names (not signal ids, so a
/// frontend renumbering cannot silently re-key the golden file).
std::string content_key(const Campaign& c, const Circuit& circuit) {
    std::string text = "circuit " + circuit.bench->name + "\nstimulus " +
                       c.stimulus + "\n";
    for (const fault::Fault& f : c.faults) {
        text += circuit.design->signals[f.sig].name + "[" +
                std::to_string(f.bit) + "]/" + (f.stuck_one ? "1" : "0") +
                "\n";
    }
    return sha256_hex(text).substr(0, 16);
}

/// The serial IFsim stand-in (one forced re-simulation per fault), run on
/// its own per-call bytecode, never the CompiledDesign under test. An
/// epoched stimulus runs one reset-to-end pass per epoch, exactly the
/// independence the epoch contract declares; verdicts OR across epochs.
std::vector<bool> oracle_verdicts(const rtl::Design& design,
                                  const Campaign& c) {
    const uint32_t epochs = std::max<uint32_t>(1, c.make()->num_epochs());
    if (epochs == 1) {
        auto stim = c.make();
        return eraser::baseline::run_serial_campaign(design, c.faults, *stim,
                                                     {})
            .detected;
    }
    std::vector<bool> detected(c.faults.size(), false);
    std::vector<fault::Fault> alive = c.faults;
    std::vector<size_t> ids(c.faults.size());
    std::iota(ids.begin(), ids.end(), size_t{0});
    for (uint32_t e = 0; e < epochs && !alive.empty(); ++e) {
        sim::EpochWindowStimulus window(c.make(), e, e + 1);
        const auto r =
            eraser::baseline::run_serial_campaign(design, alive, window, {});
        std::vector<fault::Fault> next;
        std::vector<size_t> next_ids;
        for (size_t i = 0; i < alive.size(); ++i) {
            if (r.detected[i]) {
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

/// The library's blocking single-engine path on a fresh Session: no
/// shards, scheduler, cache or journal.
std::vector<bool> engine_verdicts(const Circuit& circuit, const Campaign& c) {
    core::Session session(circuit.compiled);
    auto stim = c.make();
    return session.run(c.faults, *stim).detected;
}

struct GoldenLine {
    std::string digest;
    std::string label;
};

/// Reads `key digest label` lines ('#' starts a comment). A missing file
/// is an empty golden set; a malformed line is an error.
bool load_golden(const std::string& path,
                 std::unordered_map<std::string, GoldenLine>& out,
                 std::string& error) {
    std::ifstream in(path);
    if (!in) return true;
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        ++n;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string key, digest;
        fields >> key >> digest;
        if (key.size() != 16 || digest.size() != 64) {
            error = path + ":" + std::to_string(n) + ": malformed golden line";
            return false;
        }
        std::string label;
        std::getline(fields >> std::ws, label);
        out[key] = GoldenLine{digest, label};
    }
    return true;
}

}  // namespace

bool resolve_references(std::vector<Campaign>& campaigns,
                        const std::vector<Circuit>& circuits,
                        const Options& opts, Report& report) {
    for (Campaign& c : campaigns) c.key = content_key(c, circuits[c.circuit]);

    std::unordered_map<std::string, GoldenLine> golden;
    std::string error;
    if (!opts.regen_golden && !load_golden(opts.golden_path, golden, error)) {
        report.fail(error);
        return false;
    }
    // One oracle (or engine) run per distinct key the golden file does not
    // cover.
    std::unordered_map<std::string, size_t> first;
    std::vector<size_t> todo;
    size_t by_engine = 0;
    for (size_t i = 0; i < campaigns.size(); ++i) {
        Campaign& c = campaigns[i];
        if (opts.regen_golden) c.engine_reference = false;
        if (auto it = golden.find(c.key); it != golden.end()) {
            c.reference = it->second.digest;
        } else if (first.emplace(c.key, i).second) {
            todo.push_back(i);
            if (c.engine_reference) ++by_engine;
        }
    }
    const Clock::time_point t0 = Clock::now();
    parallel_for(todo.size(), opts.threads, [&](size_t k) {
        Campaign& c = campaigns[todo[k]];
        const Circuit& circuit = circuits[c.circuit];
        c.reference = verdict_digest(c.engine_reference
                                         ? engine_verdicts(circuit, c)
                                         : oracle_verdicts(*circuit.design, c));
    });
    for (Campaign& c : campaigns) {
        if (c.reference.empty()) c.reference = campaigns[first[c.key]].reference;
    }
    std::fprintf(stderr,
                 "[%s] references: %zu golden, %zu oracle, %zu engine "
                 "(%.2f s)\n",
                 opts.workload.c_str(), campaigns.size() - todo.size(),
                 todo.size() - by_engine, by_engine,
                 seconds_between(t0, Clock::now()));

    if (!opts.regen_golden) return true;
    std::ofstream out(opts.golden_path, std::ios::trunc);
    out << "# " << opts.workload << ": verdict digests at seed " << opts.seed
        << ", one line per distinct campaign.\n"
        << "# <content key> <sha256 of the verdict bitmap as 0/1 text> "
           "<campaign>\n"
        << "# Generated by the serial oracle: python3 perf/run.py "
           "--regen-golden\n";
    std::unordered_map<std::string, bool> written;
    for (const Campaign& c : campaigns) {
        if (!written.emplace(c.key, true).second) continue;
        out << c.key << ' ' << c.reference << ' ' << c.label << '\n';
    }
    if (!out) {
        report.fail("cannot write " + opts.golden_path);
        return false;
    }
    return true;
}

// --- tracing -----------------------------------------------------------------

void Tracer::span(const std::string& name, const char* cat,
                  Clock::time_point start, double dur_s, uint32_t tid,
                  uint64_t campaign, const std::string& parent) {
    if (!on()) return;
    const double ts =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{name, cat, ts, dur_s * 1e6, tid, campaign, parent});
}

uint32_t Tracer::thread_lane() {
    const std::thread::id me = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, lane] : threads_) {
        if (id == me) return lane;
    }
    const uint32_t lane = static_cast<uint32_t>(threads_.size()) + 1;
    threads_.emplace_back(me, lane);
    return lane;
}

uint32_t Tracer::shard_lane(Clock::time_point start, double dur_s) {
    const double ts =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t l = 0; l < lane_end_us_.size(); ++l) {
        if (lane_end_us_[l] <= ts) {
            lane_end_us_[l] = ts + dur_s * 1e6;
            return static_cast<uint32_t>(100 + l);
        }
    }
    lane_end_us_.push_back(ts + dur_s * 1e6);
    return static_cast<uint32_t>(100 + lane_end_us_.size() - 1);
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                     "\"args\": {\"campaign\": %llu, \"parent\": \"%s\"}}%s\n",
                     json_escape(s.name).c_str(), s.cat, s.ts_us, s.dur_us,
                     s.tid, static_cast<unsigned long long>(s.campaign),
                     json_escape(s.parent).c_str(),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

// --- timing decorators -------------------------------------------------------

void TimedStimulus::apply(uint32_t cycle, sim::DriveHandle& h) {
    const Clock::time_point t0 = Clock::now();
    inner_->apply(cycle, h);
    apply_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count(),
        std::memory_order_relaxed);
}

ssize_t TimedFileIo::write(int fd, const void* data, size_t len) {
    const Clock::time_point t0 = Clock::now();
    const ssize_t n = FileIo::write(fd, data, len);
    const double dt = seconds_between(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    totals_.write_s += dt;
    if (n > 0) totals_.bytes += static_cast<uint64_t>(n);
    return n;
}

int TimedFileIo::fsync(int fd) {
    const Clock::time_point t0 = Clock::now();
    const int rc = FileIo::fsync(fd);
    const double dt = seconds_between(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    totals_.fsync_s += dt;
    totals_.fsync_each_s.push_back(dt);
    return rc;
}

TimedFileIo::Totals TimedFileIo::totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
}

void install_timed_stimulus_kinds(const std::vector<Campaign>& campaigns,
                                  std::atomic<int64_t>& apply_ns) {
    // A stimulus kind only ever sees payload bytes, so it finds the campaign
    // whose spec the bytes came from. The table is immutable once shared.
    using Table = std::unordered_map<std::string, core::StimulusFactory>;
    std::unordered_map<std::string, std::shared_ptr<Table>> kinds;
    for (const Campaign& c : campaigns) {
        auto& table = kinds[c.spec.kind];
        if (!table) table = std::make_shared<Table>();
        table->emplace(std::string(c.spec.payload.begin(),
                                   c.spec.payload.end()),
                       c.make);
    }
    for (auto& [kind, table] : kinds) {
        std::shared_ptr<const Table> t = table;
        const std::string name = kind;
        core::register_stimulus_kind(
            kind, [t, name, &apply_ns](std::span<const uint8_t> payload)
                      -> std::unique_ptr<sim::Stimulus> {
                const auto it =
                    t->find(std::string(payload.begin(), payload.end()));
                if (it == t->end()) {
                    throw eraser::SimError("traced run: unknown '" + name +
                                           "' stimulus payload");
                }
                return std::make_unique<TimedStimulus>(it->second(),
                                                       apply_ns);
            });
    }
}

// --- process -----------------------------------------------------------------

double peak_rss_kb(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
    }
    return 0.0;
}

double peak_rss_mb(const std::vector<double>& children_kb) {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    double kb = static_cast<double>(self.ru_maxrss);
    for (double c : children_kb) kb += c;
    return kb / 1024.0;
}

uint32_t engine_threads() {
    cpu_set_t set;
    CPU_ZERO(&set);
    int n = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
    if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
    return static_cast<uint32_t>(std::clamp(n, 1, 4));
}

}  // namespace perf
