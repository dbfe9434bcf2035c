// The host-speed reference the run measures next to its load (see
// HostMeter in perf.h and perf/README.md, "Host normalization").
#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>

#include "perf.h"

namespace perf {

namespace {

/// CPU time of the calling thread: time the hypervisor gave our vCPU to
/// another guest (steal) or that the thread waited for a CPU is not in it.
double thread_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Cumulative busy and steal time of all CPUs, in /proc/stat ticks.
struct CpuTicks {
    double busy = 0.0;
    double steal = 0.0;
};

bool read_cpu_ticks(CpuTicks& out) {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
    if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal) ||
        cpu != "cpu") {
        return false;
    }
    out.busy = user + nice + system + irq + softirq;
    out.steal = steal;
    return true;
}

/// xorshift64: the kernels' own generator, so nothing of the library
/// shapes the reference.
uint64_t next(uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

struct Op {
    uint8_t code;
    uint16_t dst, a, b;
};

constexpr size_t kOps = size_t{1} << 14;      // 128 KiB of program
constexpr size_t kCells = size_t{1} << 14;    // 128 KiB of state
constexpr size_t kStream = size_t{1} << 14;   // 128 KiB per stream array
constexpr int kInterpRounds = 4;
constexpr int kStreamRounds = 48;

constexpr size_t kThreadBytes =
    kOps * sizeof(Op) + kCells * sizeof(uint64_t) + 3 * kStream * sizeof(uint64_t);

/// Mean per-thread times of one sample, in seconds: wall and thread CPU.
struct Times {
    double interp = 0.0;
    double stream = 0.0;
    double interp_cpu = 0.0;
    double stream_cpu = 0.0;
};

/// One thread's two kernels, over memory of the meter's arena (640 KiB,
/// L2-resident like the engine's hot state).
///  * interp: a fixed register-machine program of random three-address bit
///    operations over a table, dispatched through a switch: it stalls on
///    branches and loads like the engine's bytecode VM.
///  * stream: bit operations streaming over three arrays at full issue
///    width, like the engine's 64-lane word loops.
/// On the reference host the engine slows more than interp and less than
/// stream when the host is busy, so the factor is their geometric mean.
struct Kernel {
    Op* program;
    uint64_t* cells;
    uint64_t* a;
    uint64_t* b;
    uint64_t* c;

    Kernel(std::byte* mem, uint64_t seed)
        : program(reinterpret_cast<Op*>(mem)),
          cells(reinterpret_cast<uint64_t*>(mem + kOps * sizeof(Op))),
          a(cells + kCells),
          b(a + kStream),
          c(b + kStream) {
        uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
        for (size_t i = 0; i < kOps; ++i) {
            program[i] = Op{static_cast<uint8_t>(next(x) % 8),
                            static_cast<uint16_t>(next(x) % kCells),
                            static_cast<uint16_t>(next(x) % kCells),
                            static_cast<uint16_t>(next(x) % kCells)};
        }
        for (size_t i = 0; i < kCells; ++i) cells[i] = next(x);
        for (size_t i = 0; i < kStream; ++i) {
            a[i] = next(x);
            b[i] = next(x);
            c[i] = 0;
        }
    }

    uint64_t interp(int rounds) {
        for (int r = 0; r < rounds; ++r) {
            for (size_t i = 0; i < kOps; ++i) {
                const Op& op = program[i];
                const uint64_t x = cells[op.a];
                const uint64_t y = cells[op.b];
                uint64_t v = 0;
                switch (op.code) {
                    case 0: v = x & y; break;
                    case 1: v = x | y; break;
                    case 2: v = x ^ y; break;
                    case 3: v = ~x; break;
                    case 4: v = x + y; break;
                    case 5: v = x << (y & 63); break;
                    case 6: v = x == y ? ~uint64_t{0} : 0; break;
                    default: v = x != 0 ? y : ~y; break;
                }
                cells[op.dst] = v;
            }
        }
        return cells[0];
    }

    uint64_t stream(int rounds) {
        for (int r = 0; r < rounds; ++r) {
            const uint64_t k = static_cast<uint64_t>(r);
            for (size_t i = 0; i < kStream; ++i) {
                c[i] = (a[i] & b[i]) ^ (c[i] >> 1) ^ (a[i] | k);
            }
        }
        return c[kStream / 2];
    }

    /// Warm timings of both kernels: a short pass refills the caches the
    /// load evicted, then the timed pass.
    Times time() {
        Times t;
        volatile uint64_t sink = interp(1);
        Clock::time_point w0 = Clock::now();
        double c0 = thread_seconds();
        sink = interp(kInterpRounds);
        t.interp_cpu = thread_seconds() - c0;
        t.interp = seconds_between(w0, Clock::now());
        sink = stream(1);
        w0 = Clock::now();
        c0 = thread_seconds();
        sink = stream(kStreamRounds);
        t.stream_cpu = thread_seconds() - c0;
        t.stream = seconds_between(w0, Clock::now());
        (void)sink;
        return t;
    }
};

double speed(double interp_s, double stream_s) {
    return std::sqrt(HostMeter::kReferenceInterpSeconds / interp_s *
                     (HostMeter::kReferenceStreamSeconds / stream_s));
}

}  // namespace

/// The share of the CPU time the guest's busy vCPUs wanted that they got
/// over about the last second: busy ÷ (busy + steal) from /proc/stat. On
/// the reference host other guests take up to two thirds of it in some
/// phases, and the load's threads lose that time while the kernels' CPU
/// time does not. 1 when /proc/stat cannot be read.
class HostMeter::Availability {
  public:
    Availability() { (void)read(); }

    double read() {
        CpuTicks now;
        if (!read_cpu_ticks(now)) return last_;
        const Clock::time_point t = Clock::now();
        readings_.push_back({t, now});
        // Keep one reading at least a second old as the window's start.
        while (readings_.size() > 2 &&
               t - readings_[1].at >= std::chrono::seconds(1)) {
            readings_.pop_front();
        }
        const CpuTicks& from = readings_.front().ticks;
        const double busy = now.busy - from.busy;
        const double steal = now.steal - from.steal;
        // Ticks are 10 ms: below half a CPU-second the share is too coarse,
        // so the last one stands.
        if (busy + steal >= kMinTicks) last_ = busy / (busy + steal);
        return last_;
    }

  private:
    static constexpr double kMinTicks = 50.0;
    struct Reading {
        Clock::time_point at;
        CpuTicks ticks;
    };
    std::deque<Reading> readings_;
    double last_ = 1.0;
};

/// One Kernel per thread, the first run by the sampling thread, the rest
/// by parked helpers.
class HostMeter::Sampler {
  public:
    explicit Sampler(uint32_t threads) : took_(std::max<uint32_t>(1, threads)) {
        arena_.resize(took_.size() * kThreadBytes / sizeof(uint64_t));
        auto* arena = reinterpret_cast<std::byte*>(arena_.data());
        for (size_t i = 0; i < took_.size(); ++i) {
            kernels_.emplace_back(arena + i * kThreadBytes, i + 1);
        }
        for (size_t i = 1; i < took_.size(); ++i) {
            helpers_.emplace_back([this, i] { help(i); });
        }
    }

    ~Sampler() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
    }

    /// Both kernels on `threads` threads at once.
    Times sample(uint32_t threads) {
        const size_t n = std::clamp<size_t>(threads, 1, kernels_.size());
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++generation_;
            active_ = n;
            finished_ = 0;
        }
        cv_.notify_all();
        const Times mine = kernels_[0].time();
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return finished_ + 1 == n; });
        took_[0] = mine;
        Times mean;
        const double w = 1.0 / static_cast<double>(n);
        for (size_t i = 0; i < n; ++i) {
            mean.interp += took_[i].interp * w;
            mean.stream += took_[i].stream * w;
            mean.interp_cpu += took_[i].interp_cpu * w;
            mean.stream_cpu += took_[i].stream_cpu * w;
        }
        return mean;
    }

  private:
    void help(size_t i) {
        uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] {
                    return stop_ || (generation_ != seen && i < active_);
                });
                if (stop_) return;
                seen = generation_;
            }
            const Times t = kernels_[i].time();
            std::lock_guard<std::mutex> lock(mu_);
            took_[i] = t;
            if (++finished_ + 1 == active_) cv_.notify_all();
        }
    }

    std::vector<Times> took_;
    std::vector<uint64_t> arena_;   // every kernel's memory
    std::vector<Kernel> kernels_;
    std::mutex mu_;
    std::condition_variable cv_;
    uint64_t generation_ = 0;
    size_t active_ = 0;     // threads in the current sample
    size_t finished_ = 0;   // helpers done with it
    bool stop_ = false;
    std::vector<std::jthread> helpers_;   // last: joined first
};

HostMeter::HostMeter(uint32_t threads)
    : sampler_(std::make_unique<Sampler>(threads)),
      availability_(std::make_unique<Availability>()) {}

HostMeter::~HostMeter() = default;

double HostMeter::factor(uint32_t threads) {
    const Times t = sampler_->sample(threads);
    // Both are lower bounds of the slowdown the load sees: the wall-time
    // speed misses the steal a 1.5 ms sample rarely overlaps, the CPU-time
    // speed times availability misses waiting the guest does not count as
    // steal. The larger slowdown of the two counts no stolen time twice.
    return std::min(speed(t.interp, t.stream),
                    speed(t.interp_cpu, t.stream_cpu) * availability_->read());
}

}  // namespace perf
