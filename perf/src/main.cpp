// perf_campaign: runs one workload of the campaign benchmark and prints
// its result as one JSON line on stdout (perf/run.py is the front end).
//
//   perf_campaign --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--regen-golden] --golden FILE --out DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perf.h"

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: perf_campaign --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--regen-golden] "
                 "--golden FILE --out DIR\n");
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
    }
    return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
    perf::Options opts;
    opts.threads = perf::engine_threads();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--golden" && has_value) {
            opts.golden_path = argv[++i];
        } else if (a == "--out" && has_value) {
            opts.out_dir = argv[++i];
        } else if (a == "--smoke") {
            opts.smoke = true;
        } else if (a == "--regen-golden") {
            opts.regen_golden = true;
        } else {
            usage();
            return 2;
        }
    }
    if (opts.workload.empty() || opts.golden_path.empty() ||
        opts.out_dir.empty() || !(opts.seconds > 0)) {
        usage();
        return 2;
    }

    perf::Report report;
    try {
        if (!perf::run_workload(opts, report)) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         opts.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        report.fail(std::string("workload aborted: ") + e.what());
    }

    std::string out = "{\"workload\": " + json_string(opts.workload) +
                      ", \"threads\": " + std::to_string(opts.threads) +
                      ", \"attempted\": " + std::to_string(report.attempted) +
                      ", \"failed\": " + std::to_string(report.failed) +
                      ", \"errors\": [";
    for (size_t i = 0; i < report.errors.size(); ++i) {
        out += (i ? ", " : "") + json_string(report.errors[i]);
    }
    out += "], \"metrics\": [";
    const auto& items = report.metrics.items();
    char buf[64];
    for (size_t i = 0; i < items.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", items[i].value);
        out += std::string(i ? ", " : "") + "{\"name\": " +
               json_string(items[i].name) + ", \"value\": " + buf +
               ", \"unit\": " + json_string(items[i].unit) +
               ", \"samples\": " + std::to_string(items[i].samples) + "}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return report.failed == 0 ? 0 : 1;
}
