/**
 * @file
 * catsim benchmark program.
 *
 *   catsim_perfbench --workload cmrpo_cold|replay_warm|closed_loop
 *                    --seed N --seconds S --trace 0|1 [options]
 *
 * Runs the workload's set-up, then timed passes over its grid for S
 * host seconds, checks every simulated result against the committed
 * reference (or, for seeds without one, against the first pass), and
 * prints one JSON object as the last line of standard output:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
 * Exits 1 when any result failed the check.
 */

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/tree_bundle.hpp"
#include "outputs.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace
{

/**
 * Most sweep workers of a timed pass.  Fewer than a shared host's
 * cores, so a neighbour taking a core slows no worker; with as many
 * workers as cores, every stolen slice shows in the pass time.
 */
constexpr std::size_t kMaxJobs = 2;
/** Set-up repetitions in an untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Timed passes made even when one pass outlasts --seconds. */
constexpr std::size_t kMinPasses = 3;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
usage()
{
    std::cerr
        << "usage: catsim_perfbench --workload NAME --seed N --seconds S "
           "--trace 0|1\n"
           "  [--revision R] [--tmp-dir D]\n"
           "  [--trace-dir D] [--reference-dir D] [--write-reference]\n"
           "  [--print-inputs]\n"
           "workloads: cmrpo_cold replay_warm closed_loop\n";
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--write-reference") {
            opt->writeReference = true;
            continue;
        }
        if (arg == "--print-inputs") {
            opt->printInputs = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                opt->workload = val;
            else if (arg == "--seed")
                opt->seed = std::stoull(val);
            else if (arg == "--seconds")
                opt->seconds = std::stod(val);
            else if (arg == "--trace")
                opt->trace = std::stoi(val) != 0;
            else if (arg == "--revision")
                opt->revision = val;
            else if (arg == "--tmp-dir")
                opt->tmpDir = val;
            else if (arg == "--trace-dir")
                opt->traceDir = val;
            else if (arg == "--reference-dir")
                opt->referenceDir = val;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !opt->workload.empty() && opt->seconds > 0.0;
}

std::string
manifestJson(const Options &opt, const std::string &reference,
             std::size_t passes)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
       << opt.seed << ", \"scale\": " << kScale
       << ", \"jobs\": " << opt.jobs << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"passes\": " << passes << ", \"reference\": \"" << reference
       << "\", \"simd_tier\": " << catsim::TreeBundle::simdTier()
       << ", \"host_cores\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << compilerName()
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"revision\": \"" << opt.revision << "\"}";
    return os.str();
}

/**
 * Hand memory freed by a pass back to the system, so the peak RSS is
 * one pass's footprint and not the allocator's retention across passes.
 */
void
releaseFreedMemory()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** Timed passes until @p seconds have elapsed (at least kMinPasses). */
std::vector<PassResult>
runPasses(Workload &wl, double seconds, Tracer *tracer)
{
    std::vector<PassResult> out;
    const double start = hostNow();
    while (out.size() < kMinPasses || hostNow() - start < seconds) {
        out.push_back(wl.pass(tracer));
        releaseFreedMemory();
    }
    return out;
}

/** Where a run's results are checked against. */
struct Reference
{
    std::string mode = "none"; //!< full | digest | none
    std::vector<std::string> lines;
    std::uint64_t digest = 0;
};

Reference
loadReference(const Options &opt)
{
    Reference ref;
    if (opt.seed == kDefaultSeed) {
        if (auto lines = readLines(opt.referenceDir + "/" + opt.workload
                                   + ".txt")) {
            ref.mode = "full";
            ref.lines = std::move(*lines);
            return ref;
        }
    }
    const auto digests = readDigests(opt.referenceDir + "/digests.txt");
    const auto it = digests.find({opt.workload, opt.seed});
    if (it != digests.end()) {
        ref.mode = "digest";
        ref.digest = it->second;
    }
    return ref;
}

/** Lines of @p got that differ from @p want, position by position. */
std::size_t
mismatches(const std::vector<std::string> &got,
           const std::vector<std::string> &want)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i >= want.size() || got[i] != want[i]) {
            if (bad < 5)
                std::cerr << "perfbench: mismatch: " << got[i] << '\n';
            ++bad;
        }
    }
    if (want.size() > got.size())
        bad += want.size() - got.size();
    return bad;
}

/**
 * Per-layer metrics of a traced run.  Spans with ids in
 * [passBegin, passEnd) come from the traced passes and are averaged
 * per pass; the rest (set-up, front-end split) happened once.
 */
std::vector<Metric>
layerMetrics(const Tracer &tracer, std::int64_t passBegin,
             std::int64_t passEnd, const std::vector<PassResult> &traced,
             double untracedMedianWall, const Counters &once,
             std::size_t jobs)
{
    const double n = static_cast<double>(traced.size());
    const Counters &perPass = traced.back().counts;
    auto count = [](const Counters &c, const std::string &name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };

    const std::vector<Span> &spans = tracer.spans();
    const std::vector<double> self = tracer.selfSeconds();
    std::map<std::string, double> onceSelf, passSelf, kindSelf;
    std::vector<double> cellMs;
    double cellSeconds = 0.0;

    // Calls that share a baseline: the earliest-starting call of each
    // (phase, name, key) group did the work, the others waited on it.
    struct Group
    {
        double start = 0.0;
        std::size_t owner = 0;
    };
    std::map<std::tuple<bool, std::string, std::int64_t>, Group> groups;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const bool inPass = s.id >= passBegin && s.id < passEnd;
        (inPass ? passSelf : onceSelf)[s.name] += self[i];
        if (inPass && s.name == "core")
            kindSelf[s.tag] += self[i];
        if (inPass && s.name == "cell") {
            cellMs.push_back(s.seconds() * 1e3);
            cellSeconds += s.seconds();
        }
        if (s.name == "sim.baseline" || s.name == "baseline_io.load") {
            auto [it, fresh] =
                groups.try_emplace({inPass, s.name, s.key}, Group{s.start, i});
            if (!fresh && s.start < it->second.start)
                it->second = Group{s.start, i};
        }
    }
    std::map<std::pair<bool, std::string>, double> ownerSeconds;
    double waitSeconds = 0.0;
    for (const auto &[key, group] : groups)
        ownerSeconds[{std::get<0>(key), std::get<1>(key)}] +=
            spans[group.owner].seconds();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const bool inPass = s.id >= passBegin && s.id < passEnd;
        if (!inPass
            || (s.name != "sim.baseline" && s.name != "baseline_io.load"))
            continue;
        if (groups.at({true, s.name, s.key}).owner != i)
            waitSeconds += s.seconds();
    }

    std::vector<double> tracedWalls;
    double tracedWallSum = 0.0;
    for (const PassResult &p : traced) {
        tracedWalls.push_back(p.wall);
        tracedWallSum += p.wall;
    }

    const double traceSelf = onceSelf["trace"];
    const double controllerSelf = onceSelf["controller"];
    const double timingSelf =
        std::max(0.0, onceSelf["sim.timing"] - controllerSelf);
    const double loadSeconds = ownerSeconds[{true, "baseline_io.load"}];

    std::vector<Metric> m = {
        {"trace_overhead", ratio(median(tracedWalls), untracedMedianWall),
         "ratio"},
        {"trace.records_per_s", ratio(count(once, "trace.records"), traceSelf),
         "1/s"},
        {"trace.self_s", traceSelf, "s"},
        {"sim.timing.records_per_s",
         ratio(count(once, "sim.timing.records"), timingSelf), "1/s"},
        {"sim.timing.self_s", timingSelf, "s"},
        {"controller.requests_per_s",
         ratio(count(once, "controller.requests"), controllerSelf), "1/s"},
        {"controller.self_s", controllerSelf, "s"},
        {"controller.reads", count(once, "controller.reads"), "count"},
        {"controller.writes", count(once, "controller.writes"), "count"},
        {"controller.write_drains", count(once, "controller.write_drains"),
         "count"},
        {"controller.victim_refresh_events",
         count(once, "controller.victim_refresh_events"), "count"},
        {"core.self_s", passSelf["core"] / n, "s"},
    };
    for (const char *kind : {"PRCAT", "DRCAT", "SCA", "PRA", "CC", "MG",
                             "RFM"}) {
        m.push_back({std::string("core.acts_per_s.") + kind,
                     ratio(count(perPass, std::string("core.acts.") + kind)
                               * n,
                           kindSelf[kind]),
                     "1/s"});
    }
    const bool onceComputes = once.count("sim.baseline.computes") > 0;
    const std::vector<Metric> rest = {
        {"core.splits", count(perPass, "core.splits"), "count"},
        {"core.merges", count(perPass, "core.merges"), "count"},
        {"core.refresh_events", count(perPass, "core.refresh_events"),
         "count"},
        {"core.sram_accesses", count(perPass, "core.sram_accesses"),
         "count"},
        {"sim.baseline.computes",
         count(onceComputes ? once : perPass, "sim.baseline.computes"),
         "count"},
        {"sim.baseline.self_s",
         ownerSeconds[{false, "sim.baseline"}]
             + ownerSeconds[{true, "sim.baseline"}] / n,
         "s"},
        {"baseline_io.load_mb_per_s",
         ratio(count(perPass, "baseline_io.load_bytes") * n, loadSeconds)
             / 1e6,
         "MB/s"},
        {"baseline_io.save_mb_per_s",
         ratio(count(once, "baseline_io.save_bytes"),
               onceSelf["baseline_io.save"])
             / 1e6,
         "MB/s"},
        {"baseline_io.disk_loads", count(perPass, "baseline_io.disk_loads"),
         "count"},
        {"sweep.busy_frac",
         ratio(cellSeconds, static_cast<double>(jobs) * tracedWallSum),
         "ratio"},
        {"sweep.wait_s", waitSeconds / n, "s"},
        {"sweep.cell_ms_p50", percentile(cellMs, 0.5), "ms"},
        {"sweep.cell_ms_p90", percentile(cellMs, 0.9), "ms"},
        {"sweep.cells", static_cast<double>(cellMs.size()) / n, "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

int
runBenchmark(const Options &opt, Workload &wl)
{
    std::filesystem::create_directories(opt.tmpDir);
    Counters once;

    if (opt.writeReference) {
        wl.setup(nullptr, once);
        const PassResult p = wl.pass(nullptr);
        if (opt.seed == kDefaultSeed) {
            std::filesystem::create_directories(opt.referenceDir);
            if (!writeLines(opt.referenceDir + "/" + opt.workload + ".txt",
                            p.lines))
                return 1;
        }
        std::printf("@@REF %s %llu %016llx\n", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(digestLines(p.lines)));
        return 0;
    }

    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>();

    std::vector<double> setupTimes;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        const double t0 = hostNow();
        wl.setup(tracer.get(), once);
        setupTimes.push_back(hostNow() - t0);
        releaseFreedMemory();
    }

    // Untraced passes; a traced run spends half its time on them and
    // half on traced passes, then splits the front end once.
    const double untracedSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::vector<PassResult> passes = runPasses(wl, untracedSeconds, nullptr);
    // Before the output checks, whose re-runs are not timed either.
    const double peakRss = peakRssMb();
    std::vector<PassResult> traced;
    std::vector<std::string> splitLines;
    std::int64_t passBegin = 0;
    std::int64_t passEnd = 0;
    if (tracer) {
        passBegin = tracer->nextId();
        traced = runPasses(wl, opt.seconds / 2, tracer.get());
        passEnd = tracer->nextId();
        splitLines = wl.splitFrontEnd(*tracer, once);
    }

    // Output checks.
    const Reference ref = loadReference(opt);
    const std::vector<std::string> &first = passes.front().lines;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    auto checkPass = [&](const PassResult &p) {
        attempted += p.lines.size();
        if (ref.mode == "full")
            failed += mismatches(p.lines, ref.lines);
        else if (ref.mode == "digest") {
            if (digestLines(p.lines) != ref.digest) {
                std::cerr << "perfbench: result digest differs from the "
                             "committed one\n";
                failed += p.lines.size();
            }
        } else {
            failed += mismatches(p.lines, first);
        }
    };
    for (const PassResult &p : passes)
        checkPass(p);
    for (const PassResult &p : traced)
        checkPass(p);
    std::map<std::string, std::string> byKey;
    for (const std::string &line : first)
        byKey[lineKey(line)] = line;
    auto checkByKey = [&](const std::vector<std::string> &lines) {
        for (const std::string &line : lines) {
            ++attempted;
            const auto it = byKey.find(lineKey(line));
            if (it == byKey.end() || it->second != line) {
                std::cerr << "perfbench: differs from the timed pass: "
                          << line << '\n';
                ++failed;
            }
        }
    };
    // The same cells at one job and at one job per host core must match
    // the timed pass, and the front-end split must reproduce the pass's
    // results.
    checkByKey(wl.subsetAt(1));
    const std::size_t hostCores = std::thread::hardware_concurrency();
    if (hostCores > 1 && hostCores != opt.jobs)
        checkByKey(wl.subsetAt(hostCores));
    checkByKey(splitLines);
    const bool correct = failed == 0;

    std::vector<Metric> metrics;
    std::vector<double> walls, acts, cells;
    for (const PassResult &p : passes) {
        walls.push_back(p.wall);
        acts.push_back(p.activations / p.wall);
        cells.push_back(static_cast<double>(p.cells) / p.wall);
    }
    if (!opt.trace) {
        metrics = {
            {"wall_s", median(walls), "s"},
            {"acts_per_s", median(acts), "1/s"},
            {"cells_per_s", median(cells), "1/s"},
            {"peak_rss_mb", peakRss, "MB"},
            {"setup_s", median(setupTimes), "s"},
        };
    } else {
        metrics = layerMetrics(*tracer, passBegin, passEnd, traced,
                               median(walls), once, opt.jobs);
    }

    const std::string manifest =
        manifestJson(opt, ref.mode, passes.size() + traced.size());
    if (tracer) {
        std::filesystem::create_directories(opt.traceDir);
        const std::string path = opt.traceDir + "/" + opt.workload + "-seed"
                                 + std::to_string(opt.seed) + ".json";
        if (!tracer->writeJson(path, manifest)) {
            std::cerr << "perfbench: cannot write " << path << '\n';
            return 1;
        }
        std::cout << "spans: " << path << '\n';
    }
    std::cout << "manifest: " << manifest << '\n' << "pass_wall_s:";
    for (double w : walls)
        std::cout << ' ' << w;
    std::cout << "\nsetup_wall_s:";
    for (double s : setupTimes)
        std::cout << ' ' << s;
    std::cout << '\n';
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << " = " << m.value << ' ' << m.unit
                  << '\n';
    std::cout << "fail_frac = "
              << (attempted ? static_cast<double>(failed)
                                  / static_cast<double>(attempted)
                            : 0.0)
              << " (" << failed << " of " << attempted << " results)\n";
    std::cout << resultJson(correct, attempted, failed, metrics)
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Timed runs never read or write a persistent cache, never resume
    // from a journal, and never inject faults.
    for (const char *var : {"CATSIM_BASELINE_CACHE", "CATSIM_CHECKPOINT",
                            "CATSIM_FAILPOINTS", "CATSIM_SWEEP_KEEP_GOING"})
        unsetenv(var);
    catsim::fault::installFailpoints("");

    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        usage();
        return 2;
    }
    opt.jobs = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                       1, kMaxJobs);
    const std::unique_ptr<Workload> wl = makeWorkload(opt);
    if (!wl) {
        std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
        usage();
        return 2;
    }
    if (opt.printInputs) {
        std::printf("inputs %s %llu %016llx\n", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(wl->inputDigest()));
        return 0;
    }
    try {
        return runBenchmark(opt, *wl);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
