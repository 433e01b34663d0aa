#include "obs/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace rock::obs {

namespace {

constexpr const char* kSchema = "rock-metrics-v1";

Json
number(double v)
{
    Json j;
    j.kind = Json::Kind::Number;
    j.number = v;
    return j;
}

Json
string_value(const std::string& s)
{
    Json j;
    j.kind = Json::Kind::String;
    j.string = s;
    return j;
}

double
require_number(const Json& obj, const std::string& key)
{
    const Json* v = obj.find(key);
    if (!v || !v->is_number())
        throw std::runtime_error("metrics report: missing number '" +
                                 key + "'");
    return v->number;
}

} // namespace

double
peak_rss_mb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
current_rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    if (!(statm >> pages >> resident))
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double
HistogramSnapshot::quantile(double q) const
{
    const double target = q * static_cast<double>(count);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        cumulative += static_cast<double>(counts[i]);
        if (cumulative >= target)
            return bounds[i];
    }
    return std::numeric_limits<double>::infinity();
}

MetricsReport
MetricsReport::capture(const Registry& registry)
{
    return capture(registry, {process_trace()});
}

MetricsReport
MetricsReport::capture(const Registry& registry,
                       const std::vector<std::shared_ptr<Trace>>& traces)
{
    MetricsReport report;
    report.counters = registry.counter_values();
    report.gauges = registry.gauge_values();
    // Memory, like every gauge, is informational: never gated. The
    // kernel's high-water mark lags its exact resident count by a few
    // pages, so the peak reported is at least the current size.
    const double rss = current_rss_mb();
    report.gauges["process.rss_mb"] = rss;
    report.gauges["process.peak_rss_mb"] = std::max(peak_rss_mb(), rss);
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    report.gauges["process.voluntary_ctx_switches"] =
        static_cast<double>(usage.ru_nvcsw);
    report.gauges["process.involuntary_ctx_switches"] =
        static_cast<double>(usage.ru_nivcsw);
    registry.visit_histograms(
        [&](const std::string& name, const std::vector<double>& bounds,
            const std::vector<std::uint64_t>& counts,
            std::uint64_t count, double sum) {
            report.histograms[name] =
                HistogramSnapshot{bounds, counts, count, sum};
        });
    for (const std::shared_ptr<Trace>& trace : traces) {
        const int offset = static_cast<int>(report.spans.size());
        for (SpanRecord& s : trace->spans()) {
            s.id += offset;
            if (s.parent >= 0)
                s.parent += offset;
            report.spans.push_back(std::move(s));
        }
    }
    // Thread ids in the traces are full-width std::hash values; renumber
    // them to dense ordinals (order of first appearance) so the JSON
    // number round-trips exactly (doubles only hold 53 integer bits)
    // and reports stay readable.
    std::map<std::uint64_t, std::uint64_t> dense;
    for (SpanRecord& s : report.spans) {
        auto [it, inserted] = dense.emplace(s.thread, dense.size());
        s.thread = it->second;
    }
    return report;
}

std::string
MetricsReport::to_json() const
{
    Json root;
    root.kind = Json::Kind::Object;
    root.object.emplace_back("schema", string_value(kSchema));

    Json counters_obj;
    counters_obj.kind = Json::Kind::Object;
    for (const auto& [name, value] : counters)
        counters_obj.object.emplace_back(
            name, number(static_cast<double>(value)));
    Json deterministic;
    deterministic.kind = Json::Kind::Object;
    deterministic.object.emplace_back("counters",
                                      std::move(counters_obj));
    root.object.emplace_back("deterministic", std::move(deterministic));

    Json gauges_obj;
    gauges_obj.kind = Json::Kind::Object;
    for (const auto& [name, value] : gauges)
        gauges_obj.object.emplace_back(name, number(value));

    Json histograms_obj;
    histograms_obj.kind = Json::Kind::Object;
    for (const auto& [name, h] : histograms) {
        Json entry;
        entry.kind = Json::Kind::Object;
        Json bounds;
        bounds.kind = Json::Kind::Array;
        for (double b : h.bounds)
            bounds.array.push_back(number(b));
        Json counts;
        counts.kind = Json::Kind::Array;
        for (std::uint64_t c : h.counts)
            counts.array.push_back(number(static_cast<double>(c)));
        entry.object.emplace_back("bounds", std::move(bounds));
        entry.object.emplace_back("counts", std::move(counts));
        entry.object.emplace_back(
            "count", number(static_cast<double>(h.count)));
        entry.object.emplace_back("sum", number(h.sum));
        histograms_obj.object.emplace_back(name, std::move(entry));
    }

    Json spans_arr;
    spans_arr.kind = Json::Kind::Array;
    for (const SpanRecord& s : spans) {
        Json entry;
        entry.kind = Json::Kind::Object;
        entry.object.emplace_back("id", number(s.id));
        entry.object.emplace_back("parent", number(s.parent));
        entry.object.emplace_back("name", string_value(s.name));
        entry.object.emplace_back("start_ms", number(s.start_ms));
        entry.object.emplace_back("wall_ms", number(s.wall_ms));
        entry.object.emplace_back("cpu_ms", number(s.cpu_ms));
        entry.object.emplace_back(
            "thread", number(static_cast<double>(s.thread)));
        spans_arr.array.push_back(std::move(entry));
    }

    Json timing;
    timing.kind = Json::Kind::Object;
    timing.object.emplace_back("gauges", std::move(gauges_obj));
    timing.object.emplace_back("histograms",
                               std::move(histograms_obj));
    timing.object.emplace_back("spans", std::move(spans_arr));
    root.object.emplace_back("timing", std::move(timing));

    return root.dump(2) + "\n";
}

MetricsReport
MetricsReport::from_json(const std::string& json)
{
    Json root = Json::parse(json);
    const Json* schema = root.find("schema");
    if (!schema || !schema->is_string() || schema->string != kSchema)
        throw std::runtime_error(
            "metrics report: missing or unknown schema tag");

    MetricsReport report;
    if (const Json* det = root.find("deterministic")) {
        if (const Json* counters = det->find("counters")) {
            for (const auto& [name, value] : counters->object) {
                if (!value.is_number())
                    throw std::runtime_error(
                        "metrics report: counter '" + name +
                        "' is not a number");
                report.counters[name] =
                    static_cast<std::uint64_t>(value.number);
            }
        }
    }
    const Json* timing = root.find("timing");
    if (!timing)
        return report;
    if (const Json* gauges = timing->find("gauges")) {
        for (const auto& [name, value] : gauges->object)
            report.gauges[name] = value.number_or(0.0);
    }
    if (const Json* histograms = timing->find("histograms")) {
        for (const auto& [name, entry] : histograms->object) {
            HistogramSnapshot h;
            if (const Json* bounds = entry.find("bounds")) {
                for (const Json& b : bounds->array)
                    h.bounds.push_back(b.number_or(0.0));
            }
            if (const Json* counts = entry.find("counts")) {
                for (const Json& c : counts->array)
                    h.counts.push_back(static_cast<std::uint64_t>(
                        c.number_or(0.0)));
            }
            h.count = static_cast<std::uint64_t>(
                require_number(entry, "count"));
            h.sum = require_number(entry, "sum");
            report.histograms[name] = std::move(h);
        }
    }
    if (const Json* spans = timing->find("spans")) {
        for (const Json& entry : spans->array) {
            SpanRecord s;
            s.id = static_cast<int>(require_number(entry, "id"));
            s.parent =
                static_cast<int>(require_number(entry, "parent"));
            const Json* name = entry.find("name");
            if (!name || !name->is_string())
                throw std::runtime_error(
                    "metrics report: span without a name");
            s.name = name->string;
            s.start_ms = require_number(entry, "start_ms");
            s.wall_ms = require_number(entry, "wall_ms");
            s.cpu_ms = require_number(entry, "cpu_ms");
            s.thread = static_cast<std::uint64_t>(
                require_number(entry, "thread"));
            report.spans.push_back(std::move(s));
        }
    }
    return report;
}

std::map<std::string, double>
MetricsReport::span_totals() const
{
    std::map<std::string, double> totals;
    for (const SpanRecord& s : spans)
        totals[s.name] += s.wall_ms;
    return totals;
}

void
write_report_file(const MetricsReport& report, const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write metrics report '" +
                                 path + "'");
    out << report.to_json();
    if (!out)
        throw std::runtime_error("short write to '" + path + "'");
}

// ---- regression diffing ----------------------------------------------

namespace {

bool
within_counter_tol(double base, double cur, double rel_tol)
{
    if (base == cur)
        return true;
    return std::fabs(cur - base) <= rel_tol * std::fabs(base);
}

bool
time_regressed(double base, double cur, const DiffOptions& options)
{
    return cur > base * (1.0 + options.time_rel_tol) +
                     options.time_abs_slack_ms;
}

} // namespace

std::vector<Regression>
diff_reports(const MetricsReport& baseline,
             const MetricsReport& current, const DiffOptions& options)
{
    std::vector<Regression> out;

    for (const auto& [name, base] : baseline.counters) {
        auto it = current.counters.find(name);
        if (it == current.counters.end()) {
            out.push_back({"counter:" + name,
                           static_cast<double>(base), 0.0,
                           "counter missing from current report"});
            continue;
        }
        if (!within_counter_tol(static_cast<double>(base),
                                static_cast<double>(it->second),
                                options.counter_rel_tol)) {
            out.push_back({"counter:" + name,
                           static_cast<double>(base),
                           static_cast<double>(it->second),
                           "deterministic counter drifted"});
        }
    }
    for (const auto& [name, cur] : current.counters) {
        if (!baseline.counters.count(name)) {
            out.push_back({"counter:" + name, 0.0,
                           static_cast<double>(cur),
                           "counter absent from baseline"});
        }
    }

    if (options.counters_only)
        return out;

    std::map<std::string, double> base_spans = baseline.span_totals();
    std::map<std::string, double> cur_spans = current.span_totals();
    for (const auto& [name, base_ms] : base_spans) {
        auto it = cur_spans.find(name);
        if (it == cur_spans.end())
            continue; // a span disappearing is a shape change the
                      // counter diff already surfaces
        if (time_regressed(base_ms, it->second, options)) {
            out.push_back({"span:" + name, base_ms, it->second,
                           "wall time regressed"});
        }
    }
    return out;
}

std::vector<Regression>
diff_bench_lines(const std::string& baseline_jsonl,
                 const std::string& current_jsonl,
                 const DiffOptions& options)
{
    struct Line {
        std::string key;
        Json value;
    };
    auto parse_lines = [](const std::string& text) {
        std::vector<Line> lines;
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            Json v = Json::parse(line);
            std::string key;
            // Identity = the workload coordinates; everything else is
            // a measurement.
            for (const char* field :
                 {"bench", "classes", "threads", "run"}) {
                if (const Json* id = v.find(field)) {
                    key += field;
                    key += '=';
                    key += id->is_string() ? id->string
                                           : json_number(id->number);
                    key += ',';
                }
            }
            lines.push_back({std::move(key), std::move(v)});
        }
        return lines;
    };

    std::vector<Regression> out;
    std::vector<Line> base = parse_lines(baseline_jsonl);
    std::vector<Line> cur = parse_lines(current_jsonl);

    for (const Line& b : base) {
        const Line* match = nullptr;
        for (const Line& c : cur) {
            if (c.key == b.key) {
                match = &c;
                break;
            }
        }
        if (!match) {
            out.push_back({"bench[" + b.key + "]", 0.0, 0.0,
                           "line missing from current capture"});
            continue;
        }
        for (const auto& [field, bval] : b.value.object) {
            // Ratio columns are derived from the *_ms fields (which
            // are gated with the time tolerance themselves);
            // hw_threads and underprovisioned describe the capture
            // host, not the code under test; cache_hits depends on
            // the store's eviction history -- all of them vary freely
            // across machines.
            bool is_ratio =
                field == "speedup_vs_serial" ||
                (field.size() > 8 &&
                 field.compare(field.size() - 8, 8, "_speedup") == 0);
            if (is_ratio || field == "hw_threads" ||
                field == "underprovisioned" || field == "cache_hits")
                continue;
            const Json* cval = match->value.find(field);
            if (!cval)
                continue; // field added/removed across revisions
            std::string name = "bench[" + b.key + "]:" + field;
            // Memory high-water marks vary run to run like wall
            // times, so both take the timing tolerance.
            const bool is_memory = field.ends_with("_mb");
            const bool is_time = field.ends_with("_ms") || is_memory;
            if (bval.kind == Json::Kind::Bool &&
                cval->kind == Json::Kind::Bool) {
                if (bval.boolean != cval->boolean)
                    out.push_back({name, bval.boolean ? 1.0 : 0.0,
                                   cval->boolean ? 1.0 : 0.0,
                                   "boolean flag flipped"});
            } else if (bval.is_number() && cval->is_number()) {
                if (is_time) {
                    if (!options.counters_only &&
                        time_regressed(bval.number, cval->number,
                                       options))
                        out.push_back({name, bval.number,
                                       cval->number,
                                       is_memory
                                           ? "memory regressed"
                                           : "wall time regressed"});
                } else if (!within_counter_tol(
                               bval.number, cval->number,
                               options.counter_rel_tol)) {
                    out.push_back({name, bval.number, cval->number,
                                   "deterministic field drifted"});
                }
            }
        }
    }
    return out;
}

std::vector<Regression>
peak_rss_violations(const std::string& jsonl, double max_mb)
{
    std::vector<Regression> out;
    std::istringstream in(jsonl);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find('{') == std::string::npos)
            continue;
        const Json v = Json::parse(line);
        const std::string name =
            "line " + std::to_string(lineno) + ":peak_rss_mb";
        const Json* rss = v.find("peak_rss_mb");
        if (!rss || !rss->is_number())
            out.push_back({name, max_mb, 0.0, "no peak_rss_mb field"});
        else if (!(rss->number <= max_mb))
            out.push_back(
                {name, max_mb, rss->number, "peak RSS above the bound"});
    }
    return out;
}

} // namespace rock::obs
