#include "report.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <utility>

namespace perfbench {

void
Report::add(std::string name, double value, std::string unit,
            std::string note)
{
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
}

const Metric*
Report::find(const std::string& name) const
{
    for (const Metric& m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

void
Report::fail(const std::string& why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Tail
latency_tail(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    if (n < 2 * kTailMinBeyond)
        return {};
    // Nearest rank: percentile 100 (n - k) / n has exactly n - k
    // samples at or below it and k beyond; any higher one has fewer.
    const std::size_t at_or_below = n - kTailMinBeyond;
    std::sort(samples.begin(), samples.end());
    return {true,
            100.0 * static_cast<double>(at_or_below) / static_cast<double>(n),
            samples[at_or_below - 1], kTailMinBeyond};
}

std::string
format_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::array<char, 64> buf{};
    auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    if (ec != std::errc())
        return "null";
    return std::string(buf.data(), end);
}

std::string
json_line(const Report& report)
{
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& m = report.metrics[i];
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " +
               format_number(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
    }
    out += "}}";
    return out;
}

void
print_report(const Report& report, std::FILE* out, std::FILE* diagnostics)
{
    for (const std::string& why : report.failures)
        std::fprintf(diagnostics, "FAILED: %s\n", why.c_str());
    for (const Metric& m : report.metrics) {
        std::fprintf(out, "%s = %s %s%s%s%s\n", m.name.c_str(),
                     format_number(m.value).c_str(), m.unit.c_str(),
                     m.note.empty() ? "" : " (", m.note.c_str(),
                     m.note.empty() ? "" : ")");
    }
    std::fprintf(out, "%s\n", json_line(report).c_str());
    std::fflush(out);
}

} // namespace perfbench
