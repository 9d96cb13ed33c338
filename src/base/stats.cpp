#include "base/stats.h"

#include <sstream>

namespace genesis {

StatRegistry::Counter
StatRegistry::counter(const std::string &name)
{
    // std::map nodes are address-stable, so the handle is simply a
    // pointer to the mapped value.
    return &counters_[name];
}

void
StatRegistry::add(const std::string &name, uint64_t delta)
{
    counters_[name] += delta;
}

void
StatRegistry::set(const std::string &name, uint64_t value)
{
    counters_[name] = value;
}

uint64_t
StatRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
}

void
StatRegistry::snapshot(std::vector<Sample> &out)
{
    for (auto &[name, value] : counters_)
        out.emplace_back(&value, value);
}

void
StatRegistry::creditDelta(std::span<const Sample> samples, uint64_t times)
{
    auto credit = [times](uint64_t &value, uint64_t before) {
        if (value > before)
            value += (value - before) * times;
    };
    if (samples.size() == counters_.size()) {
        for (auto [counter, before] : samples)
            credit(*counter, before);
        return;
    }
    // Counters created since the snapshot sit between the sampled ones
    // in name order (matched by node address) and count from 0.
    auto it = samples.begin();
    for (auto &[name, value] : counters_) {
        const bool sampled = it != samples.end() && it->first == &value;
        credit(value, sampled ? (it++)->second : 0);
    }
}

std::string
StatRegistry::report(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, value] : counters_)
        os << prefix << name << " = " << value << "\n";
    return os.str();
}

std::string
formatBytes(double bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (bytes >= 1024.0 && unit < 4) {
        bytes /= 1024.0;
        ++unit;
    }
    std::ostringstream os;
    os.precision(unit == 0 ? 0 : 2);
    os << std::fixed << bytes << " " << units[unit];
    return os.str();
}

std::string
formatSeconds(double seconds)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    if (seconds >= 1.0)
        os << seconds << " s";
    else if (seconds >= 1e-3)
        os << seconds * 1e3 << " ms";
    else
        os << seconds * 1e6 << " us";
    return os.str();
}

} // namespace genesis
