#include "base/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace genesis {

std::optional<long long>
parseInt64(const char *text)
{
    // strtoll skips leading whitespace; strictness requires the string
    // to start with the number itself.
    if (std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return value;
}

std::optional<double>
parseDouble(const char *text)
{
    if (std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

EnvInt
parseEnvInt(const char *name)
{
    EnvInt result;
    const char *env = std::getenv(name);
    if (!env || !*env)
        return result;
    result.present = true;
    if (std::optional<long long> value = parseInt64(env)) {
        result.valid = true;
        result.value = *value;
    }
    return result;
}

long long
envInt64(const char *name, long long fallback, long long min_value,
         long long max_value)
{
    EnvInt parsed = parseEnvInt(name);
    if (!parsed.present)
        return fallback;
    if (!parsed.valid) {
        warn("%s='%s' is not an integer; using %lld", name,
             std::getenv(name), fallback);
        return fallback;
    }
    if (parsed.value < min_value || parsed.value > max_value) {
        warn("%s=%lld is out of range [%lld, %lld]; using %lld", name,
             parsed.value, min_value, max_value, fallback);
        return fallback;
    }
    return parsed.value;
}

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    if (!env || !*env || std::strcmp(env, "0") == 0)
        return false;
    if (std::strcmp(env, "1") != 0)
        warn("%s='%s' is not 0 or 1; treating it as 1", name, env);
    return true;
}

} // namespace genesis
