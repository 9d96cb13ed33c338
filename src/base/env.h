/**
 * @file
 * Strict environment-variable parsing shared by every env knob.
 *
 * The historical pattern (std::atoll on getenv output) silently accepted
 * trailing garbage ("4x" became 4) and silently mapped unparseable text
 * to 0 (so "abc" fell back with no diagnostic). Every integer knob now
 * goes through envInt64(): a full-string strict parse that warns and
 * falls back on malformed or out-of-range input, so a typo in
 * GENESIS_SERVICE_BOARDS or GENESIS_DSE_WORKERS is loud instead of a
 * silent misconfiguration. Boolean escape hatches go through envFlag(),
 * so "0" means off everywhere instead of turning a presence-only hatch
 * on.
 */

#ifndef GENESIS_BASE_ENV_H
#define GENESIS_BASE_ENV_H

#include <cstdint>
#include <limits>
#include <optional>

namespace genesis {

/** Outcome of parsing one environment variable as an integer. */
struct EnvInt {
    /** The variable was set to a non-empty string. */
    bool present = false;
    /** The full string parsed as a (possibly signed) decimal integer. */
    bool valid = false;
    long long value = 0;
};

/**
 * Parse `text` as a strict decimal integer. The entire string must be
 * an optionally-signed decimal number — no leading whitespace, no
 * trailing characters ("4x" and " 4" are both invalid). Out-of-range
 * values are invalid. @return the value, or nullopt when invalid.
 */
std::optional<long long> parseInt64(const char *text);

/**
 * Parse `text` as a strict finite decimal floating-point number: the
 * entire string must be the number ("1.5x", "", " 1" are invalid) and
 * nan, inf and out-of-range values are invalid. @return the value, or
 * nullopt when invalid.
 */
std::optional<double> parseDouble(const char *text);

/**
 * Parse environment variable `name` with parseInt64. Never warns;
 * callers decide the policy.
 */
EnvInt parseEnvInt(const char *name);

/**
 * Read integer env knob `name` with a warn-and-fall-back policy: unset
 * or empty returns `fallback` silently; malformed input or a value
 * outside [min_value, max_value] warns (naming the variable and the
 * offending text) and returns `fallback`.
 */
long long
envInt64(const char *name, long long fallback,
         long long min_value = std::numeric_limits<long long>::min(),
         long long max_value = std::numeric_limits<long long>::max());

/**
 * Read boolean env flag `name`: unset, "" and "0" mean off; "1" means
 * on; any other value warns (naming the variable and the text) and
 * counts as on.
 */
bool envFlag(const char *name);

} // namespace genesis

#endif // GENESIS_BASE_ENV_H
