/**
 * @file
 * Status and error reporting for the TEA library.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (library bugs), fatal() for user errors (bad input programs, bad
 * configuration). Unlike gem5 both throw exceptions instead of aborting so
 * that a host application (and the test suite) can recover.
 */

#ifndef TEA_UTIL_LOGGING_HH
#define TEA_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace tea {

/** Exception thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity threshold (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global verbosity threshold. */
LogLevel logLevel();

/**
 * A tee for every emitted log line (and for the messages fatal() and
 * panic() are about to throw). The flight recorder (obs/flightrec.hh)
 * installs one to keep the last K lines in its preallocated black
 * box. A plain function pointer, deliberately: installation is a
 * relaxed atomic store, the call adds no allocation or lock to the
 * logging path, and there is exactly one consumer by design. Pass
 * nullptr to detach. The sink sees exactly what stderr sees (the
 * verbosity threshold applies first), plus every fatal/panic message.
 */
using LogSinkFn = void (*)(const char *tag, const char *msg);
void setLogSink(LogSinkFn sink);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Informative message; shown at LogLevel::Inform and above. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Warning message; shown at LogLevel::Warn and above. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Debug message; shown only at LogLevel::Debug. */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report a user error and throw FatalError.
 * Use for conditions caused by the caller (bad program, bad config).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a library bug and throw PanicError.
 * Use for conditions that can never happen unless the library is broken.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Token-bucket limiter for repetitive log messages, so a flapping
 * client (one reconnecting and getting evicted in a loop, say) cannot
 * flood the log. The bucket holds up to `burst` tokens and refills at
 * `ratePerSec`; each allowed message costs one token. Thread-safe: the
 * server's eviction path calls it from every session worker.
 *
 * Denied messages are counted; suppressedAndReset() lets the next
 * allowed message report how many were dropped, so the log never
 * silently loses information — it loses only repetition.
 */
class RateLimiter
{
  public:
    RateLimiter(double ratePerSec, double burst)
        : rate(ratePerSec), cap(burst), tokens(burst)
    {
    }

    /** Spend a token if one is available (refilled from the wall clock). */
    bool allow();

    /**
     * Clock-explicit variant: `nowSeconds` on any monotonic axis.
     * allow() delegates here with steady_clock time; tests drive it
     * with a synthetic clock for determinism.
     */
    bool allowAt(double nowSeconds);

    /** Messages denied since the last call; resets the counter. */
    uint64_t suppressedAndReset();

    /**
     * Messages denied since construction (monotonic — unaffected by
     * suppressedAndReset()). Exported as the `log.suppressed` metric so
     * dropped log lines are visible, not silently gone.
     */
    uint64_t totalSuppressed();

  private:
    std::mutex mu;
    double rate;        ///< tokens per second
    double cap;         ///< bucket capacity (burst)
    double tokens;      ///< current balance
    double lastSec = 0; ///< last refill time
    bool primed = false;
    uint64_t suppressed = 0;
    uint64_t suppressedTotal = 0;
};

/**
 * The process-wide limiter for repetitive warnings. Every spammy warn
 * path — server eviction warnings, thread-pool task failures, the
 * slow-request trace log — draws from this one bucket, so a flood on
 * any of them throttles them all and the total drop count is one
 * number (burst 10, then at most 5/s).
 */
RateLimiter &sharedWarnLimiter();

/**
 * warn() through sharedWarnLimiter(): dropped (and counted) when the
 * bucket is empty; otherwise emitted with "; N similar warnings
 * suppressed" appended when N warnings were dropped since the last one
 * it let through. Every spammy warn path uses this, so no drop count is
 * ever lost. Returns whether the warning was emitted.
 */
bool warnLimited(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** assert-like helper that panics with a message when cond is false. */
#define TEA_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            ::tea::panic("assertion '" #cond "' failed: " __VA_ARGS__);     \
    } while (0)

} // namespace tea

#endif // TEA_UTIL_LOGGING_HH
