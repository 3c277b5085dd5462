#include "util/logging.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace tea {

namespace {

LogLevel g_level = LogLevel::Warn;
std::atomic<LogSinkFn> g_sink{nullptr};

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    if (LogSinkFn sink = g_sink.load(std::memory_order_acquire))
        sink(tag, msg.c_str());
}

} // namespace

void setLogLevel(LogLevel level) { g_level = level; }
LogLevel logLevel() { return g_level; }

void
setLogSink(LogSinkFn sink)
{
    g_sink.store(sink, std::memory_order_release);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrprintf(fmt, ap);
    va_end(ap);
    return out;
}

void
inform(const char *fmt, ...)
{
    if (g_level < LogLevel::Inform)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", vstrprintf(fmt, ap));
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("warn", vstrprintf(fmt, ap));
    va_end(ap);
}

void
debug(const char *fmt, ...)
{
    if (g_level < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("debug", vstrprintf(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (LogSinkFn sink = g_sink.load(std::memory_order_acquire))
        sink("fatal", msg.c_str());
    throw FatalError(msg);
}

bool
RateLimiter::allow()
{
    using clock = std::chrono::steady_clock;
    double now = std::chrono::duration<double>(
                     clock::now().time_since_epoch())
                     .count();
    return allowAt(now);
}

bool
RateLimiter::allowAt(double nowSeconds)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!primed) {
        lastSec = nowSeconds;
        primed = true;
    }
    double elapsed = std::max(0.0, nowSeconds - lastSec);
    tokens = std::min(cap, tokens + elapsed * rate);
    lastSec = nowSeconds;
    if (tokens >= 1.0) {
        tokens -= 1.0;
        return true;
    }
    ++suppressed;
    ++suppressedTotal;
    return false;
}

uint64_t
RateLimiter::suppressedAndReset()
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = suppressed;
    suppressed = 0;
    return n;
}

uint64_t
RateLimiter::totalSuppressed()
{
    std::lock_guard<std::mutex> lock(mu);
    return suppressedTotal;
}

RateLimiter &
sharedWarnLimiter()
{
    static RateLimiter limiter(5.0, 10.0);
    return limiter;
}

bool
warnLimited(const char *fmt, ...)
{
    RateLimiter &limiter = sharedWarnLimiter();
    if (!limiter.allow())
        return false;
    uint64_t dropped = limiter.suppressedAndReset();
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (dropped > 0)
        msg += strprintf("; %llu similar warnings suppressed",
                         static_cast<unsigned long long>(dropped));
    warn("%s", msg.c_str());
    return true;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (LogSinkFn sink = g_sink.load(std::memory_order_acquire))
        sink("panic", msg.c_str());
    throw PanicError(msg);
}

} // namespace tea
