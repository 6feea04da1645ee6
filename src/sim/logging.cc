#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace tmsim {

namespace {

std::string
vstrfmt(const char* fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

/** The active context of this host thread (nullptr → process default).
 *  Thread-local so concurrent campaign workers never share routing. */
thread_local LogContext* activeCtx = nullptr;

void
emit(const char* level, const std::string& msg)
{
    const LogContext& ctx = currentLogContext();
    if (ctx.sink) {
        ctx.sink(level, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n", level, msg.c_str());
}

} // namespace

LogContext&
defaultLogContext()
{
    static LogContext ctx;
    return ctx;
}

LogContext&
currentLogContext()
{
    return activeCtx ? *activeCtx : defaultLogContext();
}

LogContext
LogContext::inherit()
{
    return currentLogContext();
}

LogScope::LogScope(LogContext& ctx) : prev(activeCtx)
{
    activeCtx = &ctx;
}

LogScope::~LogScope()
{
    activeCtx = prev;
}

std::string
strfmt(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    const LogContext& ctx = currentLogContext();
    if (ctx.onFatal)
        ctx.onFatal();
    if (ctx.throwOnFatal)
        throw FatalError(s);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char* fmt, ...)
{
    if (currentLogContext().quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    emit("warn", s);
}

void
inform(const char* fmt, ...)
{
    if (currentLogContext().quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    emit("info", s);
}

} // namespace tmsim
