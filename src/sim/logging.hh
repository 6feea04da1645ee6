/**
 * @file
 * gem5-style diagnostics: panic() for simulator bugs, fatal() for user
 * errors, warn()/inform() for status messages.
 *
 * Routing is context-based so independent machines can run on
 * concurrent host threads without sharing mutable state. Every thread
 * has a current LogContext (installed with LogScope, defaulting to the
 * process-wide context); warn()/inform() consult its quiet flag and
 * sink, and fatal() either exits (interactive tools, the historical
 * behaviour) or throws FatalError when the context traps fatals (a
 * campaign worker must cancel its pool, not exit() the process
 * mid-merge). panic() always aborts: it flags a simulator bug and a
 * core dump is the most useful artefact.
 */

#ifndef TMSIM_SIM_LOGGING_HH
#define TMSIM_SIM_LOGGING_HH

#include <cstdarg>
#include <functional>
#include <stdexcept>
#include <string>

namespace tmsim {

/** Thrown by fatal() instead of exiting when the current LogContext
 *  has throwOnFatal set (campaign workers, tests). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Per-machine / per-thread diagnostic routing. A context is plain
 * data; it is activated for the calling thread by a LogScope. Nested
 * scopes shadow outer ones (Machine::run() installs the machine's own
 * context for the duration of the run), and a freshly constructed
 * context inherits nothing — callers that want inheritance copy the
 * current context explicitly (see LogContext::inherit()).
 */
class LogContext
{
  public:
    /** Sink for one formatted diagnostic line. @p level is "warn" or
     *  "info". Only consulted when set; the default is stderr. */
    using Sink = std::function<void(const char* level,
                                    const std::string& msg)>;

    /** Suppress warn()/inform() routed through this context. */
    bool quiet = false;

    /** fatal() throws FatalError instead of printing + exit(1). */
    bool throwOnFatal = false;

    /** Optional capture sink for warn()/inform() (quiet still wins). */
    Sink sink;

    /** Optional hook fatal() calls on the failing thread before it
     *  throws or exits: a campaign pool raises its cancel flag here,
     *  so no worker claims another job while the error unwinds. */
    std::function<void()> onFatal;

    /** A context copying the calling thread's current quiet /
     *  throwOnFatal / sink / onFatal settings (how Machine picks up a
     *  campaign worker's configuration at construction time). */
    static LogContext inherit();
};

/**
 * RAII activation of a LogContext for the calling thread. The context
 * must outlive the scope. Scopes nest; destruction restores the
 * previously active context.
 */
class LogScope
{
  public:
    explicit LogScope(LogContext& ctx);
    ~LogScope();

    LogScope(const LogScope&) = delete;
    LogScope& operator=(const LogScope&) = delete;

  private:
    LogContext* prev;
};

/** The calling thread's active context (the process-wide default
 *  context when no LogScope is live on this thread). */
LogContext& currentLogContext();

/** The process-wide fallback context. Tools and benches set its
 *  quiet flag once at startup; campaign workers scope their own
 *  LogContext with LogScope instead. */
LogContext& defaultLogContext();

/**
 * Abort the process with a message. Call when something happened that
 * should never happen regardless of user input: a simulator bug.
 */
[[noreturn]] void panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments). Exits the process, unless the current LogContext traps
 * fatals, in which case a FatalError carrying the formatted message is
 * thrown so the enclosing campaign/test harness can surface it.
 */
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about imperfectly modelled behaviour. */
void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Printf-style formatting into a std::string. */
std::string strfmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tmsim

#endif // TMSIM_SIM_LOGGING_HH
