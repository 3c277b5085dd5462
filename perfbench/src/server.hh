/**
 * @file
 * The `teadbt serve` subprocess the remote workloads measure, and the
 * /proc readings taken of it.
 */

#ifndef TEABENCH_SERVER_HH
#define TEABENCH_SERVER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

#include "net/client.hh"

namespace teabench {

/** CPU, scheduling and memory readings of one process. */
struct ProcSample
{
    double cpuSeconds = 0;    ///< utime + stime of every thread
    uint64_t ctxSwitches = 0; ///< voluntary + involuntary, all threads
    double peakRssMb = 0;     ///< VmHWM
};

/** Read /proc/<pid>; pid 0 means this process. */
ProcSample sampleProc(pid_t pid);

/** Host-wide CPU time from /proc/stat, in clock ticks. */
struct HostCpu
{
    uint64_t total = 0;
    uint64_t steal = 0; ///< taken by the hypervisor from this guest
};

HostCpu sampleHostCpu();

/**
 * `teadbt serve --listen tcp:127.0.0.1:<free port> <args>` as a child
 * process, started in `workDir` with its output appended to
 * `workDir/serve.log`.
 * Only the flags a user would pass are given: no core selection, so
 * the product's default core is what gets measured.
 */
class ServerProc
{
  public:
    ServerProc(const std::string &teadbt, const std::string &workDir,
               const std::vector<std::string> &args);
    ~ServerProc();

    ServerProc(const ServerProc &) = delete;
    ServerProc &operator=(const ServerProc &) = delete;

    /**
     * Connect once the server accepts (retrying while it starts).
     * @throws FatalError when it exits or is not up within 30 s
     */
    tea::TeaClient connect();

    /** The child's pid, or -1 once it has exited. */
    pid_t pid();

    /** SIGTERM, then wait (SIGKILL after 10 s). Idempotent. */
    void stop();

  private:
    /** Reap the child if it exited; true while it runs. */
    bool running();

    std::mutex mu; ///< guards pid_: client threads reconnect concurrently
    pid_t pid_ = -1;
    std::string endpoint_;
};

/** Pull one counter's value out of a STATS JSON report (0 if absent). */
double statsCounter(const std::string &json, const std::string &name);

/** durNs of every span of `phase` in a STATS JSON report. */
std::vector<double> statsSpans(const std::string &json,
                               const std::string &phase);

} // namespace teabench

#endif // TEABENCH_SERVER_HH
