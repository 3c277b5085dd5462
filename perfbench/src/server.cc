#include "server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <iterator>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "util/logging.hh"

namespace teabench {

using namespace tea;

namespace {

/** Sum a "key:\tN" line of a /proc status file. */
uint64_t
statusField(const std::string &path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    size_t klen = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, klen, key) == 0 && line.size() > klen &&
            line[klen] == ':')
            return std::strtoull(line.c_str() + klen + 1, nullptr, 10);
    return 0;
}

/** An unused loopback TCP port (bound and released). */
uint16_t
freePort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("teabench: socket: %s", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        ::close(fd);
        fatal("teabench: cannot find a free port: %s",
              std::strerror(errno));
    }
    ::close(fd);
    return ntohs(addr.sin_port);
}

} // namespace

ProcSample
sampleProc(pid_t pid)
{
    ProcSample s;
    if (pid == 0) {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        s.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec +
                                           ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec +
                                           ru.ru_stime.tv_usec) *
                           1e-6;
        s.ctxSwitches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
        s.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return s;
    }
    std::string dir = "/proc/" + std::to_string(pid);
    {
        std::ifstream in(dir + "/stat");
        std::string stat((std::istreambuf_iterator<char>(in)), {});
        size_t close = stat.rfind(')');
        if (close != std::string::npos) {
            std::istringstream rest(stat.substr(close + 2));
            std::vector<std::string> f;
            std::string tok;
            while (rest >> tok && f.size() < 13)
                f.push_back(tok);
            if (f.size() >= 13) {
                double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
                s.cpuSeconds = (std::strtod(f[11].c_str(), nullptr) +
                                std::strtod(f[12].c_str(), nullptr)) /
                               ticks;
            }
        }
    }
    s.peakRssMb =
        static_cast<double>(statusField(dir + "/status", "VmHWM")) /
        1024.0;
    // Context switches are per task in /proc, so sum the threads.
    if (DIR *d = ::opendir((dir + "/task").c_str())) {
        while (dirent *e = ::readdir(d)) {
            if (e->d_name[0] == '.')
                continue;
            std::string st = dir + "/task/" + e->d_name + "/status";
            s.ctxSwitches += statusField(st, "voluntary_ctxt_switches") +
                             statusField(st, "nonvoluntary_ctxt_switches");
        }
        ::closedir(d);
    }
    return s;
}

HostCpu
sampleHostCpu()
{
    HostCpu h;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu; // the aggregate "cpu" line comes first
    // user nice system idle iowait irq softirq steal ...
    for (int i = 0; i < 8 && in; ++i) {
        uint64_t v = 0;
        in >> v;
        h.total += v;
        if (i == 7)
            h.steal = v;
    }
    return h;
}

ServerProc::ServerProc(const std::string &teadbt,
                       const std::string &workDir,
                       const std::vector<std::string> &args)
{
    endpoint_ = "tcp:127.0.0.1:" + std::to_string(freePort());
    std::vector<std::string> argv{teadbt, "serve", "--listen", endpoint_};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char *> cargv;
    for (std::string &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::string log = workDir + "/serve.log";

    // posix_spawn, not fork: the bench holds tens of MB of inputs, and
    // copying its page tables would be timed as server start-up. The
    // log is appended to, so repeated set-ups create no new files.
    // run.py runs the bench in its own process group and kills what is
    // left of it, so no server outlives an interrupted run.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addchdir_np(&fa, workDir.c_str());
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    int rc = ::posix_spawn(&pid_, cargv[0], &fa, nullptr, cargv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        pid_ = -1;
        fatal("teabench: cannot start %s: %s", cargv[0], std::strerror(rc));
    }
}

ServerProc::~ServerProc() { stop(); }

TeaClient
ServerProc::connect()
{
    uint64_t deadline = nowNs() + 30'000'000'000ull;
    for (;;) {
        if (!running())
            fatal("teabench: teadbt serve is not running; see serve.log");
        try {
            return TeaClient::connect(endpoint_);
        } catch (const FatalError &) {
            if (nowNs() > deadline)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool
ServerProc::running()
{
    std::lock_guard<std::mutex> lock(mu);
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_)
        pid_ = -1;
    return pid_ > 0;
}

pid_t
ServerProc::pid()
{
    std::lock_guard<std::mutex> lock(mu);
    return pid_;
}

void
ServerProc::stop()
{
    std::lock_guard<std::mutex> lock(mu);
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    uint64_t deadline = nowNs() + 10'000'000'000ull;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (nowNs() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

double
statsCounter(const std::string &json, const std::string &name)
{
    size_t at = json.find("\"" + name + "\"");
    if (at == std::string::npos)
        return 0.0;
    at = json.find(':', at);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + at + 1, nullptr);
}

std::vector<double>
statsSpans(const std::string &json, const std::string &phase)
{
    std::vector<double> out;
    const std::string want = "\"" + phase + "\"";
    size_t at = 0;
    while ((at = json.find("\"phase\"", at)) != std::string::npos) {
        at = json.find(':', at);
        if (at == std::string::npos)
            break;
        size_t v = json.find_first_not_of(" \t\n", at + 1);
        bool match = v != std::string::npos &&
                     json.compare(v, want.size(), want) == 0;
        size_t dur = json.find("\"durNs\"", at);
        if (dur == std::string::npos)
            break;
        dur = json.find(':', dur);
        if (match && dur != std::string::npos)
            out.push_back(std::strtod(json.c_str() + dur + 1, nullptr));
        at = dur;
    }
    return out;
}

} // namespace teabench
