/**
 * @file
 * perfbench_spawn: run one command and report its wall time, exit
 * code, peak resident memory and CPU time.
 *
 *   perfbench_spawn <result-file> <limit-seconds> <command> [args...]
 *
 * Writes "<wall seconds> <exit code> <peak RSS KiB> <user seconds>
 * <system seconds>" to the result file. User and system time are
 * summed over all of the command's threads; on a virtual machine the
 * kernel leaves time stolen by the host out of them, which wall time
 * includes.
 * Linux carries a process's peak RSS across exec, so a command
 * started straight from the benchmark's Python process would report
 * at least the interpreter's own footprint; started from this small
 * program it reports its own. A command still running after the
 * limit is killed and reported with exit code 128 + SIGKILL.
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

volatile pid_t child = 0;

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

void
onAlarm(int)
{
    if (child > 0)
        kill(child, SIGKILL);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: perfbench_spawn <result-file> "
                             "<limit-seconds> <command> [args...]\n");
        return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[3], argv + 3);
        std::perror("perfbench_spawn: exec");
        _exit(127);
    }
    child = pid;
    std::signal(SIGALRM, onAlarm);
    alarm(static_cast<unsigned>(std::atoi(argv[2])));

    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench_spawn: wait4");
            return 2;
        }
    }
    alarm(0);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);

    FILE *f = std::fopen(argv[1], "w");
    if (!f) {
        std::perror("perfbench_spawn: result file");
        return 2;
    }
    std::fprintf(f, "%.9f %d %ld %.6f %.6f\n", wall, code, usage.ru_maxrss,
                 seconds(usage.ru_utime), seconds(usage.ru_stime));
    return std::fclose(f) == 0 ? 0 : 2;
}
