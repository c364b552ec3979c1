// Fixture: a SIGUSR2 handler reaches its stats provider only through a
// function pointer, which the call graph cannot resolve. The call-site
// annotation names the provider, and the provider formats with
// snprintf, so MSW-SIGNAL-SAFE must flag it. Without the annotation's
// edge the handler looks clean.
#include <csignal>
#include <unistd.h>

#include <cstdio>

namespace {

using StatsFn = int (*)(char* buf, unsigned long len);

StatsFn g_provider = nullptr;

int
format_stats(char* buf, unsigned long len)
{
    return std::snprintf(buf, len, "sweeps=%d\n", 3);
}

void
usr2_handler(int sig)
{
    (void)sig;
    char buf[64];
    // msw-analyze: calls(format_stats)
    const int n = g_provider != nullptr ? g_provider(buf, sizeof(buf)) : 0;
    if (n > 0) {
        ssize_t ignored = ::write(2, buf, static_cast<unsigned long>(n));
        (void)ignored;
    }
}

}  // namespace

namespace msw::metrics {

void
install_stats_handler()
{
    g_provider = &format_stats;
    struct sigaction sa = {};
    sa.sa_handler = usr2_handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGUSR2, &sa, nullptr);
}

}  // namespace msw::metrics
