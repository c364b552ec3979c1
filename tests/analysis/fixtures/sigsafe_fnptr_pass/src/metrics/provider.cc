// Fixture: the same function-pointer stats provider as
// sigsafe_fnptr_flag, annotated the same way, but the provider renders
// its digits into the caller's buffer by hand: MSW-SIGNAL-SAFE follows
// the annotated edge and must stay clean.
#include <csignal>
#include <unistd.h>

namespace {

using StatsFn = int (*)(char* buf, unsigned long len);

StatsFn g_provider = nullptr;

int
format_stats(char* buf, unsigned long len)
{
    const char text[] = "sweeps=3\n";
    unsigned long n = 0;
    while (n + 1 < sizeof(text) && n < len) {
        buf[n] = text[n];
        ++n;
    }
    return static_cast<int>(n);
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
