#include "sweep/roots.h"

#include <ucontext.h>

#include <cerrno>
#include <cstring>

#include "util/bits.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/log.h"

namespace msw::sweep {

namespace {

/** Signal used to park mutator threads for stop-the-world phases. */
constexpr int kParkSignal = SIGUSR1;

/** The calling thread's mutator record, if registered. */
thread_local MutatorThread* tls_self = nullptr;

/** Extra per-thread state the handler needs, kept out of the header. */
struct ParkControl {
    std::atomic<std::uint64_t>* resume_gen;
    std::atomic<int>* parked;
};
thread_local ParkControl tls_park{};

std::atomic<bool> g_handler_installed{false};

}  // namespace

// Out-of-line STW state (one per registry) — defined here to keep the
// header free of signal plumbing.
struct RootRegistry::StwState {
    std::atomic<std::uint64_t> resume_gen{0};
    std::atomic<int> parked{0};
};

void
RootRegistry::park_handler(int, siginfo_t*, void* ucontext)
{
    MutatorThread* self = tls_self;
    if (self == nullptr || tls_park.resume_gen == nullptr)
        return;

    // Capture the register file: a dangling pointer living only in a
    // register must still pin its allocation during the STW recheck.
    const auto* uc = static_cast<const ucontext_t*>(ucontext);
    const std::size_t n = sizeof(uc->uc_mcontext.gregs) /
                          sizeof(uc->uc_mcontext.gregs[0]);
    const std::size_t count = n < 32 ? n : 32;
    for (std::size_t i = 0; i < count; ++i)
        self->regs[i] = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[i]);
    self->num_regs = static_cast<unsigned>(count);

    const std::uint64_t gen =
        tls_park.resume_gen->load(std::memory_order_acquire);
    self->parked = true;
    tls_park.parked->fetch_add(1, std::memory_order_release);
    while (tls_park.resume_gen->load(std::memory_order_acquire) == gen)
        util::sleep_ns(50000);
    self->parked = false;
}

void
RootRegistry::install_handler()
{
    bool expected = false;
    if (g_handler_installed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_sigaction = &RootRegistry::park_handler;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        MSW_CHECK(sigaction(kParkSignal, &sa, nullptr) == 0);
    }
}

RootRegistry::RootRegistry() : stw_(new StwState) {}

RootRegistry::~RootRegistry()
{
    delete stw_;
}

void
RootRegistry::add_root(const void* base, std::size_t len)
{
    LockGuard g(lock_);
    roots_.push_back(Range{to_addr(base), len});
}

void
RootRegistry::remove_root(const void* base)
{
    LockGuard g(lock_);
    for (std::size_t i = 0; i < roots_.size(); ++i) {
        if (roots_[i].base == to_addr(base)) {
            roots_[i] = roots_.back();
            roots_.pop_back();
            return;
        }
    }
}

void
RootRegistry::register_current_thread()
{
    install_handler();
    MSW_CHECK(tls_self == nullptr);

    auto* t = new MutatorThread();
    t->handle = pthread_self();

    pthread_attr_t attr;
    MSW_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    MSW_CHECK(pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0);
    pthread_attr_destroy(&attr);
    t->stack = Range{to_addr(stack_addr), stack_size};

    tls_self = t;
    tls_park.resume_gen = &stw_->resume_gen;
    tls_park.parked = &stw_->parked;

    LockGuard g(lock_);
    threads_.push_back(t);
}

void
RootRegistry::unregister_current_thread()
{
    MutatorThread* t = tls_self;
    MSW_CHECK(t != nullptr);
    {
        LockGuard g(lock_);
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            if (threads_[i] == t) {
                threads_[i] = threads_.back();
                threads_.pop_back();
                break;
            }
        }
    }
    tls_self = nullptr;
    tls_park = ParkControl{};
    delete t;
}

// The fork hooks hold lock_ across fork(); the pairing is enforced by
// core/lifecycle, outside what the static analysis can see.
void
RootRegistry::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    lock_.lock();
}

void
RootRegistry::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    lock_.unlock();
}

void
RootRegistry::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Any stop-the-world in flight in the parent is void here: the
    // stopper and the parked threads are all gone. Pruning the dead
    // thread records is deferred to child_fixup() — freeing them here
    // would re-enter the allocator while the forking thread still holds
    // the rest of the prepare-held hierarchy.
    world_stopped_ = false;
    stw_expected_ = 0;
    // msw-relaxed(stw-park): fork-child reset; the parked threads
    // this census counted no longer exist in this process.
    stw_->parked.store(0, std::memory_order_relaxed);
    lock_.unlock();
}

void
RootRegistry::child_fixup()
{
    // Runs in the atfork child after every prepare-held lock has been
    // released; the process is single-threaded, so the deletes below may
    // safely re-enter an interposed free(). tls_self distinguishes the
    // forking thread's own record, which survives (its stack is real in
    // the child).
    MutatorThread* self = tls_self;
    LockGuard g(lock_);
    std::size_t w = 0;
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i] == self) {
            threads_[w++] = threads_[i];
        } else {
            delete threads_[i];
        }
    }
    threads_.resize(w);
}

std::vector<Range>
RootRegistry::roots() const
{
    LockGuard g(lock_);
    return roots_;
}

std::vector<Range>
RootRegistry::stacks() const
{
    LockGuard g(lock_);
    std::vector<Range> out;
    out.reserve(threads_.size());
    for (const MutatorThread* t : threads_)
        out.push_back(t->stack);
    return out;
}

std::size_t
RootRegistry::num_threads() const
{
    LockGuard g(lock_);
    return threads_.size();
}

void
RootRegistry::stop_world()
{
    lock_.lock();  // held until resume_world(): registry frozen
    MSW_CHECK(!world_stopped_);
    world_stopped_ = true;
    // msw-relaxed(stw-park): census reset before any park signal is
    // sent; the handler's release increments follow it.
    stw_->parked.store(0, std::memory_order_relaxed);

    int expected = 0;
    const pthread_t self = pthread_self();
    for (MutatorThread* t : threads_) {
        if (pthread_equal(t->handle, self))
            continue;
        MSW_CHECK(pthread_kill(t->handle, kParkSignal) == 0);
        ++expected;
    }
    stw_expected_ = expected;

    const std::uint64_t deadline = 10000;  // ms
    std::uint64_t waited_us = 0;
    while (stw_->parked.load(std::memory_order_acquire) < expected) {
        util::sleep_ns(100000);
        waited_us += 100;
        if (waited_us > deadline * 1000)
            panic("stop_world: %d of %d threads failed to park",
                  // msw-relaxed(stw-park): diagnostic read for the
                  // panic message; the acquire poll did the real work.
                  expected -
                      stw_->parked.load(std::memory_order_relaxed),
                  expected);
    }
}

void
RootRegistry::resume_world()
{
    MSW_CHECK(world_stopped_);
    stw_->resume_gen.fetch_add(1, std::memory_order_release);
    world_stopped_ = false;
    lock_.unlock();
}

std::vector<Range>
RootRegistry::roots_stw() const
{
    MSW_CHECK(world_stopped_);
    return roots_;
}

std::vector<Range>
RootRegistry::stacks_stw() const
{
    MSW_CHECK(world_stopped_);
    std::vector<Range> out;
    out.reserve(threads_.size());
    for (const MutatorThread* t : threads_)
        out.push_back(t->stack);
    return out;
}

std::vector<Range>
RootRegistry::parked_registers() const
{
    // Only valid while the world is stopped (lock_ is held by the
    // stopper, which is the caller).
    MSW_CHECK(world_stopped_);
    std::vector<Range> out;
    const pthread_t self = pthread_self();
    for (const MutatorThread* t : threads_) {
        if (pthread_equal(t->handle, self))
            continue;
        out.push_back(Range{to_addr(&t->regs[0]),
                            t->num_regs * sizeof(std::uint64_t)});
    }
    return out;
}

}  // namespace msw::sweep
