/*
 * SIGPROF stack sampler, loaded into a process with LD_PRELOAD by
 * scripts/profile.sh.
 *
 * At load it arms setitimer(ITIMER_PROF): every PROFILE_PERIOD_US
 * microseconds of CPU time (default 1000) the process takes a SIGPROF, and
 * the handler records the interrupted program counter and a backtrace(3)
 * into a fixed buffer (no allocation, no lock). At exit it writes
 * /proc/self/maps and then one line per sample, hex addresses innermost
 * first, to the file named by PROFILE_OUT. Without PROFILE_OUT it does
 * nothing.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_FRAMES 64
#define MAX_SAMPLES 100000

struct sample {
    int depth;
    void *pc;
    void *frames[MAX_FRAMES];
};

static struct sample samples[MAX_SAMPLES];
static atomic_int taken;
static atomic_int dropped;
static const char *out_path;

static void *interrupted_pc(void *uc) {
    ucontext_t *ctx = uc;
#if defined(__x86_64__)
    return (void *)ctx->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (void *)ctx->uc_mcontext.pc;
#else
    (void)ctx;
    return NULL;
#endif
}

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    int i = atomic_fetch_add(&taken, 1);
    if (i >= MAX_SAMPLES) {
        atomic_fetch_add(&dropped, 1);
        return;
    }
    samples[i].pc = interrupted_pc(uc);
    samples[i].depth = backtrace(samples[i].frames, MAX_FRAMES);
}

static void dump(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    FILE *out = fopen(out_path, "w");
    if (!out) {
        perror("profile: PROFILE_OUT");
        return;
    }
    fputs("# maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fputs(line, out);
        }
        fclose(maps);
    }
    int n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        n = MAX_SAMPLES;
    }
    fprintf(out, "# samples %d dropped %d\n", n, atomic_load(&dropped));
    for (int i = 0; i < n; i++) {
        fprintf(out, "%p", samples[i].pc);
        /* The frames up to and including the interrupted pc are the
         * handler and the signal trampoline: the script drops them. */
        for (int f = 0; f < samples[i].depth; f++) {
            fprintf(out, " %p", samples[i].frames[f]);
        }
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    out_path = getenv("PROFILE_OUT");
    if (!out_path) {
        return;
    }
    /* backtrace(3) loads the unwinder on its first call, which is not
     * safe inside a signal handler: make that call here. */
    void *warm[2];
    backtrace(warm, 2);
    atexit(dump);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *period = getenv("PROFILE_PERIOD_US");
    long us = period ? atol(period) : 1000;
    if (us <= 0) {
        us = 1000;
    }
    struct itimerval every;
    every.it_interval.tv_sec = us / 1000000;
    every.it_interval.tv_usec = us % 1000000;
    every.it_value = every.it_interval;
    setitimer(ITIMER_PROF, &every, NULL);
}
