/* The sampling half of tools/prof.sh, which builds this file and preloads
 * it into the command it is given. PROF_USEC and PROF_OUT are set on the
 * compiler's command line: the shim reads no environment variable.
 *
 * A CLOCK_MONOTONIC timer sends SIGPROF to the thread that loaded the
 * shim (the main thread, where `Sim::run` and all its coroutines run)
 * every PROF_USEC microseconds. (A CPU-time timer would fire on scheduler
 * ticks only, every 4 ms.) A tick is dropped if the thread has run for
 * less than half the time since the last one: a process blocked in a wait,
 * as the benchmark's driver is while its children work, adds no samples
 * to tables that merge every process. Otherwise the handler keeps the
 * interrupted instruction, the word at the stack pointer (where a
 * frameless leaf such as libc's memcpy has its return address; the
 * symbolizer decides whether it is one) and the return addresses of the
 * frame-pointer chain; at exit they are written, below a copy of
 * /proc/self/maps, to
 * PROF_OUT.<pid> — one file per process, since children inherit the
 * preload. Build the target with -C force-frame-pointers=yes. A coroutine
 * stack ends the walk by itself (its first frame's saved rbp is 0). */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef PROF_USEC /* what prof.sh passes by default */
#define PROF_USEC 1000
#define PROF_OUT "prof.samples"
#endif

#define MAX_DEPTH 48 /* the instruction, the word at the stack pointer, the chain */
#define MAX_WORDS (16u << 20) /* 128 MiB of address space, touched as used */

static uintptr_t *words; /* per sample: depth, then that many words */
static size_t used;
static timer_t timer;
static int64_t ran_ns; /* the thread's CPU time at the last tick */

/* Sixteen bytes at `fp`, or 0 if they cannot be read: a frame pointer is
 * whatever the interrupted code left in rbp, so it is read through the
 * kernel, which returns an error where a load would fault. */
static int frame_at(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)fp, 16};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == 16;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    int saved_errno = errno;
    greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t fp = regs[REG_RBP], sp = regs[REG_RSP], frame[2];
    struct timespec cpu;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    int64_t now_ns = cpu.tv_sec * 1000000000LL + cpu.tv_nsec, since_ns = now_ns - ran_ns;
    ran_ns = now_ns;
    if (since_ns >= PROF_USEC * 500LL && used + 1 + MAX_DEPTH <= MAX_WORDS) {
        uintptr_t *sample = &words[used];
        size_t depth = 0;
        sample[++depth] = regs[REG_RIP];
        sample[++depth] = frame_at(sp, frame) ? frame[0] : 0;
        /* Bounded to the current stack: frames only go up from the
         * interrupted stack pointer, each above the last, 8 MiB at most. */
        while (depth < MAX_DEPTH && fp >= sp && fp - sp < (8u << 20) && fp % 8 == 0 &&
               frame_at(fp, frame) && frame[1] != 0) {
            sample[++depth] = frame[1];
            if (frame[0] <= fp)
                break;
            fp = frame[0];
        }
        sample[0] = depth;
        used += 1 + depth;
    }
    errno = saved_errno;
}

__attribute__((constructor)) static void prof_start(void) {
    words = calloc(MAX_WORDS, sizeof *words); /* zero pages: untouched until used */
    struct sigaction act = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct sigevent event = {.sigev_notify = SIGEV_THREAD_ID, .sigev_signo = SIGPROF};
    event._sigev_un._tid = syscall(SYS_gettid);
    struct itimerspec every = {{0, PROF_USEC * 1000L}, {0, PROF_USEC * 1000L}};
    if (!words || sigaction(SIGPROF, &act, NULL) || timer_create(CLOCK_MONOTONIC, &event, &timer) ||
        timer_settime(timer, 0, &every, NULL)) {
        perror("prof: cannot start sampling");
        _exit(127);
    }
}

__attribute__((destructor)) static void prof_dump(void) {
    timer_delete(timer);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", PROF_OUT, (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) {
        perror("prof: cannot write samples");
        return;
    }
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    for (size_t at = 0; at < used; at += 1 + words[at]) {
        fprintf(out, "sample %lx @%lx", (unsigned long)words[at + 1], (unsigned long)words[at + 2]);
        for (size_t i = 3; i <= words[at]; i++)
            fprintf(out, " %lx", (unsigned long)words[at + i]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
