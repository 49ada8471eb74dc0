/* The counting half of tools/syscalls.sh, which builds this file and
 * preloads it into the command it is given. SYSCALLS_OUT is set on the
 * compiler's command line: the shim reads no environment variable.
 *
 * sendto, recvfrom, ppoll, mprotect, madvise, write and syscall are
 * interposed and passed on to the next definition (glibc's, found once
 * with dlsym); a `syscall` is counted only when it is a futex, which is
 * how Rust's std::sync and dsm-vm's fault slot wait and wake — a wait
 * (FUTEX_WAIT, FUTEX_WAIT_BITSET) apart from everything else, a wake.
 * Every count is kept twice: for the process's main thread, which runs
 * a cluster node's program, and for the rest, the node's serving
 * thread among them. Counting is one relaxed atomic add, and the thread
 * is told by an initial-exec thread-local cached at its first counted
 * call, so the wrappers stay async-signal-safe: dsm-vm's SIGSEGV handler
 * writes its doorbell pipe and wakes through a futex. A call glibc makes
 * from inside itself (stdio's writes) binds to its own copy and is not
 * seen; Rust's std calls each of these by its exported name.
 *
 * A line a benchmark child writes to stdout as `M ops <n>` (benchmark/
 * src/child.rs, the ops it timed) is read on its way out, so the census
 * can divide by it. At exit the counts, that op count, getrusage's user
 * and system microseconds and voluntary context switches (the main
 * thread's, and the rest of the process's) and the command line go to
 * SYSCALLS_OUT.<pid>, one file per process, since children inherit the
 * preload. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <poll.h>
#include <signal.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <linux/futex.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#ifndef SYSCALLS_OUT /* what syscalls.sh passes */
#define SYSCALLS_OUT "syscalls.dump"
#endif

enum { SENDTO, RECVFROM, PPOLL, MPROTECT, MADVISE, WRITE, FUTEX_WAITS, FUTEX_WAKES, KINDS };
static const char *const names[KINDS] = {"sendto",  "recvfrom", "ppoll",     "mprotect",
                                         "madvise", "write",    "futex_wait", "futex_wake"};
/* [0]: the main thread; [1]: every other thread. */
static unsigned long calls[2][KINDS];
static unsigned long ops;
static int have_ops;

/* 0 on the main thread, 1 elsewhere, -1 until the thread's first call. */
static __thread int other_thread __attribute__((tls_model("initial-exec"))) = -1;

static void count(int kind) {
    if (other_thread < 0)
        other_thread = gettid() != getpid();
    __atomic_fetch_add(&calls[other_thread][kind], 1, __ATOMIC_RELAXED);
}

/* The next definition of `name`, looked up once. The constructor resolves
 * every one before main, so a signal handler never reaches dlsym. */
#define NEXT(type, name)                                                                     \
    static type next_##name;                                                                 \
    static type real_##name(void) {                                                          \
        if (!next_##name)                                                                    \
            next_##name = (type)dlsym(RTLD_NEXT, #name);                                     \
        return next_##name;                                                                  \
    }

typedef ssize_t (*sendto_fn)(int, const void *, size_t, int, const struct sockaddr *, socklen_t);
typedef ssize_t (*recvfrom_fn)(int, void *, size_t, int, struct sockaddr *, socklen_t *);
typedef int (*ppoll_fn)(struct pollfd *, nfds_t, const struct timespec *, const sigset_t *);
typedef int (*mprotect_fn)(void *, size_t, int);
typedef int (*madvise_fn)(void *, size_t, int);
typedef ssize_t (*write_fn)(int, const void *, size_t);
typedef long (*syscall_fn)(long, ...);
NEXT(sendto_fn, sendto)
NEXT(recvfrom_fn, recvfrom)
NEXT(ppoll_fn, ppoll)
NEXT(mprotect_fn, mprotect)
NEXT(madvise_fn, madvise)
NEXT(write_fn, write)
NEXT(syscall_fn, syscall)

ssize_t sendto(int fd, const void *buf, size_t len, int flags, const struct sockaddr *to, socklen_t tolen) {
    count(SENDTO);
    return real_sendto()(fd, buf, len, flags, to, tolen);
}

ssize_t recvfrom(int fd, void *buf, size_t len, int flags, struct sockaddr *from, socklen_t *fromlen) {
    count(RECVFROM);
    return real_recvfrom()(fd, buf, len, flags, from, fromlen);
}

int ppoll(struct pollfd *fds, nfds_t n, const struct timespec *timeout, const sigset_t *mask) {
    count(PPOLL);
    return real_ppoll()(fds, n, timeout, mask);
}

int mprotect(void *addr, size_t len, int prot) {
    count(MPROTECT);
    return real_mprotect()(addr, len, prot);
}

int madvise(void *addr, size_t len, int advice) {
    count(MADVISE);
    return real_madvise()(addr, len, advice);
}

ssize_t write(int fd, const void *buf, size_t len) {
    count(WRITE);
    /* A benchmark child's `M ops <n>` line: at most one a process. */
    if (fd == STDOUT_FILENO && len > 6 && memcmp(buf, "M ops ", 6) == 0) {
        char digits[32];
        size_t n = len - 6 < sizeof digits - 1 ? len - 6 : sizeof digits - 1;
        memcpy(digits, (const char *)buf + 6, n);
        digits[n] = 0;
        ops = strtoul(digits, NULL, 10);
        have_ops = 1;
    }
    return real_write()(fd, buf, len);
}

/* Six argument words: as many as any Linux system call takes. */
long syscall(long number, ...) {
    va_list ap;
    long a[6];
    va_start(ap, number);
    for (int i = 0; i < 6; i++)
        a[i] = va_arg(ap, long);
    va_end(ap);
    if (number == SYS_futex) {
        int cmd = (int)a[1] & FUTEX_CMD_MASK;
        count(cmd == FUTEX_WAIT || cmd == FUTEX_WAIT_BITSET ? FUTEX_WAITS : FUTEX_WAKES);
    }
    return real_syscall()(number, a[0], a[1], a[2], a[3], a[4], a[5]);
}

__attribute__((constructor)) static void syscalls_start(void) {
    real_sendto();
    real_recvfrom();
    real_ppoll();
    real_mprotect();
    real_madvise();
    real_write();
    real_syscall();
}

__attribute__((destructor)) static void syscalls_dump(void) {
    char path[4096], cmd[4096] = "";
    snprintf(path, sizeof path, "%s.%d", SYSCALLS_OUT, (int)getpid());
    FILE *argv = fopen("/proc/self/cmdline", "r");
    if (argv) {
        size_t n = fread(cmd, 1, sizeof cmd - 1, argv);
        for (size_t i = 0; i < n; i++)
            if (cmd[i] == 0 || cmd[i] == '\n')
                cmd[i] = ' ';
        cmd[n] = 0;
        fclose(argv);
    }
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("syscalls: cannot write the dump");
        return;
    }
    fprintf(out, "pid %d\ncmd %s\n", (int)getpid(), cmd);
    if (have_ops)
        fprintf(out, "ops %lu\n", ops);
    for (int k = 0; k < KINDS; k++)
        fprintf(out, "calls %s %lu %lu\n", names[k],
                __atomic_load_n(&calls[0][k], __ATOMIC_RELAXED),
                __atomic_load_n(&calls[1][k], __ATOMIC_RELAXED));
    /* The process's usage, exited threads included, less the main
     * thread's own: the destructor runs on the thread that called exit. */
    struct rusage all, self = {0};
    int main_thread = gettid() == getpid();
    if (getrusage(RUSAGE_SELF, &all) == 0 && (!main_thread || getrusage(RUSAGE_THREAD, &self) == 0)) {
        long us[2][2] = {{self.ru_utime.tv_sec * 1000000L + self.ru_utime.tv_usec,
                          self.ru_stime.tv_sec * 1000000L + self.ru_stime.tv_usec},
                         {all.ru_utime.tv_sec * 1000000L + all.ru_utime.tv_usec,
                          all.ru_stime.tv_sec * 1000000L + all.ru_stime.tv_usec}};
        fprintf(out, "usage user_us %ld %ld\n", us[0][0], us[1][0] - us[0][0]);
        fprintf(out, "usage sys_us %ld %ld\n", us[0][1], us[1][1] - us[0][1]);
        fprintf(out, "usage vol_cs %ld %ld\n", self.ru_nvcsw, all.ru_nvcsw - self.ru_nvcsw);
    }
    fclose(out);
}
