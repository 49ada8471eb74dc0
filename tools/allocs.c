/* The counting half of tools/allocs.sh, which builds this file and preloads
 * it into the command it is given. ALLOCS_EVERY and ALLOCS_OUT are set on
 * the compiler's command line: the shim reads no environment variable.
 *
 * malloc, calloc and realloc are interposed and passed on to glibc's own
 * (__libc_malloc and friends, so no symbol lookup allocates). Every call is
 * counted with the bytes it asks for; every ALLOCS_EVERY-th call (over all
 * three) also keeps its stack: the return addresses from the allocator's
 * caller outwards, found by walking the frame-pointer chain and read
 * through the kernel (process_vm_readv), which returns an error where a
 * load would fault — a frame pointer is whatever the code below left in
 * rbp. At exit the counts, a copy of /proc/self/maps and the kept stacks go
 * to ALLOCS_OUT.<pid> in prof.c's `map` / `sample` format, one file per
 * process, since children inherit the preload. Build the target with
 * -C force-frame-pointers=yes; build this file with -fno-omit-frame-pointer
 * (allocs.sh does), since the walk starts in its own frames. */
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/uio.h>
#include <unistd.h>

#ifndef ALLOCS_EVERY /* what allocs.sh passes by default */
#define ALLOCS_EVERY 8
#define ALLOCS_OUT "allocs.dump"
#endif

#define MAX_DEPTH 48
#define SLOT (2 + MAX_DEPTH)            /* per kept call: depth, bytes, return addresses */
#define MAX_SLOTS ((256u << 20) / (SLOT * 8)) /* 256 MiB of address space, touched as used */

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

enum { MALLOC, CALLOC, REALLOC };
static unsigned long calls[3], asked[3], every;
static uintptr_t *slots;
static unsigned long kept;
static int stopped; /* set while the dump is written: its own allocations are not counted */

/* Sixteen bytes at `fp`, or 0 if they cannot be read. */
static int frame_at(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)fp, 16};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == 16;
}

/* Keep the stack of the allocator call that called this. Its own frame is
 * skipped: the first address kept is the one the allocator returns to. */
__attribute__((noinline)) static void keep(size_t bytes) {
    unsigned long at = __atomic_fetch_add(&kept, 1, __ATOMIC_RELAXED);
    if (at >= MAX_SLOTS)
        return;
    uintptr_t *slot = &slots[at * SLOT], fp = (uintptr_t)__builtin_frame_address(0), sp = fp, frame[2];
    size_t depth = 0;
    slot[1] = bytes;
    if (!frame_at(fp, frame))
        return;
    fp = frame[0]; /* the allocator's frame */
    /* Bounded to the current stack: frames only go up from here, each
     * above the last, 8 MiB at most. */
    while (depth < MAX_DEPTH && fp >= sp && fp - sp < (8u << 20) && fp % 8 == 0 &&
           frame_at(fp, frame) && frame[1] != 0) {
        slot[2 + depth++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    slot[0] = depth;
}

static void count(int kind, size_t bytes) {
    if (__atomic_load_n(&stopped, __ATOMIC_RELAXED))
        return;
    __atomic_fetch_add(&calls[kind], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&asked[kind], bytes, __ATOMIC_RELAXED);
    if (slots && __atomic_fetch_add(&every, 1, __ATOMIC_RELAXED) % ALLOCS_EVERY == 0)
        keep(bytes);
}

void *malloc(size_t bytes) {
    count(MALLOC, bytes);
    return __libc_malloc(bytes);
}

void *calloc(size_t n, size_t size) {
    count(CALLOC, n * size);
    return __libc_calloc(n, size);
}

void *realloc(void *old, size_t bytes) {
    count(REALLOC, bytes);
    return __libc_realloc(old, bytes);
}

__attribute__((constructor)) static void allocs_start(void) {
    void *at = mmap(NULL, (size_t)MAX_SLOTS * SLOT * 8, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (at == MAP_FAILED) {
        perror("allocs: cannot map the stack buffer");
        _exit(127);
    }
    slots = at;
}

__attribute__((destructor)) static void allocs_dump(void) {
    __atomic_store_n(&stopped, 1, __ATOMIC_RELAXED);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", ALLOCS_OUT, (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) {
        perror("allocs: cannot write the dump");
        return;
    }
    fprintf(out, "calls %lu %lu %lu\nasked %lu %lu %lu\n", calls[MALLOC], calls[CALLOC],
            calls[REALLOC], asked[MALLOC], asked[CALLOC], asked[REALLOC]);
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    unsigned long n = kept < MAX_SLOTS ? kept : MAX_SLOTS;
    for (unsigned long at = 0; at < n; at++) {
        uintptr_t *slot = &slots[at * SLOT];
        fprintf(out, "bytes %lu\nsample", (unsigned long)slot[1]);
        for (size_t i = 0; i < slot[0]; i++)
            fprintf(out, " %lx", (unsigned long)slot[2 + i]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
