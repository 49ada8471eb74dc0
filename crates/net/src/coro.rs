//! Stackful coroutines on the calling thread, over a hand-written
//! x86-64 System V context switch: all but one `unsafe` of this crate.
//!
//! A [`Coros`] is a fixed set of coroutines, one mapped stack each, and
//! the *root*: whoever called [`Coros::run`]. One of them runs at any
//! instant and control moves only where [`Coros::switch`] sends it (a
//! body that returns resumes the root). A switch saves the registers the
//! ABI leaves to the callee on the parked stack, stores that stack's
//! pointer in the parked context and loads the target's: a dozen
//! instructions, no system call, no futex, no kernel scheduler.
//! Bodies may borrow from the caller's frame on `thread::scope`'s terms:
//! `run` does not return until every body has returned or never started.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::global_asm;
use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("dsm-net's coroutine switch is written for x86_64 Linux (System V ABI) only");

// `dsm_coro_switch(parked, to)` pushes what the ABI leaves to the callee
// (`rbp rbx r12-r15`, and MXCSR and the x87 control word, so a program's
// rounding mode stays its own as it did on a thread), stores the stack
// pointer in `*parked`, and pops the same off `to`: a pointer stored this
// way, or to the frame `Stack::seed` writes. That one "returns" to
// `dsm_coro_trampoline` with `enter`'s argument in `r12` and `rbp` zero,
// which ends a frame-pointer walk as `.cfi_undefined rip` ends an unwinder's.
global_asm!(
    ".pushsection .text.dsm_coro,\"ax\",@progbits",
    ".globl dsm_coro_switch, dsm_coro_trampoline",
    ".hidden dsm_coro_switch, dsm_coro_trampoline",
    ".type dsm_coro_switch,@function",
    ".type dsm_coro_trampoline,@function",
    "dsm_coro_switch:",
    "    push rbp; push rbx; push r12; push r13; push r14; push r15",
    "    sub rsp, 8; stmxcsr [rsp]; fnstcw [rsp + 4]",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    ldmxcsr [rsp]; fldcw [rsp + 4]; add rsp, 8",
    "    pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
    "    ret",
    ".size dsm_coro_switch, . - dsm_coro_switch",
    "dsm_coro_trampoline:",
    "    .cfi_startproc; .cfi_undefined rip",
    "    mov rdi, r12; call {enter}; ud2",
    "    .cfi_endproc",
    ".size dsm_coro_trampoline, . - dsm_coro_trampoline",
    ".popsection",
    enter = sym enter,
);

extern "C" {
    fn dsm_coro_switch(parked: *mut *mut u8, to: *mut u8);
    fn dsm_coro_trampoline();
}

/// The frame `dsm_coro_switch` pops, lowest address first: MXCSR and the
/// x87 control word in one word, `r15 r14 r13 r12 rbx rbp`, where to return.
const FRAME_WORDS: usize = 8;
/// What a new thread has in that first word: the power-on MXCSR (every
/// exception masked, round to nearest) below the control word `finit` sets.
const FRESH_FP_CONTROL: u64 = (0x037F << 32) | 0x1F80;

/// `std::thread`'s default, which programs ran on before. Address space
/// only (`MAP_NORESERVE`) until touched.
const STACK_BYTES: usize = 2 << 20;
/// One page of x86_64, the only target the vendored `libc` declares.
const GUARD_BYTES: usize = 4096;

/// A mapped stack whose lowest page is `PROT_NONE`, so running off the
/// end is a SIGSEGV and not a write into a neighbour. Unmapped on drop.
pub(crate) struct Stack {
    base: *mut libc::c_void,
    len: usize,
}

impl Stack {
    /// Map `len` usable bytes and the guard page below them.
    pub(crate) fn map(len: usize) -> io::Result<Stack> {
        let len = len.saturating_add(GUARD_BYTES);
        let prot = libc::PROT_READ | libc::PROT_WRITE;
        let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_STACK;
        // SAFETY: a new mapping where the kernel chooses aliases nothing.
        let base = unsafe { libc::mmap(ptr::null_mut(), len, prot, flags, -1, 0) };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack { base, len };
        // SAFETY: the first page of the mapping above, not yet in use.
        match unsafe { libc::mprotect(base, GUARD_BYTES, libc::PROT_NONE) } {
            0 => Ok(stack),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Write the frame a first switch to this stack pops at its top
    /// (page-aligned, so `enter` starts on the alignment a `call` leaves)
    /// and return the stack pointer to give that switch.
    fn seed(&self, arg: *const Start<'_, '_>) -> *mut u8 {
        let mut frame = [0u64; FRAME_WORDS];
        frame[0] = FRESH_FP_CONTROL;
        frame[4] = arg as u64; // r12
        frame[7] = dsm_coro_trampoline as *const () as u64;
        let top = self.base.cast::<u8>().wrapping_add(self.len);
        let sp = top.cast::<[u64; FRAME_WORDS]>().wrapping_sub(1);
        // SAFETY: the mapping is longer than its guard page and a frame,
        // writable above the guard, and nothing runs on it (`run`'s assert).
        unsafe { sp.write(frame) };
        sp.cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping `map` made; `run` joined whatever ran on it.
        unsafe { libc::munmap(self.base, self.len) };
    }
}

/// Where a context that is not running resumes: the stack pointer
/// `dsm_coro_switch` stored when it parked, or a seeded frame's.
type Context = Cell<*mut u8>;
type Body<'f> = Box<dyn FnOnce() + 'f>;

/// What `enter` is handed: the set it belongs to and its body.
struct Start<'a, 'f> {
    coros: &'a Coros,
    body: Cell<Option<Body<'f>>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Made by `run` and never entered: its body has not been taken.
    Fresh,
    /// Switched away from: its context holds where it resumes.
    Parked,
    /// Running, returned, or not part of a run: nothing to resume.
    Off,
}

/// A set of coroutines and their root (see the module docs). Neither
/// `Send` nor `Sync`: everything here happens on one OS thread.
pub(crate) struct Coros {
    stacks: Vec<Stack>,
    /// Coroutine `i`'s at `i`, the root's last; `states` likewise.
    contexts: Vec<Context>,
    states: Vec<Cell<State>>,
    /// Index into `contexts` of whoever is running.
    current: Cell<usize>,
}

impl Coros {
    /// Map stacks for `n` coroutines. On failure everything mapped so
    /// far is released, and the error says which stack it was.
    pub(crate) fn map(n: usize) -> Result<Coros, (usize, io::Error)> {
        let stack = |i| Stack::map(STACK_BYTES).map_err(|e| (i, e));
        Ok(Coros {
            stacks: (0..n).map(stack).collect::<Result<_, _>>()?,
            contexts: (0..=n).map(|_| Cell::new(ptr::null_mut())).collect(),
            states: (0..=n).map(|_| Cell::new(State::Off)).collect(),
            current: Cell::new(n),
        })
    }

    /// The root's index, for [`Coros::switch`].
    pub(crate) fn root(&self) -> usize {
        self.stacks.len()
    }

    /// Run `root` on the caller's stack with one coroutine per body ready
    /// to be switched to. When `root` returns (or panics), every
    /// coroutine entered and not yet returned is resumed, in index order,
    /// and must then return — unwinding out of whatever call it was
    /// parked in, which runs its destructors: what joining a scoped
    /// thread did. Bodies never entered are dropped unrun.
    pub(crate) fn run<'f, R>(&self, bodies: Vec<Body<'f>>, root: impl FnOnce() -> R) -> R {
        let n = self.root();
        assert_eq!(bodies.len(), n, "one body per mapped stack");
        let idle = self.states.iter().all(|s| s.get() == State::Off);
        assert!(idle, "a run is already in progress on these stacks");
        let start = |body| Start {
            coros: self,
            body: Cell::new(Some(body)),
        };
        let starts: Vec<_> = bodies.into_iter().map(start).collect();
        for (i, start) in starts.iter().enumerate() {
            self.contexts[i].set(self.stacks[i].seed(start));
            self.states[i].set(State::Fresh);
        }
        self.current.set(n);

        let out = catch_unwind(AssertUnwindSafe(root));
        for i in 0..n {
            if self.states[i].get() == State::Parked {
                self.switch(i);
            }
            if self.states[i].replace(State::Off) == State::Parked {
                // Its frames may borrow from `'f` and its stack is about to
                // be unmapped: there is no sound way on from here.
                eprintln!("coroutine {i} did not return when its run ended; aborting");
                std::process::abort();
            }
        }
        drop(starts);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Park the caller and run context `to`, from its start or from where
    /// it last switched away. Returns when something switches back to the
    /// caller or, in the root, when a body returns.
    pub(crate) fn switch(&self, to: usize) {
        self.leave(State::Parked, to);
    }

    /// Switch to `to`, leaving the caller `Parked` or, at a body's end, `Off`.
    fn leave(&self, as_state: State, to: usize) {
        let resumable = matches!(self.states[to].get(), State::Fresh | State::Parked);
        assert!(resumable, "context {to} has nothing to resume");
        let from = self.current.replace(to);
        self.states[from].set(as_state);
        self.states[to].set(State::Off);
        // SAFETY: `from` is the context this code runs on (`current`
        // follows every switch), so its slot holds a stack pointer already
        // consumed and is free to take this one (which, left `Off`, is
        // never loaded). `to` was checked to hold one that is not: seeded
        // by `run` for a stack nothing has run on, its `Start` alive until
        // `run`'s join is over, or stored by the switch that parked it and
        // not resumed since. Its stack is mapped until `self` drops, after
        // that join.
        unsafe { dsm_coro_switch(self.contexts[from].as_ptr(), self.contexts[to].get()) };
        // Running again: switched to, or (the root) resumed by `enter` at
        // the end of a body.
        self.current.set(from);
        self.states[from].set(State::Off);
    }
}

/// First frame of every coroutine, called by `dsm_coro_trampoline`. Ends
/// by switching to the root (parked for as long as any coroutine runs)
/// for good: there is nothing to return to, and unwinding out of an
/// `extern "C"` function aborts, so a panic that gets this far does too.
extern "C" fn enter(start: *const Start<'_, '_>) -> ! {
    // SAFETY: `run` seeded this stack with a pointer into its `starts`,
    // which it keeps, without returning, until every coroutine entered has
    // returned: the lifetimes erased through the register are still running.
    let Start { coros, body } = unsafe { &*start };
    let body = body.take().expect("a coroutine is entered once");
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        eprintln!("a panic reached the base of a coroutine; aborting");
        std::process::abort();
    }
    coros.leave(State::Off, coros.root());
    unreachable!("a returned coroutine was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unmappable_stack_is_an_error() {
        let err = Stack::map(usize::MAX / 2)
            .err()
            .expect("half the address space");
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory, "{err}");
    }

    /// Two bodies and the root pass control around; the digits logged
    /// say in what order.
    fn relay_race() -> u32 {
        let coros = Coros::map(2).unwrap();
        let log = Cell::new(0u32);
        let step = |log: &Cell<u32>, digit| log.set(log.get() * 10 + digit);
        let bodies: Vec<Body<'_>> = vec![
            Box::new(|| {
                step(&log, 1);
                coros.switch(1);
                step(&log, 4);
            }),
            Box::new(|| {
                step(&log, 2);
                coros.switch(coros.root());
                step(&log, 6);
            }),
        ];
        coros.run(bodies, || {
            coros.switch(0);
            step(&log, 3);
            coros.switch(0); // runs to its end, which comes back here
            step(&log, 5);
            // Body 1 is still parked: the join resumes it.
        });
        log.get()
    }

    #[test]
    fn control_goes_where_it_is_sent_and_bodies_return_to_the_root() {
        assert_eq!(relay_race(), 123_456);
    }

    /// Nothing here is per-process: sets on four OS threads at once
    /// each see only their own switches.
    #[test]
    fn sets_on_four_threads_at_once_do_not_meet() {
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..500).map(|_| relay_race()).collect::<Vec<_>>()))
                .collect();
            for racer in racers {
                assert_eq!(racer.join().expect("a racer panicked"), [123_456; 500]);
            }
        });
    }

    #[test]
    fn a_root_panic_still_joins_and_a_fresh_body_is_dropped_unrun() {
        let coros = Coros::map(2).unwrap();
        let (resumed, entered) = (Cell::new(false), Cell::new(false));
        let bodies: Vec<Body<'_>> = vec![
            Box::new(|| {
                coros.switch(coros.root());
                resumed.set(true);
            }),
            Box::new(|| entered.set(true)),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| {
            coros.run(bodies, || {
                coros.switch(0);
                panic!("root gave up");
            })
        }))
        .expect_err("the root's panic leaves `run`");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("root gave up"));
        assert!(resumed.get() && !entered.get());
    }

    fn mxcsr() -> u32 {
        let mut csr = 0u32;
        // SAFETY: stores four bytes to the local it is pointed at.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack)) };
        csr
    }

    /// Flush-to-zero, bit 15: a mode no code in this process sets.
    const FTZ: u32 = 1 << 15;

    fn set_mxcsr(csr: u32) {
        // SAFETY: loads four bytes from a local; every test that changes
        // the mode puts it back before its context can run other code.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, readonly)) };
    }

    /// The floating-point mode is part of a context, as it was of a
    /// thread: what one body sets, it finds again, and nobody else does.
    #[test]
    fn a_bodys_rounding_mode_is_its_own() {
        let coros = Coros::map(2).unwrap();
        let default = mxcsr();
        assert_eq!(default & FTZ, 0);
        let seen = Cell::new([0u32; 4]);
        let see = |at: usize| {
            let mut all = seen.get();
            all[at] = mxcsr();
            seen.set(all);
        };
        let bodies: Vec<Body<'_>> = vec![
            Box::new(|| {
                set_mxcsr(default | FTZ);
                coros.switch(coros.root());
                see(2);
                set_mxcsr(default);
            }),
            Box::new(|| see(1)),
        ];
        coros.run(bodies, || {
            coros.switch(0);
            see(0);
            coros.switch(1);
            coros.switch(0);
            see(3);
        });
        assert_eq!(
            seen.get(),
            [default, FRESH_FP_CONTROL as u32, default | FTZ, default]
        );
    }

    /// `enter` must start where a `call` would have left the stack, or
    /// the compiler's aligned vector stores to its frames fault. (A local
    /// aligned beyond 16 pins nothing: its frame realigns itself.)
    #[test]
    fn a_bodys_first_frame_takes_an_aligned_vector_store() {
        use std::arch::x86_64::{__m128i, _mm_set1_epi8, _mm_store_si128};
        #[repr(align(16))]
        struct Lanes([u8; 16]);
        let coros = Coros::map(1).unwrap();
        let sum = Cell::new(0u32);
        let bodies: Vec<Body<'_>> = vec![Box::new(|| {
            let mut lanes = std::hint::black_box(Lanes([0; 16]));
            let at = ptr::from_mut(&mut lanes.0).cast::<__m128i>();
            assert_eq!(at as usize % 16, 0, "a 16-aligned local is not");
            // SAFETY: sixteen bytes, owned by this frame, aligned as checked.
            unsafe { _mm_store_si128(at, _mm_set1_epi8(3)) };
            sum.set(
                std::hint::black_box(&lanes)
                    .0
                    .iter()
                    .map(|&b| u32::from(b))
                    .sum(),
            );
        })];
        coros.run(bodies, || coros.switch(0));
        assert_eq!(sum.get(), 48);
    }

    /// An unwinder walks a coroutine's stack up to `enter` and stops at
    /// the trampoline, which says it has no caller.
    #[test]
    fn a_backtrace_in_a_body_ends_at_enter() {
        let coros = Coros::map(1).unwrap();
        let trace = Cell::new(String::new());
        let bodies: Vec<Body<'_>> = vec![Box::new(|| {
            trace.set(std::backtrace::Backtrace::force_capture().to_string());
        })];
        coros.run(bodies, || coros.switch(0));
        let trace = trace.take();
        // Frame lines read `  7: [path::]name`; `at file:line` lines follow some.
        let numbered = |l: &&str| {
            l.split(':')
                .next()
                .is_some_and(|n| n.trim().parse::<u32>().is_ok())
        };
        let frames: Vec<&str> = trace.lines().filter(numbered).collect();
        let [.., enter, last] = frames[..] else {
            panic!("a short walk:\n{trace}");
        };
        assert!(
            enter.ends_with(" enter") || enter.ends_with("::enter"),
            "{trace}"
        );
        assert!(last.ends_with(" dsm_coro_trampoline"), "{trace}");
    }
}
