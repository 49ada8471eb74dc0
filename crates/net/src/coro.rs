//! Stackful coroutines on the calling thread, over glibc's `getcontext` /
//! `makecontext` / `swapcontext`: the only `unsafe` in this crate.
//!
//! A [`Coros`] is a fixed set of coroutines, one mapped stack each, and
//! the *root*: whoever called [`Coros::run`]. One of them runs at any
//! instant and control moves only where [`Coros::switch`] sends it (a
//! body that returns resumes the root). A switch is a register save and
//! restore plus glibc's `rt_sigprocmask`: no futex, no kernel scheduler.
//! Bodies may borrow from the caller's frame on `thread::scope`'s terms:
//! `run` does not return until every body has returned or never started.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, UnsafeCell};
use std::io;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

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
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping `map` made; `run` joined whatever ran on it.
        unsafe { libc::munmap(self.base, self.len) };
    }
}

/// Boxed because `getcontext` stores, inside the struct, a pointer to the
/// struct's own FP save area: once filled in, a context must never move.
type Context = Box<UnsafeCell<MaybeUninit<libc::ucontext_t>>>;
type Body<'f> = Box<dyn FnOnce() + 'f>;

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
        let context = |_| Box::new(UnsafeCell::new(MaybeUninit::zeroed()));
        Ok(Coros {
            stacks: (0..n).map(stack).collect::<Result<_, _>>()?,
            contexts: (0..=n).map(context).collect(),
            states: (0..=n).map(|_| Cell::new(State::Off)).collect(),
            current: Cell::new(n),
        })
    }

    /// The root's index, for [`Coros::switch`].
    pub(crate) fn root(&self) -> usize {
        self.stacks.len()
    }

    fn context(&self, i: usize) -> *mut libc::ucontext_t {
        self.contexts[i].get().cast()
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
        let bodies: Vec<_> = bodies.into_iter().map(|b| Cell::new(Some(b))).collect();
        for (i, body) in bodies.iter().enumerate() {
            let (ctx, arg) = (self.context(i), ptr::from_ref(body) as usize as u64);
            // SAFETY: `ctx` is this coroutine's boxed context, unread while
            // the coroutine is not resumable (the assert above), and
            // `getcontext` fills it in before the fields are set. The stack
            // is mapped as long as `self` lives. `makecontext` passes its
            // variadic arguments on as `int`s, so the pointer travels in
            // halves and `enter`, which takes those, is cast to match.
            unsafe {
                assert_eq!(libc::getcontext(ctx), 0, "getcontext failed");
                (*ctx).uc_stack.ss_sp = self.stacks[i].base;
                (*ctx).uc_stack.ss_size = self.stacks[i].len;
                (*ctx).uc_link = self.context(n);
                let enter = std::mem::transmute::<extern "C" fn(u32, u32), extern "C" fn()>(enter);
                libc::makecontext(ctx, enter, 2, (arg >> 32) as u32, arg as u32);
            }
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
        drop(bodies);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Park the caller and run context `to`, from its start or from where
    /// it last switched away. Returns when something switches back to the
    /// caller or, in the root, when a body returns.
    pub(crate) fn switch(&self, to: usize) {
        let resumable = matches!(self.states[to].get(), State::Fresh | State::Parked);
        assert!(resumable, "context {to} has nothing to resume");
        let from = self.current.replace(to);
        self.states[from].set(State::Parked);
        self.states[to].set(State::Off);
        // SAFETY: `from` is the context this code runs on (`current`
        // follows every switch), so saving into it overwrites a
        // continuation already consumed. `to` was checked to hold one that
        // is not: made by `run` and never entered, or saved by the
        // `swapcontext` that parked it and not resumed since. Its stack
        // is mapped until `self` drops, after `run`'s join.
        let rc = unsafe { libc::swapcontext(self.context(from), self.context(to)) };
        assert_eq!(rc, 0, "swapcontext failed");
        // Running again: switched to, or (the root) resumed through
        // `uc_link` by a body's return, which set neither.
        self.current.set(from);
        self.states[from].set(State::Off);
    }
}

/// First frame of every coroutine. Returning resumes `uc_link`, the
/// root; unwinding out would run into glibc's `__start_context`, which
/// has no handler, so a panic that gets this far aborts.
extern "C" fn enter(hi: u32, lo: u32) {
    let body = ((u64::from(hi) << 32) | u64::from(lo)) as usize as *const Cell<Option<Body<'_>>>;
    // SAFETY: `run` made this context with a pointer into its `bodies`,
    // which it keeps, without returning, until every coroutine entered has
    // returned: the lifetime erased through `makecontext` is still running.
    let body = unsafe { &*body }
        .take()
        .expect("a coroutine is entered once");
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        eprintln!("a panic reached the base of a coroutine; aborting");
        std::process::abort();
    }
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
}
