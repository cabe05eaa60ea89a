//! The protocol-simulation substrate: generalizes the lock-machine
//! [`World`](crate::World) to arbitrary small concurrency protocols.
//!
//! The post-seed layers of this workspace (the `WakerSet` Dekker pair, the
//! `WakerQueue` grant/cancel machinery, `ShardedTable::with_two`'s ordered
//! acquire, `HemlockRw`'s drain/withdrawal, the flat-combining
//! publication-record lifecycle, and the trace ring's per-slot seqlock)
//! are hand-rolled protocols that the paper does not verify for us. Each
//! one is re-encoded here as a
//! [`ProtocolSim`]: a deterministic state machine issuing one atomic
//! operation per step against explicit shared words, exactly like
//! `HemlockSim` models the lock itself — so `hemlock-model` can explore
//! every schedule of a small configuration and check the protocol's own
//! invariants at every reachable state.
//!
//! Two deliberate modeling conventions:
//!
//! - **The machine is sequentially consistent**, so real-code fences are
//!   no-ops here. What a fence *buys* on weak hardware is an ordering
//!   discipline (e.g. the `WakerSet` store→load Dekker pair); the models
//!   encode that discipline as program order, and the bug-injection knobs
//!   reorder or drop the fenced step — which is precisely the execution the
//!   fence exists to forbid.
//! - **Parking is modeled as spinning on a wake-flag word.** A lost wakeup
//!   therefore manifests as a state from which no enabled thread's step
//!   changes the machine state, which the explorer reports as a deadlock.

use crate::algo::AlgoStep;
use crate::op::{Meta, Op, Val};
use crate::world::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A named invariant violation reported by a protocol model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoViolation {
    /// Short stable invariant name (e.g. `"no-double-grant"`), matching the
    /// scenario/invariant table in `docs/ARCHITECTURE.md`.
    pub invariant: &'static str,
    /// Human-readable description of the violating state.
    pub detail: String,
}

impl std::fmt::Display for ProtoViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// A concurrency protocol compiled to the simulated machine.
///
/// Unlike [`LockAlgorithm`](crate::LockAlgorithm), a protocol thread runs a
/// fixed role script baked into its state machine (lock/park/cancel/combine
/// sequences with the protocol's own semantics) rather than interpreting a
/// [`Program`](crate::Program); and the protocol carries its own named
/// invariants, which the model checker evaluates at every explored state.
pub trait ProtocolSim {
    /// Per-thread machine state (registers + program counter).
    type Thread: Clone + Hash + Eq + std::fmt::Debug;

    /// Display name of the protocol configuration (stable; used in reports).
    fn name(&self) -> &'static str;

    /// Number of threads in this configuration.
    fn threads(&self) -> usize;

    /// Number of simulated memory words (word 0 reserved as null).
    fn words(&self) -> usize;

    /// Initial memory contents (length == `words()`).
    fn initial_memory(&self) -> Vec<Val> {
        vec![0; self.words()]
    }

    /// Fresh machine state for thread `tid`.
    fn new_thread(&self, tid: usize) -> Self::Thread;

    /// Advance the machine: `last` is the result of the operation issued by
    /// the previous `step` (0 on the very first call). Returning
    /// [`AlgoStep::Done`] means the thread's whole script is complete.
    fn step(&self, t: &mut Self::Thread, last: Val) -> AlgoStep;

    /// Safety invariants, checked at every explored state (including states
    /// where threads are mid-operation). Return the first violated
    /// invariant.
    fn check(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<Self::Thread>],
    ) -> Result<(), ProtoViolation>;

    /// Invariants of fully-terminated states (e.g. indicators drained,
    /// queues empty, every thread's outcome consistent).
    fn check_terminal(
        &self,
        _mem: &[Val],
        _threads: &[ProtoThread<Self::Thread>],
    ) -> Result<(), ProtoViolation> {
        Ok(())
    }

    /// Names of every invariant this model can report (for reports and the
    /// documentation table). Deadlock-freedom is implicit: the explorer
    /// reports it for any protocol.
    fn invariants(&self) -> &'static [&'static str];
}

/// One simulated protocol thread: machine state + the in-flight operation.
#[derive(Clone, Debug)]
pub struct ProtoThread<T> {
    /// Protocol machine state (registers + program counter).
    pub state: T,
    /// Result of the last executed operation.
    pub last: Val,
    /// Operation issued but not yet executed.
    pub pending: Option<(Op, Meta)>,
    /// The thread's script ran to completion.
    pub done: bool,
}

impl<T: Hash> ProtoThread<T> {
    fn state_hash(&self, h: &mut impl Hasher) {
        self.state.hash(h);
        self.last.hash(h);
        self.pending.hash(h);
        self.done.hash(h);
    }
}

/// The whole simulated protocol machine: shared words × thread machines,
/// advanced one atomic operation at a time by an external scheduler
/// (round-robin, seeded-random, or the model checker's DFS).
#[derive(Clone, Debug)]
pub struct ProtoWorld<P: ProtocolSim> {
    /// Protocol configuration (immutable during a run).
    pub proto: P,
    /// Shared memory words.
    pub mem: Vec<Val>,
    /// Thread states.
    pub threads: Vec<ProtoThread<P::Thread>>,
}

impl<P: ProtocolSim> ProtoWorld<P> {
    /// Builds the world with every thread at the start of its script.
    pub fn new(proto: P) -> Self {
        let mem = proto.initial_memory();
        debug_assert_eq!(mem.len(), proto.words());
        let threads = (0..proto.threads())
            .map(|tid| ProtoThread {
                state: proto.new_thread(tid),
                last: 0,
                pending: None,
                done: false,
            })
            .collect();
        Self {
            proto,
            mem,
            threads,
        }
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// True when every thread's script completed.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.done)
    }

    fn refill(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        if t.pending.is_some() || t.done {
            return;
        }
        match self.proto.step(&mut t.state, t.last) {
            AlgoStep::Issue(op, meta) => t.pending = Some((op, meta)),
            AlgoStep::Done => t.done = true,
        }
    }

    /// Advances thread `tid` by one atomic operation. Returns `false` if the
    /// thread was already finished (no operation executed).
    pub fn step(&mut self, tid: usize) -> bool {
        self.refill(tid);
        let Some((op, _meta)) = self.threads[tid].pending.take() else {
            return false;
        };
        self.threads[tid].last = op.apply(&mut self.mem);
        // Pull the machine forward so completion is observed in the same
        // step as the operation that caused it.
        self.refill(tid);
        true
    }

    /// Runs the protocol's per-state safety invariants on the current state.
    pub fn check_now(&self) -> Result<(), ProtoViolation> {
        self.proto.check(&self.mem, &self.threads)
    }

    /// Runs the protocol's terminal-state invariants (call only when
    /// [`all_finished`](Self::all_finished)).
    pub fn check_terminal_now(&self) -> Result<(), ProtoViolation> {
        debug_assert!(self.all_finished());
        self.proto.check_terminal(&self.mem, &self.threads)
    }

    /// Hash of the entire machine state (for the model checker's visited
    /// set). The protocol configuration is fixed per run and not hashed.
    pub fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.mem.hash(&mut h);
        for t in &self.threads {
            t.state_hash(&mut h);
        }
        h.finish()
    }

    /// Runs threads round-robin until all finish or `max_steps` operations
    /// elapse. Returns the number of operations executed, or `None` if the
    /// budget ran out (a liveness failure under this fair schedule).
    pub fn run_round_robin(&mut self, max_steps: u64) -> Option<u64> {
        let mut steps = 0u64;
        while !self.all_finished() {
            for tid in 0..self.thread_count() {
                if self.step(tid) {
                    steps += 1;
                }
            }
            if steps > max_steps {
                return None;
            }
        }
        Some(steps)
    }

    /// Runs threads under a seeded uniformly-random (hence probabilistically
    /// fair) schedule. Returns the number of operations executed, or `None`
    /// on budget exhaustion.
    pub fn run_random(&mut self, seed: u64, max_steps: u64) -> Option<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut steps = 0u64;
        while !self.all_finished() {
            let live: Vec<usize> = (0..self.thread_count())
                .filter(|&t| !self.threads[t].done)
                .collect();
            let tid = live[(rng.next() % live.len() as u64) as usize];
            self.step(tid);
            steps += 1;
            if steps > max_steps {
                return None;
            }
        }
        Some(steps)
    }
}
