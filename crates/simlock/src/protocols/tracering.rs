//! Model of the trace ring's per-slot seqlock (`hemlock-obs::trace`).
//!
//! The real protocol: one owner thread appends records to a fixed ring of
//! slots, each carrying a sequence word next to its payload. Record `i`
//! goes into slot `i mod cap` as `seq = 2i+1`, release fence, payload
//! stores, `seq = 2i+2`, then `head = i+1`. A dumper on any thread reads
//! `head` and, for each index `i` it wants, accepts the slot only if
//! `seq == 2i+2` both before it copies the payload and again after an
//! acquire fence. A writer that laps the dumper mid-copy has moved `seq`
//! past `2i+2` before touching the payload, so the second check rejects
//! every splice, and comparing against the exact value `2i+2` rejects a
//! complete record from another lap.
//!
//! The simulated machine is sequentially consistent, so the fences are
//! program order here. The model runs one writer wrapping a 2-slot ring
//! against one dumper; a record's payload is two words that both hold
//! `i + 1`, so an accepted record is intact iff both words match each
//! other and its index. The bug knob:
//!
//! - [`RingBug::SkipSecondCheck`] accepts after the payload copy without
//!   re-reading `seq` — a writer that laps the dumper between the two
//!   payload loads hands it a torn record, caught by `no-torn-record`.

use crate::algo::{AlgoStep, MemPlan};
use crate::op::{Loc, Meta, Op, Val};
use crate::proto::{ProtoThread, ProtoViolation, ProtocolSim};

/// Slots in the modeled ring (the smallest that can be lapped while a
/// reader holds an older index).
const SLOTS: u64 = 2;

/// Deliberately-injected protocol bugs (for negative tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RingBug {
    /// Correct protocol.
    #[default]
    None,
    /// The dumper accepts a slot without the second sequence check.
    SkipSecondCheck,
}

/// Configuration: thread 0 pushes `pushes` records into a 2-slot ring;
/// thread 1 makes `passes` dump passes over it.
#[derive(Clone, Debug)]
pub struct TraceRingSim {
    pushes: u64,
    passes: u32,
    bug: RingBug,
    head: Loc,
    slots: Loc,
    words: usize,
}

impl TraceRingSim {
    /// Correct-protocol configuration.
    pub fn new(pushes: u64, passes: u32) -> Self {
        Self::with_bug(pushes, passes, RingBug::None)
    }

    /// Configuration with an injected bug.
    pub fn with_bug(pushes: u64, passes: u32, bug: RingBug) -> Self {
        let mut plan = MemPlan::new();
        let head = plan.alloc(1);
        let slots = plan.alloc(3 * SLOTS as usize);
        Self {
            pushes,
            passes,
            bug,
            head,
            slots,
            words: plan.words(),
        }
    }

    /// Word `field` (0 = seq, 1 and 2 = payload) of record `i`'s slot.
    fn word(&self, i: u64, field: usize) -> Loc {
        self.slots + 3 * (i % SLOTS) as usize + field
    }

    /// The dumper's next index of the current pass, or the next pass.
    fn next_index(&self, t: &mut RingThread) -> AlgoStep {
        if t.i < t.head {
            t.pc = Pc::Seq1;
            return AlgoStep::Issue(Op::Load(self.word(t.i, 0)), Meta::None);
        }
        t.pass += 1;
        if t.pass == self.passes {
            return AlgoStep::Done;
        }
        t.pc = Pc::Head;
        AlgoStep::Issue(Op::Load(self.head), Meta::None)
    }

    fn accept(&self, t: &mut RingThread) -> AlgoStep {
        t.accepted = Some((t.i, t.a, t.b));
        t.i += 1;
        self.next_index(t)
    }
}

/// Program counter of either role.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Writer: issue store `stage` (0..5) of record `i`.
    Write(u8),
    /// Dumper: issue the first `head` load.
    Start,
    /// Dumper: `last` = `head`.
    Head,
    /// Dumper: `last` = `seq` before the copy.
    Seq1,
    /// Dumper: `last` = the first payload word.
    A,
    /// Dumper: `last` = the second payload word.
    B,
    /// Dumper: `last` = `seq` after the copy.
    Seq2,
}

/// Per-thread machine state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RingThread {
    pc: Pc,
    /// Writer: record being written. Dumper: index being read.
    i: u64,
    /// Dumper: `head` at the start of this pass.
    head: u64,
    pass: u32,
    a: Val,
    b: Val,
    /// Dumper: the last record accepted, as `(index, word a, word b)`.
    accepted: Option<(u64, Val, Val)>,
}

impl ProtocolSim for TraceRingSim {
    type Thread = RingThread;

    fn name(&self) -> &'static str {
        "trace-ring"
    }

    fn threads(&self) -> usize {
        2
    }

    fn words(&self) -> usize {
        self.words
    }

    fn new_thread(&self, tid: usize) -> RingThread {
        RingThread {
            pc: if tid == 0 { Pc::Write(0) } else { Pc::Start },
            i: 0,
            head: 0,
            pass: 0,
            a: 0,
            b: 0,
            accepted: None,
        }
    }

    fn step(&self, t: &mut RingThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Write(stage) => {
                if t.i == self.pushes {
                    return AlgoStep::Done;
                }
                let i = t.i;
                let op = match stage {
                    0 => Op::Store(self.word(i, 0), 2 * i + 1),
                    1 => Op::Store(self.word(i, 1), i + 1),
                    2 => Op::Store(self.word(i, 2), i + 1),
                    3 => Op::Store(self.word(i, 0), 2 * i + 2),
                    _ => Op::Store(self.head, i + 1),
                };
                if stage == 4 {
                    t.i += 1;
                    t.pc = Pc::Write(0);
                } else {
                    t.pc = Pc::Write(stage + 1);
                }
                AlgoStep::Issue(op, Meta::None)
            }
            Pc::Start => {
                t.pc = Pc::Head;
                AlgoStep::Issue(Op::Load(self.head), Meta::None)
            }
            Pc::Head => {
                t.head = last;
                t.i = last.saturating_sub(SLOTS);
                self.next_index(t)
            }
            Pc::Seq1 => {
                if last != 2 * t.i + 2 {
                    t.i += 1;
                    return self.next_index(t);
                }
                t.pc = Pc::A;
                AlgoStep::Issue(Op::Load(self.word(t.i, 1)), Meta::None)
            }
            Pc::A => {
                t.a = last;
                t.pc = Pc::B;
                AlgoStep::Issue(Op::Load(self.word(t.i, 2)), Meta::None)
            }
            Pc::B => {
                t.b = last;
                if self.bug == RingBug::SkipSecondCheck {
                    return self.accept(t);
                }
                t.pc = Pc::Seq2;
                AlgoStep::Issue(Op::Load(self.word(t.i, 0)), Meta::None)
            }
            Pc::Seq2 => {
                if last == 2 * t.i + 2 {
                    return self.accept(t);
                }
                t.i += 1;
                self.next_index(t)
            }
        }
    }

    fn check(
        &self,
        _mem: &[Val],
        threads: &[ProtoThread<RingThread>],
    ) -> Result<(), ProtoViolation> {
        for t in threads {
            let Some((i, a, b)) = t.state.accepted else {
                continue;
            };
            if a != b || a != i + 1 {
                return Err(ProtoViolation {
                    invariant: "no-torn-record",
                    detail: format!(
                        "dumper accepted index {i} holding payload ({a}, {b}); \
                         only ({0}, {0}) was written there",
                        i + 1
                    ),
                });
            }
        }
        Ok(())
    }

    fn invariants(&self) -> &'static [&'static str] {
        &["no-torn-record"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoWorld;

    #[test]
    fn round_robin_completes_clean() {
        let mut w = ProtoWorld::new(TraceRingSim::new(3, 2));
        w.run_round_robin(10_000).expect("terminates");
        assert!(w.check_now().is_ok());
        assert_eq!(w.mem[w.proto.head], 3);
    }

    #[test]
    fn random_schedules_stay_clean() {
        for seed in 0..20 {
            let mut w = ProtoWorld::new(TraceRingSim::new(4, 3));
            w.run_random(seed, 100_000).expect("terminates");
            assert!(w.check_now().is_ok());
        }
    }
}
