//! Differential proptests for the sharded runner: for *arbitrary*
//! topologies (random channels, random latencies including zero) and
//! arbitrary cross-shard message patterns, the conservative windowed
//! executor must reproduce the single-queue oracle's execution order
//! exactly, and the lookahead horizons must never admit a straggler
//! (checked through the `shard.merge_order` audit invariant).
//! Zero-lookahead topologies must degrade to correct serial order
//! instead of deadlocking.

use cloudchar_simcore::shard::{RunMode, ShardCtx, ShardId, ShardLogic, ShardedEngine, Topology};
use cloudchar_simcore::{audit, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted local event: note something, or ping a neighbor with a
/// hop budget that triggers a chain of replies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Note(u32),
    Ping {
        dst: ShardId,
        extra_ns: u64,
        hops: u32,
    },
}

/// A shard executing a scripted schedule, logging every unit it runs in
/// order. The log is the differential fingerprint.
struct ScriptShard {
    pending: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    log: Vec<(u64, String)>,
}

impl ScriptShard {
    fn new() -> Self {
        ScriptShard {
            pending: BinaryHeap::new(),
            seq: 0,
            log: Vec::new(),
        }
    }

    fn push(&mut self, t: SimTime, ev: Ev) {
        self.pending.push(Reverse((t, self.seq, ev)));
        self.seq += 1;
    }
}

impl ShardLogic for ScriptShard {
    type Msg = u32; // remaining hops

    fn next_local(&mut self) -> Option<SimTime> {
        self.pending.peek().map(|Reverse((t, _, _))| *t)
    }

    fn run_local(&mut self, ctx: &mut ShardCtx<'_, u32>) -> u64 {
        let mut ran = 0;
        loop {
            match self.pending.peek() {
                Some(Reverse((t, _, _))) if *t < ctx.limit() => {}
                _ => break,
            }
            let Some(Reverse((t, _, ev))) = self.pending.pop() else {
                break;
            };
            ran += 1;
            match ev {
                Ev::Note(tag) => self.log.push((t.as_nanos(), format!("note:{tag}"))),
                Ev::Ping {
                    dst,
                    extra_ns,
                    hops,
                } => {
                    self.log.push((t.as_nanos(), format!("ping->{dst}:{hops}")));
                    ctx.send(t, dst, SimDuration::from_nanos(extra_ns), hops);
                }
            }
        }
        ran
    }

    fn on_message(&mut self, ctx: &mut ShardCtx<'_, u32>, src: ShardId, hops: u32) {
        let t = ctx.now();
        self.log.push((t.as_nanos(), format!("recv<-{src}:{hops}")));
        if hops > 0 {
            // Reply over the reverse channel when it exists; otherwise
            // the chain ends here.
            if let Some(lat) = ctx.channel_latency(src) {
                ctx.send(t, src, lat, hops - 1);
            }
        }
    }
}

/// Raw generated plan: channel matrix plus scripted events.
#[derive(Debug, Clone)]
struct Plan {
    shards: u32,
    /// For each ordered pair `src * n + dst` (src != dst): latency in
    /// nanoseconds, or `None` for no channel.
    links: Vec<Option<u64>>,
    /// `(shard, at_ms, event)` seeds.
    events: Vec<(u32, u64, Ev)>,
}

fn build(plan: &Plan) -> ShardedEngine<ScriptShard> {
    let n = plan.shards;
    let mut topo = Topology::new(n);
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            if let Some(lat) = plan.links[(src * n + dst) as usize] {
                topo.link(src, dst, SimDuration::from_nanos(lat));
            }
        }
    }
    let mut shards: Vec<ScriptShard> = (0..n).map(|_| ScriptShard::new()).collect();
    for (shard, at_ms, ev) in &plan.events {
        shards[*shard as usize].push(SimTime::from_nanos(at_ms * 1_000_000), ev.clone());
    }
    ShardedEngine::new(topo, shards)
}

fn run_logs(plan: &Plan, mode: RunMode, audited: bool) -> (Vec<Vec<(u64, String)>>, bool) {
    if audited {
        audit::enable();
    }
    let mut engine = build(plan);
    engine.run(SimTime::from_secs(2), mode);
    let clean = if audited {
        let report = audit::take_report();
        report
            .violations
            .iter()
            .all(|v| v.invariant != "shard.merge_order" && v.invariant != "shard.lookahead")
    } else {
        true
    };
    let logs = engine.into_logics().into_iter().map(|s| s.log).collect();
    (logs, clean)
}

/// Raw event tuple: `((shard, at_ms, kind), (dst_pick, extra_ns, hops), tag)`.
type RawEvent = ((u32, u64, u8), (u32, u64, u32), u32);

/// Generator: a random plan over 2–4 shards. Channels appear with
/// random latencies (possibly zero); every scripted ping targets an
/// existing channel with a delay at or above its latency. The link grid
/// is generated at the 4×4 maximum and cut down to `n` in the map.
fn arb_plan(zero_lookahead: bool) -> impl Strategy<Value = Plan> {
    let raw = (
        2u32..5,
        proptest::collection::vec(proptest::option::of(0u64..5_000_000), 16..17),
        proptest::collection::vec(
            (
                (0u32..4, 0u64..40, 0u8..2),
                (0u32..4, 0u64..3_000_000, 0u32..3),
                any::<u32>(),
            ),
            1..24,
        ),
    );
    raw.prop_map(
        move |(n, grid, raw_events): (u32, Vec<Option<u64>>, Vec<RawEvent>)| {
            let mut links: Vec<Option<u64>> = vec![None; (n * n) as usize];
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    links[(src * n + dst) as usize] =
                        grid[(src * 4 + dst) as usize].map(|l| if zero_lookahead { 0 } else { l });
                }
            }
            let events = raw_events
                .into_iter()
                .map(|((shard, at_ms, kind), (dst_pick, extra, hops), tag)| {
                    let shard = shard % n;
                    // Find an outgoing channel for pings, scanning from the
                    // picked destination; fall back to a note.
                    let mut ev = Ev::Note(tag);
                    if kind == 1 {
                        for step in 0..n {
                            let dst = (dst_pick + step) % n;
                            if dst == shard {
                                continue;
                            }
                            if let Some(lat) = links[(shard * n + dst) as usize] {
                                let extra = if zero_lookahead { 0 } else { extra };
                                ev = Ev::Ping {
                                    dst,
                                    extra_ns: lat + extra,
                                    hops,
                                };
                                break;
                            }
                        }
                    }
                    (shard, at_ms, ev)
                })
                .collect();
            Plan {
                shards: n,
                links,
                events,
            }
        },
    )
}

proptest! {
    /// Arbitrary message patterns: the windowed runner reproduces the
    /// single-queue oracle's per-shard unit order exactly, and the
    /// audited run admits no straggler and no lookahead breach.
    #[test]
    fn windowed_matches_single_queue_oracle(plan in arb_plan(false)) {
        let (oracle, oracle_clean) = run_logs(&plan, RunMode::SingleQueue, true);
        prop_assert!(oracle_clean, "oracle run violated shard invariants");
        let (windowed, windowed_clean) = run_logs(&plan, RunMode::Windowed, true);
        prop_assert!(windowed_clean, "windowed run admitted a straggler");
        prop_assert_eq!(&windowed, &oracle, "windowed diverged from oracle");
    }

    /// Zero-lookahead topologies: every channel latency (and message
    /// delay) is zero, so no conservative window can open. The runner
    /// must degrade to serial fallback steps with order still identical
    /// to the oracle — and must terminate (no deadlock).
    #[test]
    fn zero_lookahead_degrades_to_serial(plan in arb_plan(true)) {
        let (oracle, _) = run_logs(&plan, RunMode::SingleQueue, false);
        let (windowed, clean) = run_logs(&plan, RunMode::Windowed, true);
        prop_assert!(clean, "zero-lookahead windowed run admitted a straggler");
        prop_assert_eq!(&windowed, &oracle, "zero-lookahead windowed run diverged");
    }

    /// The global pop order — every unit tagged `(time, shard)` and
    /// merged — is preserved: concatenating per-shard logs and sorting
    /// by time must give the same multiset sequence for oracle and
    /// windowed runs. (Sharper than per-shard equality when events
    /// interleave across shards at equal times.)
    #[test]
    fn global_time_order_is_preserved(plan in arb_plan(false)) {
        let (oracle, _) = run_logs(&plan, RunMode::SingleQueue, false);
        let (windowed, _) = run_logs(&plan, RunMode::Windowed, false);
        let flatten = |logs: &Vec<Vec<(u64, String)>>| {
            let mut all: Vec<(u64, u32, usize, String)> = Vec::new();
            for (shard, log) in logs.iter().enumerate() {
                for (pos, (t, s)) in log.iter().enumerate() {
                    all.push((*t, shard as u32, pos, s.clone()));
                }
            }
            all.sort();
            all
        };
        prop_assert_eq!(flatten(&windowed), flatten(&oracle));
    }
}
