//! Fault plans: seed-reproducible schedules of injected failures.

use hydra_sim::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// When a planned fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// At a virtual time (nanoseconds on the sim clock).
    At(SimTime),
    /// When the recorded history reaches this many invoked client ops.
    /// Op-count triggers pin a fault to a point in the *workload* rather
    /// than the clock, which is what directed tests (crash exactly between
    /// op N and N+1) need.
    AtOp(u64),
}

/// One injectable failure. Node arguments index the cluster's server nodes
/// (0-based); the applying layer maps them to fabric node ids.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Power-fail a server machine: its NIC engines freeze and all traffic
    /// from or to it vanishes on the wire. Every shard hosted on the node
    /// (primary or secondary) goes dark.
    CrashNode { node: usize },
    /// Bring a crashed machine back. Shards that were promoted away are
    /// rebuilt as fresh secondaries from the current primary's state;
    /// stale secondaries are resynced.
    RestartNode { node: usize },
    /// Isolate `nodes` from every other machine (servers and clients).
    /// The coordination service stays reachable — HydraDB models it as an
    /// external quorum service — but primary heartbeats from isolated
    /// nodes stop, so their sessions expire and SWAT fails over.
    Partition { nodes: Vec<usize> },
    /// Remove every partition cut and transient link fault.
    Heal,
    /// Drop the next `count` messages flowing `from -> to`.
    DropMessage { from: usize, to: usize, count: u32 },
    /// Delay the next `count` messages flowing `from -> to` by `delay_ns`.
    DelayMessage {
        from: usize,
        to: usize,
        delay_ns: SimTime,
        count: u32,
    },
    /// Redeliver the next `count` messages flowing `from -> to` (the
    /// duplicated copy lands just behind the original, as after an RC
    /// retransmit).
    DuplicateMessage { from: usize, to: usize, count: u32 },
    /// Multiply a node's NIC service times by `factor` (1.0 restores full
    /// speed).
    SlowNode { node: usize, factor: f64 },
    /// Force the store to reclaim every deferred block of a partition's
    /// primary immediately, as if all read leases had expired. Outstanding
    /// cached remote pointers now dangle; the guardian word is all that
    /// stands between a fast-path reader and a stale value.
    ExpireLease { partition: u32 },
    /// Kill just the primary server process of one partition (the classic
    /// `kill_primary` fault): the process stops serving and heartbeating
    /// but the machine and its other shards stay up.
    CrashPrimary { partition: u32 },
    /// Expire the SWAT leader's coordination session: the next live member
    /// of the SWAT group leads from then on.
    ExpireSwatLeader,
    /// Make one partition's replication appliers fail to process record
    /// `seq` (secondary-side processing fault, PAPER.md §5.2): the
    /// secondary discards from the gap on and the primary must roll back
    /// and resend.
    FailReplApply { partition: u32, seq: u64 },
    /// Bring a brand-new machine online hosting `shards` new partitions and
    /// start a live join migration toward it. Scripted-only (never emitted
    /// by [`FaultPlan::random`]): elasticity events are directed scenarios,
    /// not background noise.
    JoinNode { shards: u32 },
    /// Start a live drain migration moving every primary off server node
    /// `node` so it can leave the cluster. Scripted-only, like `JoinNode`.
    DrainNode { node: usize },
}

/// A fault pinned to its trigger.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlannedFault {
    pub(crate) trigger: Trigger,
    pub(crate) fault: FaultEvent,
}

/// A deterministic schedule of faults. Plans are inert data until handed to
/// the cluster's chaos controller.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan derives from; printed by every checker failure.
    pub(crate) seed: u64,
    pub(crate) faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` for reproduction messages.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault at virtual time `at`.
    pub fn at(mut self, at: SimTime, fault: FaultEvent) -> Self {
        self.faults.push(PlannedFault {
            trigger: Trigger::At(at),
            fault,
        });
        self
    }

    /// Adds a fault firing once `ops` client ops have been invoked.
    pub fn at_op(mut self, ops: u64, fault: FaultEvent) -> Self {
        self.faults.push(PlannedFault {
            trigger: Trigger::AtOp(ops),
            fault,
        });
        self
    }

    /// Derives a random-but-replayable plan: one to three fault episodes
    /// (crash/restart, partition/heal, drop, delay, duplicate, slow) over
    /// `server_nodes` machines and `partitions` shards, all disruption
    /// opening after `horizon_ns / 10` and every opened episode closed
    /// (restarted, healed, restored) by `0.8 * horizon_ns`, so a run that
    /// drives traffic for `horizon_ns` and then settles can check replica
    /// convergence.
    pub fn random(seed: u64, server_nodes: usize, partitions: u32, horizon_ns: SimTime) -> Self {
        assert!(server_nodes >= 2, "chaos plans need at least two nodes");
        assert!(partitions >= 1);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5ED);
        let mut plan = FaultPlan::new(seed);
        let open_lo = horizon_ns / 10;
        let open_hi = horizon_ns / 2;
        let close_by = horizon_ns - horizon_ns / 5;
        let episodes = rng.gen_range(1..=3u32);
        for _ in 0..episodes {
            let t0 = rng.gen_range(open_lo..open_hi);
            let t1 = rng.gen_range((t0 + horizon_ns / 20)..close_by);
            match rng.gen_range(0..6u32) {
                0 => {
                    let node = rng.gen_range(0..server_nodes);
                    plan = plan
                        .at(t0, FaultEvent::CrashNode { node })
                        .at(t1, FaultEvent::RestartNode { node });
                }
                1 => {
                    // A random nonempty proper subset of the machines.
                    let mut nodes: Vec<usize> =
                        (0..server_nodes).filter(|_| rng.gen_bool(0.5)).collect();
                    if nodes.is_empty() {
                        nodes.push(rng.gen_range(0..server_nodes));
                    }
                    if nodes.len() == server_nodes {
                        nodes.pop();
                    }
                    plan = plan
                        .at(t0, FaultEvent::Partition { nodes })
                        .at(t1, FaultEvent::Heal);
                }
                2 => {
                    let (from, to) = distinct_pair(&mut rng, server_nodes);
                    plan = plan.at(
                        t0,
                        FaultEvent::DropMessage {
                            from,
                            to,
                            count: rng.gen_range(1..=12u32),
                        },
                    );
                }
                3 => {
                    let (from, to) = distinct_pair(&mut rng, server_nodes);
                    plan = plan.at(
                        t0,
                        FaultEvent::DelayMessage {
                            from,
                            to,
                            delay_ns: rng.gen_range(5_000u64..200_000),
                            count: rng.gen_range(1..=50u32),
                        },
                    );
                }
                4 => {
                    let (from, to) = distinct_pair(&mut rng, server_nodes);
                    plan = plan.at(
                        t0,
                        FaultEvent::DuplicateMessage {
                            from,
                            to,
                            count: rng.gen_range(1..=8u32),
                        },
                    );
                }
                _ => {
                    let node = rng.gen_range(0..server_nodes);
                    plan = plan
                        .at(
                            t0,
                            FaultEvent::SlowNode {
                                node,
                                factor: 2.0 + rng.gen::<f64>() * 6.0,
                            },
                        )
                        .at(t1, FaultEvent::SlowNode { node, factor: 1.0 });
                }
            }
        }
        if rng.gen_bool(0.5) {
            let t = rng.gen_range(open_lo..close_by);
            plan = plan.at(
                t,
                FaultEvent::ExpireLease {
                    partition: rng.gen_range(0..partitions),
                },
            );
        }
        // Belt and braces: whatever the episodes did to the network, the
        // final act heals it so convergence is checkable.
        plan = plan.at(close_by, FaultEvent::Heal);
        plan.faults.sort_by_key(|f| match f.trigger {
            Trigger::At(t) => (0, t),
            Trigger::AtOp(n) => (1, n),
        });
        plan
    }

    /// The latest `Trigger::At` time in the plan (0 for pure op-count
    /// plans); callers drive the sim past this before checking convergence.
    pub fn last_event_at(&self) -> SimTime {
        self.faults
            .iter()
            .filter_map(|f| match f.trigger {
                Trigger::At(t) => Some(t),
                Trigger::AtOp(_) => None,
            })
            .max()
            .unwrap_or(0)
    }
}

fn distinct_pair(rng: &mut SmallRng, n: usize) -> (usize, usize) {
    let from = rng.gen_range(0..n);
    let to = (from + rng.gen_range(1..n)) % n;
    (from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_replay_from_their_seed() {
        let a = FaultPlan::random(99, 3, 3, 400_000_000);
        let b = FaultPlan::random(99, 3, 3, 400_000_000);
        assert_eq!(a, b);
        let c = FaultPlan::random(100, 3, 3, 400_000_000);
        assert_ne!(a, c, "different seeds must give different plans");
        assert!(!a.faults.is_empty());
    }

    #[test]
    fn random_plans_close_every_episode_within_the_horizon() {
        for seed in 0..200u64 {
            let horizon = 500_000_000;
            let plan = FaultPlan::random(seed, 4, 4, horizon);
            let mut crashes: std::collections::HashMap<usize, i32> = Default::default();
            let mut slows: std::collections::HashMap<usize, i32> = Default::default();
            let mut cut_open = false;
            for f in &plan.faults {
                let t = match f.trigger {
                    Trigger::At(t) => t,
                    Trigger::AtOp(_) => panic!("random plans are time-triggered"),
                };
                assert!(t <= horizon, "event beyond horizon");
                match &f.fault {
                    FaultEvent::CrashNode { node } => *crashes.entry(*node).or_default() += 1,
                    FaultEvent::RestartNode { node } => *crashes.entry(*node).or_default() -= 1,
                    FaultEvent::Partition { nodes } => {
                        assert!(!nodes.is_empty() && nodes.len() < 4);
                        cut_open = true;
                    }
                    FaultEvent::Heal => cut_open = false,
                    FaultEvent::SlowNode { node, factor } => {
                        *slows.entry(*node).or_default() += if *factor == 1.0 { -1 } else { 1 };
                    }
                    _ => {}
                }
            }
            assert!(
                crashes.values().all(|&c| c == 0),
                "seed {seed}: crash without matching restart"
            );
            assert!(
                slows.values().all(|&s| s == 0),
                "seed {seed}: slowdown without matching restore"
            );
            assert!(!cut_open, "seed {seed}: partition left open");
        }
    }

    #[test]
    fn builder_orders_are_preserved_and_triggers_typed() {
        let plan = FaultPlan::new(7)
            .at(100, FaultEvent::CrashPrimary { partition: 0 })
            .at_op(50, FaultEvent::ExpireSwatLeader);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].trigger, Trigger::At(100));
        assert_eq!(plan.faults[1].trigger, Trigger::AtOp(50));
        assert_eq!(plan.last_event_at(), 100);
    }
}
