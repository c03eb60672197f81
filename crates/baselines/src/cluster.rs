//! Baseline deployment builder.

use std::cell::RefCell;
use std::rc::Rc;

use hydra_fabric::{Fabric, FabricConfig, NodeId, Transport};
use hydra_sim::Sim;

use crate::client::BaselineClient;
use crate::server::{BaselineKind, BaselineServer};

/// Deployment description for one baseline system.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// RNG seed.
    pub seed: u64,
    /// Architecture under test.
    pub kind: BaselineKind,
    /// Server instances: 1 for Memcached/RAMCloud-like, N for Redis-like
    /// (all placed on the single server machine, as in §6.1).
    pub instances: u32,
    /// Client machines.
    pub client_nodes: u32,
    /// Arena words per instance.
    pub arena_words: usize,
    /// Fabric model (socket latencies matter most here).
    pub fabric: FabricConfig,
}

impl BaselineConfig {
    /// The paper's Memcached setup: one process, 8 threads, IPoIB.
    pub fn memcached() -> Self {
        BaselineConfig {
            seed: 42,
            kind: BaselineKind::memcached(),
            instances: 1,
            client_nodes: 5,
            arena_words: 1 << 22,
            fabric: FabricConfig::default(),
        }
    }

    /// The paper's Redis setup: 8 instances, client-side sharding, IPoIB.
    pub fn redis() -> Self {
        BaselineConfig {
            kind: BaselineKind::redis(),
            instances: 8,
            ..Self::memcached()
        }
    }

    /// The paper's RAMCloud setup: one server, native InfiniBand transport.
    pub fn ramcloud() -> Self {
        BaselineConfig {
            kind: BaselineKind::ramcloud(),
            instances: 1,
            ..Self::memcached()
        }
    }

    /// Fig. 3's in-memory database.
    pub fn g2db() -> Self {
        BaselineConfig {
            kind: BaselineKind::g2db(),
            instances: 1,
            ..Self::memcached()
        }
    }

    fn transport(&self) -> Transport {
        match self.kind {
            BaselineKind::RamCloudLike { .. } => Transport::Rdma,
            _ => Transport::Socket,
        }
    }
}

/// A deployed baseline system plus its simulation.
pub struct BaselineCluster {
    /// The virtual clock and event queue.
    pub sim: Sim,
    /// The fabric (for traffic stats).
    pub fab: Fabric,
    cfg: BaselineConfig,
    /// All server instances (on the one server machine).
    pub servers: Vec<Rc<RefCell<BaselineServer>>>,
    server_node: NodeId,
    client_nodes: Vec<NodeId>,
    next_client: u32,
}

impl BaselineCluster {
    /// Materializes `cfg`.
    pub fn build(cfg: BaselineConfig) -> BaselineCluster {
        let sim = Sim::new(cfg.seed);
        let fab = Fabric::new(cfg.fabric.clone());
        let server_node = fab.add_node();
        let client_nodes: Vec<NodeId> = (0..cfg.client_nodes).map(|_| fab.add_node()).collect();
        let servers: Vec<_> = (0..cfg.instances)
            .map(|_| {
                BaselineServer::new(
                    server_node,
                    &fab,
                    cfg.kind,
                    cfg.arena_words / cfg.instances as usize,
                )
            })
            .collect();
        BaselineCluster {
            sim,
            fab,
            cfg,
            servers,
            server_node,
            client_nodes,
            next_client: 0,
        }
    }

    /// Creates a client on client machine `node_idx`, connected to every
    /// instance (client-side sharding).
    pub fn add_client(&mut self, node_idx: usize) -> BaselineClient {
        let node = self.client_nodes[node_idx % self.client_nodes.len()];
        let client = BaselineClient::new(node, self.fab.clone());
        self.next_client += 1;
        for server in &self.servers {
            let qp = self
                .fab
                .connect(node, self.server_node, self.cfg.transport());
            client.add_conn(qp);
            // Server side: requests in.
            let server_rc = server.clone();
            self.fab.set_recv_handler(
                qp,
                self.server_node,
                Rc::new(move |sim: &mut Sim, qp, payload: Vec<u8>| {
                    BaselineServer::on_request(&server_rc, sim, qp, payload);
                }),
            );
            // Client side: responses back.
            let c2 = client.clone();
            self.fab.set_recv_handler(
                qp,
                client.node(),
                Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                    c2.on_response(sim, payload);
                }),
            );
        }
        client
    }

    /// Total items across instances.
    pub fn total_items(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.borrow().engine.borrow().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_ycsb::{run_workload, DriverConfig, KeyDist, KvClient, OpMix, Workload};
    use std::cell::Cell;

    fn wl(read_ratio: f64) -> Workload {
        Workload {
            records: 400,
            ops: 1_600,
            read_ratio,
            dist: KeyDist::zipfian(),
            key_len: 16,
            value_len: 32,
            seed: 3,
            mix: OpMix::ReadUpdate,
        }
    }

    #[test]
    fn baseline_get_put_roundtrip() {
        let mut c = BaselineCluster::build(BaselineConfig::memcached());
        let client = c.add_client(0);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let c2 = client.clone();
        client.kv_insert(
            &mut c.sim,
            b"k",
            b"v",
            Box::new(move |sim, r| {
                r.unwrap();
                c2.kv_get(
                    sim,
                    b"k",
                    Box::new(move |_, r| {
                        assert_eq!(r.unwrap().as_deref(), Some(b"v".as_slice()));
                        d.set(true);
                    }),
                );
            }),
        );
        c.sim.run();
        assert!(done.get());
        assert_eq!(c.total_items(), 1);
    }

    #[test]
    fn redis_shards_across_instances() {
        let mut c = BaselineCluster::build(BaselineConfig::redis());
        let clients: Vec<_> = (0..4).map(|i| c.add_client(i)).collect();
        let report = run_workload(&mut c.sim, &clients, &wl(0.9), &DriverConfig::default());
        assert!(report.ops > 1_000);
        // Keys must be spread over all 8 instances.
        let populated = c
            .servers
            .iter()
            .filter(|s| s.borrow().engine.borrow().len() > 10)
            .count();
        assert_eq!(populated, 8, "client-side sharding must hit every instance");
    }

    #[test]
    fn socket_baselines_have_socket_scale_latency() {
        let mut c = BaselineCluster::build(BaselineConfig::memcached());
        let clients: Vec<_> = (0..4).map(|i| c.add_client(i)).collect();
        let report = run_workload(&mut c.sim, &clients, &wl(0.9), &DriverConfig::default());
        assert!(
            report.get_mean_us > 50.0,
            "IPoIB round trip must dominate: {}us",
            report.get_mean_us
        );
    }

    #[test]
    fn ramcloud_is_faster_than_socket_baselines_but_uses_verbs() {
        let run = |cfg: BaselineConfig| {
            let mut c = BaselineCluster::build(cfg);
            let clients: Vec<_> = (0..4).map(|i| c.add_client(i)).collect();
            run_workload(&mut c.sim, &clients, &wl(1.0), &DriverConfig::default()).get_mean_us
        };
        let memcached = run(BaselineConfig::memcached());
        let redis = run(BaselineConfig::redis());
        let ramcloud = run(BaselineConfig::ramcloud());
        assert!(
            ramcloud < memcached / 5.0,
            "ramcloud {ramcloud}us vs memcached {memcached}us"
        );
        assert!(
            ramcloud < redis / 5.0,
            "ramcloud {ramcloud}us vs redis {redis}us"
        );
    }

    #[test]
    fn g2db_serializes_on_the_global_lock() {
        // Below saturation the socket RTT dominates and throughput scales
        // with clients; once offered load crosses the lock's ~1/op_ns
        // capacity it must flatline (that is Fig. 3's ceiling).
        let tput = |n: usize| {
            let mut c = BaselineCluster::build(BaselineConfig::g2db());
            let clients: Vec<_> = (0..n).map(|i| c.add_client(i)).collect();
            let w = Workload {
                ops: 6_000,
                ..wl(0.5)
            };
            run_workload(&mut c.sim, &clients, &w, &DriverConfig::default()).mops
        };
        let t8 = tput(8);
        let t64 = tput(64);
        // 8x the clients must give far less than 4x the throughput.
        assert!(
            t64 < t8 * 4.0,
            "lock-serialized DB cannot scale: t8={t8} t64={t64}"
        );
        // And the ceiling is the lock capacity (1 / 3.2us ~ 0.31 Mops).
        assert!(t64 < 0.35, "t64={t64} exceeds the lock capacity");
    }
}
