//! Figure 2 — MapReduce/Spark acceleration: job speedup of a HydraDB cache
//! layer (TCP and RDMA modes) over in-memory HDFS, per §2.1.
//!
//! Each job processes `B` HDFS blocks; a block is one 4 MiB key-value chunk
//! (the production integration splits a block into 4 MiB chunks — we use one
//! chunk per block at benchmark scale). I/O time is measured by replaying
//! the block reads/writes against each storage system; compute time per
//! block is the application model. Speedup = job time on in-memory HDFS /
//! job time on HydraDB.

use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig};
use hydra_fabric::Transport;
use hydra_sim::time::{as_secs, MS};
use hydra_sim::Sim;
use hydra_ycsb::{KvCb, KvClient};

use crate::baselines::{BaselineCluster, BaselineConfig, BaselineKind};
use crate::{in_sequence, Report, Scale};

const BLOCK: usize = 4 << 20; // 4 MiB chunks, as in §2.1

/// (name, blocks read, blocks written, compute per block)
fn apps(scale: Scale) -> Vec<(&'static str, u64, u64, u64)> {
    let b: u64 = match scale {
        Scale::Smoke => 4,
        Scale::Normal => 16,
        Scale::Paper => 64,
    };
    vec![
        ("Hadoop TestDFSIO-read", b, 0, 0),
        ("Hadoop DataLoading", 0, b, 0),
        ("Hadoop Aggregation", b, b / 4, 4 * MS),
        ("Hadoop WordCount", b, 0, 12 * MS),
        ("Spark Scan", b, 0, 25 * MS),
        ("Spark Iterative (5x)", 5 * b, 0, 45 * MS),
    ]
}

/// Through any KvClient, one block at a time: loads `preload` input
/// blocks, then reads `reads` of them and writes `writes` output blocks.
/// Returns the time of the reads and writes.
fn io_time<C: KvClient>(sim: &mut Sim, client: &C, preload: u64, reads: u64, writes: u64) -> u64 {
    let mut t0 = 0;
    for (reads, writes, out, fill) in [(0, preload, "block", 0xA5), (reads, writes, "out", 0x5A)] {
        t0 = sim.now();
        let client = client.clone();
        let done = in_sequence(sim, reads + writes, move |sim, i, next| {
            let cont: KvCb = Box::new(move |sim, r| {
                r.expect("block io succeeds");
                next(sim);
            });
            if i < reads {
                let key = format!("block-{:08}", i % reads.max(1));
                client.kv_get(sim, key.as_bytes(), cont);
            } else {
                let key = format!("{out}-{:08}", i - reads);
                client.kv_insert(sim, key.as_bytes(), &vec![fill; BLOCK], cont);
            }
        });
        sim.run();
        assert!(done.get());
    }
    sim.now() - t0
}

fn hdfs_io(reads: u64, writes: u64, preload_blocks: u64) -> u64 {
    // In-memory HDFS: socket path with JVM/checksum/copy overheads — the
    // per-byte cost of a 2015-era single-stream HDFS read (~0.45 GB/s).
    let fabric = hydra_fabric::FabricConfig {
        socket_byte_ns: 2.2,
        socket_op_ns: 60_000, // NameNode lookup + DataNode session per op
        ..Default::default()
    };
    let cfg = BaselineConfig {
        kind: BaselineKind::Memcached {
            threads: 8,
            lock_ns: 300,
            op_ns: 2_000,
        },
        instances: 1,
        arena_words: 1 << 26,
        fabric,
        ..BaselineConfig::memcached()
    };
    let mut c = BaselineCluster::build(cfg);
    let client = c.add_client(0);
    io_time(&mut c.sim, &client, preload_blocks, reads, writes)
}

fn hydra_io(rdma: bool, reads: u64, writes: u64, preload_blocks: u64) -> u64 {
    let cfg = ClusterConfig {
        server_nodes: 1,
        shards_per_node: 4,
        client_nodes: 1,
        client_mode: if rdma {
            ClientMode::RdmaWriteRead
        } else {
            ClientMode::SendRecv
        },
        transport: if rdma {
            Transport::Rdma
        } else {
            Transport::Socket
        },
        msg_slot_words: 1 << 20, // 8 MiB message slots for 4 MiB chunks
        arena_words: 1 << 25,    // 256 MiB per shard
        op_timeout_ns: 500 * MS, // large transfers over sockets are slow
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    io_time(&mut cluster.sim, &client, preload_blocks, reads, writes)
}

pub(crate) fn run(scale: Scale, report: &mut Report) {
    report.header(
        "application<24|HDFS_s>12.3|HydraTCP_s>12.3|HydraRDMA_s>12.3|spd_TCP>10|spd_RDMA>10",
    );
    for (name, reads, writes, compute) in apps(scale) {
        let preload_blocks = reads.max(1);
        let hdfs = hdfs_io(reads, writes, preload_blocks) + compute * (reads + writes);
        let tcp = hydra_io(false, reads, writes, preload_blocks) + compute * (reads + writes);
        let rdma = hydra_io(true, reads, writes, preload_blocks) + compute * (reads + writes);
        let (spd_tcp, spd_rdma) = (hdfs as f64 / tcp as f64, hdfs as f64 / rdma as f64);
        let [spd_tcp_x, spd_rdma_x] = [spd_tcp, spd_rdma].map(|s| format!("{s:.2}x"));
        let [hdfs_s, tcp_s, rdma_s] = [hdfs, tcp, rdma].map(as_secs);
        report.row(&[&name, &hdfs_s, &tcp_s, &rdma_s, &spd_tcp_x, &spd_rdma_x]);
        report.datum(
            name,
            serde_json::json!({
                "hdfs_s": hdfs_s,
                "hydra_tcp_s": tcp_s,
                "hydra_rdma_s": rdma_s,
                "speedup_tcp": spd_tcp,
                "speedup_rdma": spd_rdma,
            }),
        );
    }
    report.line("# paper anchors: I/O-bound Hadoop jobs up to 17.9x; Spark jobs 4%-41%; RDMA > TCP everywhere");
}
