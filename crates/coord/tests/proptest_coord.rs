//! Property tests for the coordination kernel: arbitrary operation
//! sequences must preserve the tree invariants ZooKeeper guarantees.

use hydra_coord::{Coord, CoordError, CreateMode, SessionId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u8, u8, bool), // parent-slot, name-slot, ephemeral
    Delete(u8, u8),
    SetData(u8, u8, Vec<u8>),
    Heartbeat(u8),
    Tick(u64),
    ExpireSession(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(p, n, e)| Op::Create(
                p % 4,
                n % 8,
                e
            )),
            (any::<u8>(), any::<u8>()).prop_map(|(p, n)| Op::Delete(p % 4, n % 8)),
            (
                any::<u8>(),
                any::<u8>(),
                proptest::collection::vec(any::<u8>(), 0..16)
            )
                .prop_map(|(p, n, d)| Op::SetData(p % 4, n % 8, d)),
            any::<u8>().prop_map(|s| Op::Heartbeat(s % 3)),
            (1u64..200).prop_map(Op::Tick),
            any::<u8>().prop_map(|s| Op::ExpireSession(s % 3)),
        ],
        1..200,
    )
}

fn parent_path(p: u8) -> String {
    match p {
        0 => "/a".to_string(),
        1 => "/b".to_string(),
        2 => "/a/sub".to_string(),
        _ => "/".to_string(),
    }
}

fn child_path(p: u8, n: u8) -> String {
    let parent = parent_path(p);
    if parent == "/" {
        format!("/n{n}")
    } else {
        format!("{parent}/n{n}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tree_invariants_hold(ops in ops()) {
        let mut c = Coord::new();
        let mut now = 0u64;
        let sessions: Vec<SessionId> = (0..3).map(|_| c.create_session(0, 100)).collect();
        c.create("/a", vec![], CreateMode::Persistent, None).unwrap();
        c.create("/b", vec![], CreateMode::Persistent, None).unwrap();
        c.create("/a/sub", vec![], CreateMode::Persistent, None).unwrap();

        for op in ops {
            match op {
                Op::Create(p, n, eph) => {
                    let path = child_path(p, n);
                    let mode = if eph { CreateMode::Ephemeral } else { CreateMode::Persistent };
                    let session = if eph { Some(sessions[(n % 3) as usize]) } else { None };
                    match c.create(&path, vec![n], mode, session) {
                        Ok(actual) => prop_assert_eq!(actual, path),
                        Err(CoordError::NodeExists | CoordError::NoNode | CoordError::NoSession) => {}
                        Err(e) => prop_assert!(false, "unexpected {e:?}"),
                    }
                }
                Op::Delete(p, n) => {
                    let path = child_path(p, n);
                    match c.delete(&path) {
                        Ok(_) | Err(CoordError::NoNode) | Err(CoordError::NotEmpty) => {}
                        Err(e) => prop_assert!(false, "unexpected {e:?}"),
                    }
                }
                Op::SetData(p, n, d) => {
                    let path = child_path(p, n);
                    let before = c.stat(&path).map(|s| s.version);
                    match c.set_data(&path, d.clone()) {
                        Ok(_) => {
                            prop_assert_eq!(c.get_data(&path).unwrap(), d.as_slice());
                            prop_assert_eq!(
                                c.stat(&path).unwrap().version,
                                before.unwrap() + 1,
                                "version must bump"
                            );
                        }
                        Err(CoordError::NoNode) => {}
                        Err(e) => prop_assert!(false, "unexpected {e:?}"),
                    }
                }
                Op::Heartbeat(s) => {
                    let _ = c.heartbeat(sessions[s as usize], now);
                }
                Op::Tick(dt) => {
                    now += dt;
                    c.tick(now);
                }
                Op::ExpireSession(s) => {
                    c.expire_session(sessions[s as usize]);
                }
            }
            // Invariant 1: every node's parent exists.
            for parent in ["/a", "/b", "/a/sub"] {
                if let Ok(children) = c.children_vec(parent) {
                    for ch in children {
                        prop_assert!(c.exists(&ch));
                        prop_assert!(c.exists(parent));
                    }
                }
            }
            // Invariant 2: expired sessions own nothing.
            for (i, &s) in sessions.iter().enumerate() {
                if !c.session_alive(s) {
                    for parent in ["/", "/a", "/b", "/a/sub"] {
                        if let Ok(children) = c.children_vec(parent) {
                            for ch in children {
                                if let Ok(st) = c.stat(&ch) {
                                    prop_assert_ne!(
                                        st.owner,
                                        Some(s),
                                        "dead session {} still owns {}",
                                        i,
                                        ch
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_numbers_strictly_increase(n in 2usize..30) {
        let mut c = Coord::new();
        c.create("/q", vec![], CreateMode::Persistent, None).unwrap();
        let mut last = String::new();
        for _ in 0..n {
            let p = c.create("/q/x-", vec![], CreateMode::PersistentSequential, None).unwrap();
            prop_assert!(p > last, "{p} !> {last}");
            last = p;
        }
        prop_assert_eq!(c.children_vec("/q").unwrap().len(), n);
    }
}
