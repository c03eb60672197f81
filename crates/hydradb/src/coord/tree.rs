//! The znode tree and sessions.

use std::collections::{BTreeMap, HashMap};

/// A client session. Ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Node creation modes, mirroring ZooKeeper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CreateMode {
    Persistent,
    Ephemeral,
    EphemeralSequential,
}

impl CreateMode {
    fn is_ephemeral(self) -> bool {
        matches!(
            self,
            CreateMode::Ephemeral | CreateMode::EphemeralSequential
        )
    }

    fn is_sequential(self) -> bool {
        matches!(self, CreateMode::EphemeralSequential)
    }
}

/// Errors mirroring ZooKeeper's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CoordError {
    /// Path does not exist (or parent missing on create).
    NoNode,
    /// Create collided with an existing node.
    NodeExists,
    /// Delete of a node that still has children.
    NotEmpty,
    /// Operation referenced an expired or unknown session.
    NoSession,
    /// Malformed path (must start with '/', no trailing '/').
    BadPath,
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CoordError::NoNode => "no such znode",
            CoordError::NodeExists => "znode already exists",
            CoordError::NotEmpty => "znode has children",
            CoordError::NoSession => "unknown or expired session",
            CoordError::BadPath => "malformed path",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CoordError {}

#[derive(Debug, Clone)]
struct Znode {
    data: Vec<u8>,
    version: u64,
    owner: Option<SessionId>,
    /// Per-parent sequential counter (only meaningful on parents).
    seq_counter: u64,
}

#[derive(Debug, Clone)]
struct Session {
    last_heartbeat: u64,
    timeout: u64,
}

/// The coordination service.
#[derive(Debug, Default)]
pub(crate) struct Coord {
    znodes: BTreeMap<String, Znode>,
    sessions: HashMap<SessionId, Session>,
    next_session: u64,
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    let idx = path.rfind('/')?;
    Some(if idx == 0 { "/" } else { &path[..idx] })
}

fn valid_path(path: &str) -> bool {
    path == "/" || (path.starts_with('/') && !path.ends_with('/') && !path.contains("//"))
}

impl Coord {
    /// Creates a service containing only the root znode.
    pub(crate) fn new() -> Self {
        let mut c = Coord::default();
        c.znodes.insert(
            "/".to_string(),
            Znode {
                data: Vec::new(),
                version: 0,
                owner: None,
                seq_counter: 0,
            },
        );
        c
    }

    /// Opens a session with the given heartbeat timeout (`u64::MAX`: the
    /// session never lapses and ends only by
    /// [`expire_session`](Self::expire_session)).
    pub(crate) fn create_session(&mut self, now: u64, timeout: u64) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                last_heartbeat: now,
                timeout,
            },
        );
        id
    }

    /// Refreshes a session's liveness.
    pub(crate) fn heartbeat(&mut self, session: SessionId, now: u64) -> Result<(), CoordError> {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_heartbeat = now;
                Ok(())
            }
            None => Err(CoordError::NoSession),
        }
    }

    /// Whether a session is currently live.
    pub(crate) fn session_alive(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    /// Expires sessions whose heartbeat lapsed, deleting their ephemerals.
    /// Call periodically (the ZooKeeper tick).
    pub(crate) fn tick(&mut self, now: u64) {
        let expired: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.last_heartbeat.saturating_add(s.timeout) < now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.expire_session(id);
        }
    }

    /// Forcibly expires a session (e.g. the simulator killing a process).
    pub(crate) fn expire_session(&mut self, session: SessionId) {
        self.sessions.remove(&session);
        let owned: Vec<String> = self
            .znodes
            .iter()
            .filter(|(_, z)| z.owner == Some(session))
            .map(|(p, _)| p.clone())
            .collect();
        // Delete deepest-first so parents empty out before their own
        // delete; one that still has another session's child stays.
        for path in owned.into_iter().rev() {
            let _ = self.delete(&path);
        }
    }

    /// Creates a znode. For sequential modes the returned path carries the
    /// zero-padded sequence suffix.
    pub(crate) fn create(
        &mut self,
        path: &str,
        data: Vec<u8>,
        mode: CreateMode,
        session: Option<SessionId>,
    ) -> Result<String, CoordError> {
        if !valid_path(path) || path == "/" {
            return Err(CoordError::BadPath);
        }
        if mode.is_ephemeral() {
            match session {
                Some(s) if self.sessions.contains_key(&s) => {}
                _ => return Err(CoordError::NoSession),
            }
        }
        let parent = parent_of(path).ok_or(CoordError::BadPath)?.to_string();
        if !self.znodes.contains_key(&parent) {
            return Err(CoordError::NoNode);
        }
        let actual = if mode.is_sequential() {
            let p = self.znodes.get_mut(&parent).expect("parent exists");
            let seq = p.seq_counter;
            p.seq_counter += 1;
            format!("{path}{seq:010}")
        } else {
            if self.znodes.contains_key(path) {
                return Err(CoordError::NodeExists);
            }
            path.to_string()
        };
        self.znodes.insert(
            actual.clone(),
            Znode {
                data,
                version: 0,
                owner: if mode.is_ephemeral() { session } else { None },
                seq_counter: 0,
            },
        );
        Ok(actual)
    }

    /// Deletes a childless znode.
    pub(crate) fn delete(&mut self, path: &str) -> Result<(), CoordError> {
        if !self.znodes.contains_key(path) {
            return Err(CoordError::NoNode);
        }
        if self.children(path)?.next().is_some() {
            return Err(CoordError::NotEmpty);
        }
        self.znodes.remove(path);
        Ok(())
    }

    /// Replaces a znode's data, bumping its version.
    pub(crate) fn set_data(&mut self, path: &str, data: Vec<u8>) -> Result<(), CoordError> {
        let z = self.znodes.get_mut(path).ok_or(CoordError::NoNode)?;
        z.data = data;
        z.version += 1;
        Ok(())
    }

    /// Reads a znode's data.
    pub(crate) fn get_data(&self, path: &str) -> Result<&[u8], CoordError> {
        self.znodes
            .get(path)
            .map(|z| z.data.as_slice())
            .ok_or(CoordError::NoNode)
    }

    /// Whether a znode exists.
    pub(crate) fn exists(&self, path: &str) -> bool {
        self.znodes.contains_key(path)
    }

    /// Iterates the *names* (full paths) of `path`'s direct children, in
    /// lexicographic order.
    pub(crate) fn children<'a>(
        &'a self,
        path: &'a str,
    ) -> Result<impl Iterator<Item = &'a str> + 'a, CoordError> {
        if !self.znodes.contains_key(path) {
            return Err(CoordError::NoNode);
        }
        let prefix = if path == "/" {
            String::from("/")
        } else {
            format!("{path}/")
        };
        let range_start = prefix.clone();
        let prefix2 = prefix.clone();
        Ok(self
            .znodes
            .range(range_start..)
            .take_while(move |(p, _)| p.starts_with(&prefix))
            .filter(move |(p, _)| {
                let rest = &p[prefix2.len()..];
                !rest.is_empty() && !rest.contains('/')
            })
            .map(|(p, _)| p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Coord {
        Coord::new()
    }

    fn version(z: &Coord, path: &str) -> u64 {
        z.znodes[path].version
    }

    fn children(z: &Coord, path: &str) -> Vec<String> {
        z.children(path).unwrap().map(str::to_string).collect()
    }

    #[test]
    fn create_get_set_delete_cycle() {
        let mut z = c();
        let p = z
            .create("/a", b"one".to_vec(), CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(p, "/a");
        assert_eq!(z.get_data("/a").unwrap(), b"one");
        assert_eq!(version(&z, "/a"), 0);
        z.set_data("/a", b"two".to_vec()).unwrap();
        assert_eq!(z.get_data("/a").unwrap(), b"two");
        assert_eq!(version(&z, "/a"), 1);
        z.delete("/a").unwrap();
        assert_eq!(z.get_data("/a").unwrap_err(), CoordError::NoNode);
    }

    #[test]
    fn create_requires_parent_and_uniqueness() {
        let mut z = c();
        assert_eq!(
            z.create("/x/y", vec![], CreateMode::Persistent, None)
                .unwrap_err(),
            CoordError::NoNode
        );
        z.create("/x", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/x/y", vec![], CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(
            z.create("/x", vec![], CreateMode::Persistent, None)
                .unwrap_err(),
            CoordError::NodeExists
        );
    }

    #[test]
    fn bad_paths_rejected() {
        let mut z = c();
        for p in ["", "a", "/a/", "//a", "/"] {
            assert_eq!(
                z.create(p, vec![], CreateMode::Persistent, None)
                    .unwrap_err(),
                CoordError::BadPath,
                "path {p:?}"
            );
        }
    }

    #[test]
    fn delete_with_children_refused() {
        let mut z = c();
        z.create("/a", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/a/b", vec![], CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(z.delete("/a").unwrap_err(), CoordError::NotEmpty);
        z.delete("/a/b").unwrap();
        z.delete("/a").unwrap();
    }

    #[test]
    fn sequential_nodes_get_increasing_suffixes() {
        let mut z = c();
        let s = z.create_session(0, 1_000);
        z.create("/q", vec![], CreateMode::Persistent, None)
            .unwrap();
        let p1 = z
            .create("/q/n-", vec![], CreateMode::EphemeralSequential, Some(s))
            .unwrap();
        let p2 = z
            .create("/q/n-", vec![], CreateMode::EphemeralSequential, Some(s))
            .unwrap();
        assert_eq!(p1, "/q/n-0000000000");
        assert_eq!(p2, "/q/n-0000000001");
        assert!(p1 < p2);
    }

    #[test]
    fn children_enumeration_is_direct_only_and_sorted() {
        let mut z = c();
        z.create("/a", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/a/c", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/a/b", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/a/b/deep", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/ab", vec![], CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(children(&z, "/a"), vec!["/a/b", "/a/c"]);
        assert_eq!(children(&z, "/"), vec!["/a", "/ab"]);
    }

    #[test]
    fn ephemerals_die_with_their_session() {
        let mut z = c();
        let s = z.create_session(0, 100);
        z.create("/live", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        assert!(z.exists("/live"));
        z.heartbeat(s, 50).unwrap();
        z.tick(140);
        // At t=140 heartbeat(50)+timeout(100)=150 >= 140 -> still alive.
        assert!(z.exists("/live"));
        z.tick(151);
        assert!(!z.exists("/live"), "session expiry must delete ephemerals");
        assert!(!z.session_alive(s));
        assert_eq!(z.heartbeat(s, 160).unwrap_err(), CoordError::NoSession);
    }

    #[test]
    fn an_ephemeral_under_a_persistent_parent_dies_on_expiry() {
        let mut zk = c();
        let session = zk.create_session(0, 1_000);
        zk.create("/servers", vec![], CreateMode::Persistent, None)
            .unwrap();
        zk.create(
            "/servers/shard-0",
            b"up".to_vec(),
            CreateMode::Ephemeral,
            Some(session),
        )
        .unwrap();
        assert!(zk.exists("/servers/shard-0"));
        // The shard stops heartbeating; its ephemeral disappears on expiry.
        zk.tick(2_000);
        assert!(!zk.exists("/servers/shard-0"));
        assert!(zk.exists("/servers"));
    }

    #[test]
    fn ephemeral_without_session_rejected() {
        let mut z = c();
        assert_eq!(
            z.create("/e", vec![], CreateMode::Ephemeral, None)
                .unwrap_err(),
            CoordError::NoSession
        );
    }

    #[test]
    fn forced_expiry_cleans_nested_ephemerals() {
        let mut z = c();
        let s = z.create_session(0, 1_000);
        z.create("/a", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        z.create("/a/b", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        z.expire_session(s);
        assert!(!z.exists("/a"));
        assert!(!z.exists("/a/b"));
    }
}

/// Property tests: arbitrary operation sequences must preserve the tree
/// invariants ZooKeeper guarantees.
#[cfg(test)]
mod proptests {
    use super::*;
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
                        let before = c.znodes.get(&path).map(|z| z.version);
                        match c.set_data(&path, d.clone()) {
                            Ok(_) => {
                                prop_assert_eq!(c.get_data(&path).unwrap(), d.as_slice());
                                prop_assert_eq!(
                                    c.znodes[&path].version,
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
                    if let Ok(children) = c.children(parent) {
                        for ch in children {
                            prop_assert!(c.exists(ch));
                            prop_assert!(c.exists(parent));
                        }
                    }
                }
                // Invariant 2: expired sessions own nothing.
                for (i, &s) in sessions.iter().enumerate() {
                    if !c.session_alive(s) {
                        for parent in ["/", "/a", "/b", "/a/sub"] {
                            if let Ok(children) = c.children(parent) {
                                for ch in children {
                                    prop_assert_ne!(
                                        c.znodes[ch].owner,
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

        #[test]
        fn sequential_numbers_strictly_increase(n in 2usize..30) {
            let mut c = Coord::new();
            let s = c.create_session(0, 1_000);
            c.create("/q", vec![], CreateMode::Persistent, None).unwrap();
            let mut last = String::new();
            for _ in 0..n {
                let p = c.create("/q/x-", vec![], CreateMode::EphemeralSequential, Some(s)).unwrap();
                prop_assert!(p > last, "{p} !> {last}");
                last = p;
            }
            prop_assert_eq!(c.children("/q").unwrap().count(), n);
        }
    }
}
