//! The znode tree and sessions.

use std::collections::{BTreeMap, HashMap};

/// A client session. Ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Node creation modes, mirroring ZooKeeper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    Persistent,
    Ephemeral,
    PersistentSequential,
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
        matches!(
            self,
            CreateMode::PersistentSequential | CreateMode::EphemeralSequential
        )
    }
}

/// Znode metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Monotonic version, bumped on data changes.
    pub version: u64,
    /// Owning session for ephemerals.
    pub owner: Option<SessionId>,
}

/// Errors mirroring ZooKeeper's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
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
///
/// ```
/// use hydra_coord::{Coord, CreateMode};
///
/// let mut zk = Coord::new();
/// let session = zk.create_session(0, 1_000);
/// zk.create("/servers", vec![], CreateMode::Persistent, None).unwrap();
/// zk.create("/servers/shard-0", b"up".to_vec(), CreateMode::Ephemeral, Some(session)).unwrap();
/// assert!(zk.exists("/servers/shard-0"));
/// // The shard stops heartbeating; its ephemeral disappears on expiry.
/// zk.tick(2_000);
/// assert!(!zk.exists("/servers/shard-0"));
/// ```
#[derive(Debug, Default)]
pub struct Coord {
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
    pub fn new() -> Self {
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
    pub fn create_session(&mut self, now: u64, timeout: u64) -> SessionId {
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
    pub fn heartbeat(&mut self, session: SessionId, now: u64) -> Result<(), CoordError> {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_heartbeat = now;
                Ok(())
            }
            None => Err(CoordError::NoSession),
        }
    }

    /// Whether a session is currently live.
    pub fn session_alive(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    /// Expires sessions whose heartbeat lapsed, deleting their ephemerals.
    /// Call periodically (the ZooKeeper tick).
    pub fn tick(&mut self, now: u64) {
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
    pub fn expire_session(&mut self, session: SessionId) {
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
    pub fn create(
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
    pub fn delete(&mut self, path: &str) -> Result<(), CoordError> {
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
    pub fn set_data(&mut self, path: &str, data: Vec<u8>) -> Result<(), CoordError> {
        let z = self.znodes.get_mut(path).ok_or(CoordError::NoNode)?;
        z.data = data;
        z.version += 1;
        Ok(())
    }

    /// Reads a znode's data.
    pub fn get_data(&self, path: &str) -> Result<&[u8], CoordError> {
        self.znodes
            .get(path)
            .map(|z| z.data.as_slice())
            .ok_or(CoordError::NoNode)
    }

    /// Reads a znode's metadata.
    pub fn stat(&self, path: &str) -> Result<Stat, CoordError> {
        self.znodes
            .get(path)
            .map(|z| Stat {
                version: z.version,
                owner: z.owner,
            })
            .ok_or(CoordError::NoNode)
    }

    /// Whether a znode exists.
    pub fn exists(&self, path: &str) -> bool {
        self.znodes.contains_key(path)
    }

    /// Iterates the *names* (full paths) of `path`'s direct children, in
    /// lexicographic order.
    pub fn children<'a>(
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

    /// Collects children into a Vec (convenience).
    pub fn children_vec(&self, path: &str) -> Result<Vec<String>, CoordError> {
        Ok(self.children(path)?.map(|s| s.to_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Coord {
        Coord::new()
    }

    #[test]
    fn create_get_set_delete_cycle() {
        let mut z = c();
        let p = z
            .create("/a", b"one".to_vec(), CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(p, "/a");
        assert_eq!(z.get_data("/a").unwrap(), b"one");
        assert_eq!(z.stat("/a").unwrap().version, 0);
        z.set_data("/a", b"two".to_vec()).unwrap();
        assert_eq!(z.get_data("/a").unwrap(), b"two");
        assert_eq!(z.stat("/a").unwrap().version, 1);
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
        z.create("/q", vec![], CreateMode::Persistent, None)
            .unwrap();
        let p1 = z
            .create("/q/n-", vec![], CreateMode::PersistentSequential, None)
            .unwrap();
        let p2 = z
            .create("/q/n-", vec![], CreateMode::PersistentSequential, None)
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
        assert_eq!(z.children_vec("/a").unwrap(), vec!["/a/b", "/a/c"]);
        assert_eq!(z.children_vec("/").unwrap(), vec!["/a", "/ab"]);
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
