//! The znode tree, sessions and watches.

use std::collections::{BTreeMap, HashMap};

/// A client session. Ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Identifies the party that registered a watch; events are routed back to
/// it by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WatcherId(pub u64);

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

/// What happened at a watched path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Created,
    Deleted,
    DataChanged,
    ChildrenChanged,
}

/// A fired (one-shot) watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// The path the watch was registered on.
    pub path: String,
    /// What happened.
    pub kind: EventKind,
    /// Who registered the watch.
    pub watcher: WatcherId,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WatchType {
    Exists,
    Data,
    Children,
}

/// The coordination service. All mutating calls return the watch events they
/// fired; the embedding runtime routes them to watchers.
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
    watches: HashMap<String, Vec<(WatcherId, WatchType)>>,
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
    /// Returns fired watches. Call periodically (the ZooKeeper tick).
    pub fn tick(&mut self, now: u64) -> Vec<WatchEvent> {
        let expired: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.last_heartbeat.saturating_add(s.timeout) < now)
            .map(|(&id, _)| id)
            .collect();
        let mut events = Vec::new();
        for id in expired {
            events.extend(self.expire_session(id));
        }
        events
    }

    /// Forcibly expires a session (e.g. the simulator killing a process).
    pub fn expire_session(&mut self, session: SessionId) -> Vec<WatchEvent> {
        self.sessions.remove(&session);
        let owned: Vec<String> = self
            .znodes
            .iter()
            .filter(|(_, z)| z.owner == Some(session))
            .map(|(p, _)| p.clone())
            .collect();
        let mut events = Vec::new();
        // Delete deepest-first so parents empty out before their own delete.
        for path in owned.into_iter().rev() {
            if let Ok(ev) = self.delete(&path) {
                events.extend(ev);
            }
        }
        events
    }

    /// Creates a znode. For sequential modes the returned path carries the
    /// zero-padded sequence suffix.
    pub fn create(
        &mut self,
        path: &str,
        data: Vec<u8>,
        mode: CreateMode,
        session: Option<SessionId>,
    ) -> Result<(String, Vec<WatchEvent>), CoordError> {
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
        let mut events = self.fire(&actual, EventKind::Created, &[WatchType::Exists]);
        events.extend(self.fire(&parent, EventKind::ChildrenChanged, &[WatchType::Children]));
        Ok((actual, events))
    }

    /// Deletes a childless znode.
    pub fn delete(&mut self, path: &str) -> Result<Vec<WatchEvent>, CoordError> {
        if !self.znodes.contains_key(path) {
            return Err(CoordError::NoNode);
        }
        if self.children(path)?.next().is_some() {
            return Err(CoordError::NotEmpty);
        }
        self.znodes.remove(path);
        let mut events = self.fire(
            path,
            EventKind::Deleted,
            &[WatchType::Exists, WatchType::Data],
        );
        if let Some(parent) = parent_of(path) {
            let parent = parent.to_string();
            events.extend(self.fire(&parent, EventKind::ChildrenChanged, &[WatchType::Children]));
        }
        Ok(events)
    }

    /// Replaces a znode's data, bumping its version.
    pub fn set_data(&mut self, path: &str, data: Vec<u8>) -> Result<Vec<WatchEvent>, CoordError> {
        let z = self.znodes.get_mut(path).ok_or(CoordError::NoNode)?;
        z.data = data;
        z.version += 1;
        Ok(self.fire(path, EventKind::DataChanged, &[WatchType::Data]))
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

    /// Registers a one-shot watch fired when `path` is created or deleted.
    pub fn watch_exists(&mut self, path: &str, watcher: WatcherId) {
        self.watches
            .entry(path.to_string())
            .or_default()
            .push((watcher, WatchType::Exists));
    }

    /// Registers a one-shot watch fired when `path`'s data changes or it is
    /// deleted.
    pub fn watch_data(&mut self, path: &str, watcher: WatcherId) {
        self.watches
            .entry(path.to_string())
            .or_default()
            .push((watcher, WatchType::Data));
    }

    /// Registers a one-shot watch fired when `path`'s children change.
    pub fn watch_children(&mut self, path: &str, watcher: WatcherId) {
        self.watches
            .entry(path.to_string())
            .or_default()
            .push((watcher, WatchType::Children));
    }

    fn fire(&mut self, path: &str, kind: EventKind, types: &[WatchType]) -> Vec<WatchEvent> {
        let Some(list) = self.watches.get_mut(path) else {
            return Vec::new();
        };
        let mut fired = Vec::new();
        list.retain(|(watcher, ty)| {
            if types.contains(ty) {
                fired.push(WatchEvent {
                    path: path.to_string(),
                    kind,
                    watcher: *watcher,
                });
                false // one-shot
            } else {
                true
            }
        });
        if list.is_empty() {
            self.watches.remove(path);
        }
        fired
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
        let (p, _) = z
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
        let (p1, _) = z
            .create("/q/n-", vec![], CreateMode::PersistentSequential, None)
            .unwrap();
        let (p2, _) = z
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
        assert!(!z.tick(140).is_empty() || z.exists("/live"));
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
    fn exists_watch_fires_once_on_create_and_delete() {
        let mut z = c();
        let w = WatcherId(1);
        z.watch_exists("/a", w);
        let (_, ev) = z
            .create("/a", vec![], CreateMode::Persistent, None)
            .unwrap();
        assert_eq!(
            ev,
            vec![WatchEvent {
                path: "/a".into(),
                kind: EventKind::Created,
                watcher: w
            }]
        );
        // One-shot: the delete does not re-fire unless re-registered.
        let ev = z.delete("/a").unwrap();
        assert!(ev.is_empty());
    }

    #[test]
    fn data_watch_fires_on_set_and_delete() {
        let mut z = c();
        z.create("/d", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.watch_data("/d", WatcherId(7));
        let ev = z.set_data("/d", b"x".to_vec()).unwrap();
        assert_eq!(ev[0].kind, EventKind::DataChanged);
        z.watch_data("/d", WatcherId(7));
        let ev = z.delete("/d").unwrap();
        assert_eq!(ev[0].kind, EventKind::Deleted);
    }

    #[test]
    fn children_watch_fires_on_membership_change() {
        let mut z = c();
        z.create("/servers", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.watch_children("/servers", WatcherId(3));
        let (_, ev) = z
            .create("/servers/s1", vec![], CreateMode::Persistent, None)
            .unwrap();
        assert!(ev
            .iter()
            .any(|e| e.path == "/servers" && e.kind == EventKind::ChildrenChanged));
    }

    #[test]
    fn session_expiry_fires_watches_on_ephemerals() {
        let mut z = c();
        let s = z.create_session(0, 10);
        z.create("/servers", vec![], CreateMode::Persistent, None)
            .unwrap();
        z.create("/servers/shard0", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        z.watch_exists("/servers/shard0", WatcherId(9));
        z.watch_children("/servers", WatcherId(9));
        let ev = z.tick(100);
        assert!(ev
            .iter()
            .any(|e| e.kind == EventKind::Deleted && e.path == "/servers/shard0"));
        assert!(ev
            .iter()
            .any(|e| e.kind == EventKind::ChildrenChanged && e.path == "/servers"));
    }

    #[test]
    fn forced_expiry_cleans_nested_ephemerals() {
        let mut z = c();
        let s = z.create_session(0, 1_000);
        z.create("/a", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        z.create("/a/b", vec![], CreateMode::Ephemeral, Some(s))
            .unwrap();
        let _ = z.expire_session(s);
        assert!(!z.exists("/a"));
        assert!(!z.exists("/a/b"));
    }
}
