//! ZooKeeper's sessions, the one part of its data model HydraDB's HA layer
//! (§5.1) reads.
//!
//! The paper deploys a 3–5 node ZooKeeper ensemble for the SWAT (Status
//! Watcher and reAct Team) group. What the cluster consumes from it is two
//! facts: a session lives until its heartbeats lapse or SWAT expires it, and
//! the earliest-joined SWAT member with a live session leads
//! (`HaState::swat_leader_idx`) — the ephemeral-sequential election recipe,
//! whose zero-padded znodes sort in join order and die with their sessions.
//! Shard liveness is not kept here: a secondary's RDMA-read probe reports a
//! silent primary (DESIGN.md §16). The table is a deterministic state machine
//! driven by explicit timestamps, so it runs identically under the
//! discrete-event simulator and in plain unit tests. The replicated-consensus
//! internals of ZooKeeper are out of scope (DESIGN.md §1).

/// A coordination session, numbered densely from 0 in opening order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

struct Session {
    last_heartbeat: u64,
    timeout: u64,
}

/// The session table: slot `i` is session `i`, `None` once it ended. Ids are
/// never reused.
#[derive(Default)]
pub(crate) struct Coord {
    sessions: Vec<Option<Session>>,
}

impl Coord {
    /// Opens a session with the given heartbeat timeout (`u64::MAX`: the
    /// session never lapses and ends only by
    /// [`expire_session`](Self::expire_session)).
    pub(crate) fn create_session(&mut self, now: u64, timeout: u64) -> SessionId {
        self.sessions.push(Some(Session {
            last_heartbeat: now,
            timeout,
        }));
        SessionId(self.sessions.len() as u64 - 1)
    }

    /// Refreshes a live session; an ended one stays ended.
    pub(crate) fn heartbeat(&mut self, session: SessionId, now: u64) {
        if let Some(Some(s)) = self.sessions.get_mut(session.0 as usize) {
            s.last_heartbeat = now;
        }
    }

    /// Whether a session is currently live.
    pub(crate) fn session_alive(&self, session: SessionId) -> bool {
        matches!(self.sessions.get(session.0 as usize), Some(Some(_)))
    }

    /// Ends every session whose heartbeat lapsed before `now`. Call
    /// periodically (the ZooKeeper tick).
    pub(crate) fn tick(&mut self, now: u64) {
        for slot in &mut self.sessions {
            if slot
                .as_ref()
                .is_some_and(|s| s.last_heartbeat.saturating_add(s.timeout) < now)
            {
                *slot = None;
            }
        }
    }

    /// Ends a session at once (SWAT deposing a primary, a fault plan killing
    /// a SWAT member).
    pub(crate) fn expire_session(&mut self, session: SessionId) {
        if let Some(slot) = self.sessions.get_mut(session.0 as usize) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_lapses_after_its_timeout_and_not_before() {
        let mut c = Coord::default();
        let s = c.create_session(0, 100);
        c.tick(100);
        assert!(c.session_alive(s), "0 + 100 is not before 100");
        c.tick(101);
        assert!(!c.session_alive(s));
    }

    #[test]
    fn a_heartbeat_extends_the_session() {
        let mut c = Coord::default();
        let s = c.create_session(0, 100);
        c.heartbeat(s, 50);
        c.tick(140);
        // At t=140 heartbeat(50)+timeout(100)=150 >= 140 -> still alive.
        assert!(c.session_alive(s));
        c.tick(151);
        assert!(!c.session_alive(s));
        // An ended session stays ended.
        c.heartbeat(s, 160);
        assert!(!c.session_alive(s));
    }

    #[test]
    fn an_untimed_session_ends_only_when_expired() {
        let mut c = Coord::default();
        let s = c.create_session(7, u64::MAX);
        c.tick(u64::MAX);
        assert!(c.session_alive(s));
        c.expire_session(s);
        assert!(!c.session_alive(s));
    }

    #[test]
    fn unknown_or_ended_ids_are_not_live() {
        let mut c = Coord::default();
        assert!(!c.session_alive(SessionId(0)));
        let a = c.create_session(0, 1_000);
        let b = c.create_session(0, 1_000);
        assert_eq!((a, b), (SessionId(0), SessionId(1)));
        c.expire_session(a);
        c.expire_session(SessionId(9));
        c.heartbeat(SessionId(u64::MAX), 5);
        assert!(!c.session_alive(a));
        assert!(c.session_alive(b));
        assert!(!c.session_alive(SessionId(2)));
        assert!(!c.session_alive(SessionId(u64::MAX)));
        // Ids are never reused.
        assert_eq!(c.create_session(0, 1_000), SessionId(2));
    }
}
