//! Leader election via ephemeral-sequential znodes — the standard ZooKeeper
//! recipe, used for the SWAT leader (§5.1: "In the case of SWAT leader
//! failure, a new leader from the SWAT group is elected and takes over").
//!
//! Each candidate creates `/prefix/member-<seq>` (ephemeral sequential). The
//! candidate owning the lowest sequence is the leader; when its session ends
//! its znode goes with it and the next sequence leads. Candidates ask
//! ([`LeaderElection::is_leader`]) rather than being told: the cluster's SWAT
//! members poll on their tick.

use super::tree::{Coord, CoordError, CreateMode, SessionId};

/// One candidate's handle into an election.
#[derive(Debug, Clone)]
pub(crate) struct LeaderElection {
    /// Election root, e.g. `/swat/election`.
    prefix: String,
    /// This candidate's znode path.
    pub me: String,
}

impl LeaderElection {
    /// Joins the election rooted at `prefix` (created if missing).
    pub(crate) fn join(
        coord: &mut Coord,
        prefix: &str,
        session: SessionId,
        data: Vec<u8>,
    ) -> Result<LeaderElection, CoordError> {
        if !coord.exists(prefix) {
            // Create missing ancestors (prefix paths are short and static).
            let mut built = String::new();
            for seg in prefix.split('/').filter(|s| !s.is_empty()) {
                built.push('/');
                built.push_str(seg);
                if !coord.exists(&built) {
                    coord.create(&built, Vec::new(), CreateMode::Persistent, None)?;
                }
            }
        }
        let me = coord.create(
            &format!("{prefix}/member-"),
            data,
            CreateMode::EphemeralSequential,
            Some(session),
        )?;
        Ok(LeaderElection {
            prefix: prefix.to_string(),
            me,
        })
    }

    /// Whether this candidate currently leads (owns the lowest sequence).
    pub(crate) fn is_leader(&self, coord: &Coord) -> Result<bool, CoordError> {
        let mut children = coord.children(&self.prefix)?;
        match children.next() {
            Some(first) => Ok(first == self.me),
            None => Err(CoordError::NoNode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_sequence_leads() {
        let mut z = Coord::new();
        let s1 = z.create_session(0, 1_000);
        let s2 = z.create_session(0, 1_000);
        let e1 = LeaderElection::join(&mut z, "/swat/election", s1, b"node1".to_vec()).unwrap();
        let e2 = LeaderElection::join(&mut z, "/swat/election", s2, b"node2".to_vec()).unwrap();
        assert!(e1.is_leader(&z).unwrap());
        assert!(!e2.is_leader(&z).unwrap());
        assert_eq!(z.get_data(&e1.me).unwrap(), b"node1");
    }

    #[test]
    fn successor_takes_over_on_session_expiry() {
        let mut z = Coord::new();
        let s1 = z.create_session(0, 100);
        let s2 = z.create_session(0, 10_000);
        let e1 = LeaderElection::join(&mut z, "/el", s1, vec![]).unwrap();
        let e2 = LeaderElection::join(&mut z, "/el", s2, vec![]).unwrap();
        assert!(e1.is_leader(&z).unwrap());
        // Leader's session dies.
        z.tick(10_000);
        assert!(!z.exists(&e1.me));
        assert!(e2.is_leader(&z).unwrap());
    }

    #[test]
    fn empty_election_reports_no_leader() {
        let mut z = Coord::new();
        let s = z.create_session(0, 1_000);
        let e = LeaderElection::join(&mut z, "/el", s, vec![]).unwrap();
        // The only candidate's session expires, taking its znode along.
        z.tick(10_000);
        assert!(!z.exists(&e.me));
        assert_eq!(e.is_leader(&z).unwrap_err(), CoordError::NoNode);
    }
}
