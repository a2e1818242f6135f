//! D3 fixture: lifecycle discipline violations.

use crate::queue::TaskState;

/// Completes a task by poking its fields directly.
pub fn finish(record: &mut Record, rm: &mut ResourceManager, id: u64) {
    record.state = TaskState::Completed;
    rm.release(id);
}

/// Admits a task without going through the scheduler pass.
pub fn admit(rm: &mut ResourceManager, id: u64, claim: Claim) {
    let _ = rm.freeze(id, claim);
}

impl Platform {
    /// Releases through a renamed binding: no receiver is called `rm`,
    /// but the file names `ResourceManager`.
    pub fn drop_lease(&mut self, id: u64) {
        let leases = &mut self.rm;
        leases.release(id);
    }
}
