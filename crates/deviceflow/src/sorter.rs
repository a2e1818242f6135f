//! The Sorter: routes incoming messages to per-task shelves.

use std::collections::BTreeMap;

use simdc_types::{Message, TaskId};

use crate::shelf::Shelf;

/// Receives messages from the computation clusters and stores each on the
/// shelf selected by the message's `task_id` (Fig 4). Shelves are created
/// on demand, so tasks that never registered a strategy still buffer
/// safely.
#[derive(Debug, Default)]
pub struct Sorter {
    shelves: BTreeMap<TaskId, Shelf>,
}

impl Sorter {
    /// Creates an empty sorter.
    #[must_use]
    pub fn new() -> Self {
        Sorter::default()
    }

    /// Routes a message to its task's shelf, creating the shelf if needed.
    /// Returns the shelf for follow-up inspection.
    pub fn route(&mut self, message: Message) -> &mut Shelf {
        let task = message.task;
        let shelf = self.shelves.entry(task).or_insert_with(|| Shelf::new(task));
        shelf.push(message);
        shelf
    }

    /// The shelf of `task`, if any messages ever arrived or
    /// [`Sorter::ensure_shelf`] was called.
    #[must_use]
    pub fn shelf(&self, task: TaskId) -> Option<&Shelf> {
        self.shelves.get(&task)
    }

    /// Mutable shelf access.
    pub fn shelf_mut(&mut self, task: TaskId) -> Option<&mut Shelf> {
        self.shelves.get_mut(&task)
    }

    /// Creates the shelf for `task` eagerly (idempotent).
    pub fn ensure_shelf(&mut self, task: TaskId) -> &mut Shelf {
        self.shelves.entry(task).or_insert_with(|| Shelf::new(task))
    }

    /// Removes the shelf of `task`, returning it with whatever messages it
    /// still held.
    pub fn remove(&mut self, task: TaskId) -> Option<Shelf> {
        self.shelves.remove(&task)
    }

    /// Number of shelves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shelves.len()
    }

    /// Whether no shelf exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shelves.is_empty()
    }

    /// Iterates over `(task, shelf)` in task order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Shelf)> {
        self.shelves.iter().map(|(&t, s)| (t, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::{DeviceId, MessageId, RoundId, SimInstant, StorageKey};

    fn msg(task: u64, i: u64) -> Message {
        Message::model_update(
            MessageId(i),
            TaskId(task),
            DeviceId(i),
            RoundId(0),
            10,
            StorageKey::for_update(TaskId(task), RoundId(0), DeviceId(i)),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn routes_by_task_id() {
        let mut sorter = Sorter::new();
        sorter.route(msg(1, 0));
        sorter.route(msg(2, 1));
        sorter.route(msg(1, 2));
        assert_eq!(sorter.len(), 2);
        assert_eq!(sorter.shelf(TaskId(1)).unwrap().len(), 2);
        assert_eq!(sorter.shelf(TaskId(2)).unwrap().len(), 1);
        assert!(sorter.shelf(TaskId(3)).is_none());
    }

    #[test]
    fn shelves_isolate_tasks() {
        let mut sorter = Sorter::new();
        sorter.route(msg(1, 0));
        sorter.route(msg(2, 1));
        let taken = sorter.shelf_mut(TaskId(1)).unwrap().take(10);
        assert_eq!(taken.len(), 1);
        // Task 2's shelf is untouched.
        assert_eq!(sorter.shelf(TaskId(2)).unwrap().len(), 1);
    }

    #[test]
    fn ensure_shelf_is_idempotent() {
        let mut sorter = Sorter::new();
        sorter.ensure_shelf(TaskId(5));
        sorter.ensure_shelf(TaskId(5));
        assert_eq!(sorter.len(), 1);
        assert!(sorter.shelf(TaskId(5)).unwrap().is_empty());
    }
}
