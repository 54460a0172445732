//! Snapshot-consistent mutation: copy-on-write database epochs.
//!
//! A [`SnapshotStore`] lets writers mutate the database while queries are
//! in flight, without locks on the read path and without torn reads. The
//! store holds the current epoch as an `Arc<Database>`; readers call
//! [`SnapshotStore::snapshot`] once per request and keep that `Arc` for
//! the request's whole lifetime, so they observe one immutable epoch
//! end-to-end. Writers go through [`SnapshotStore::update`], which clones
//! the current epoch (cheap — tables are `Arc`-shared, see
//! [`Database::table`]'s copy-on-write note), applies the mutation to the
//! private clone, and publishes it atomically as the next epoch.
//!
//! Consistency follows from immutability: an epoch, once published, is
//! never mutated again, so a reader sees the *old* database or the *new*
//! one, never a mix. Cache coherence follows from versioning: every
//! mutation bumps [`Database::version`], and both the plan cache (keyed
//! `(db id, db version, sql)`) and downstream preference caches key on
//! the version, so entries built against a superseded epoch simply stop
//! matching — no explicit invalidation protocol.
//!
//! Writers are serialized by a mutex held across clone + mutate +
//! publish. That keeps version numbers strictly increasing (two
//! concurrent writers cloning the same epoch would otherwise publish two
//! *different* databases under the same `(id, version)` key and poison
//! the caches) and makes each update atomic: either every row of a batch
//! is visible or none is.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::database::Database;
use crate::delta::{AppliedDelta, DbDelta};
use crate::error::StorageError;

/// A concurrently updatable holder of immutable [`Database`] epochs.
///
/// ```
/// use qp_storage::{Database, SnapshotStore};
/// let store = SnapshotStore::new(Database::new());
/// let before = store.snapshot();
/// store
///     .update(|db| {
///         db.create_relation("R", vec![qp_storage::Attribute::new("a", qp_storage::DataType::Int)], &["a"])?;
///         Ok(())
///     })
///     .unwrap();
/// let after = store.snapshot();
/// assert!(after.version() > before.version());
/// assert_eq!(before.catalog().relations().len(), 0); // old epoch untouched
/// ```
#[derive(Debug)]
pub struct SnapshotStore {
    /// The published epoch. Readers take the read lock only long enough
    /// to clone the `Arc`; they never hold it across query execution.
    current: RwLock<Arc<Database>>,
    /// Serializes writers across clone + mutate + publish.
    write: Mutex<()>,
}

impl SnapshotStore {
    /// Wraps a database as the store's first epoch.
    pub fn new(db: Database) -> Self {
        SnapshotStore { current: RwLock::new(Arc::new(db)), write: Mutex::new(()) }
    }

    /// Pins the current epoch. The returned `Arc` stays valid (and
    /// immutable) for as long as the caller holds it, regardless of how
    /// many updates are published meanwhile — a request should call this
    /// once and use the same snapshot for all of its reads.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.current.read())
    }

    /// The version of the current epoch (a convenience for tests and
    /// metrics; racing readers should pin a [`SnapshotStore::snapshot`]
    /// and ask it instead).
    pub fn version(&self) -> u64 {
        self.current.read().version()
    }

    /// Applies `f` to a private copy of the current epoch and publishes
    /// the result as the next epoch. The mutation is atomic from any
    /// reader's point of view: snapshots pinned before the publish keep
    /// seeing the old epoch; snapshots taken after see every change `f`
    /// made. If `f` fails, nothing is published and the error is
    /// returned.
    ///
    /// An armed `snapshot.update` failpoint fails the update *before*
    /// mutation, modelling a rejected write.
    pub fn update<T>(
        &self,
        f: impl FnOnce(&mut Database) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let _writer = self.write.lock();
        crate::failpoint::check("snapshot.update").map_err(StorageError::Injected)?;
        let mut next = self.current.read().snapshot_clone();
        let out = f(&mut next)?;
        *self.current.write() = Arc::new(next);
        Ok(out)
    }

    /// Applies a typed [`DbDelta`] atomically and publishes the result
    /// as the next epoch. Returns the pre-delta epoch the delta was
    /// resolved against, the published epoch, and the applied row ids
    /// ([`AppliedDelta`]) — the inputs the incremental-maintenance layer
    /// patches materializations from: deleted rows are still live in the
    /// pre-delta epoch, whatever other writers publish meanwhile. A
    /// rejected delta (unknown relation, arity/type mismatch, delete of
    /// a tuple with no live match) publishes nothing.
    ///
    /// Shares the `snapshot.update` failpoint and the writer mutex with
    /// [`SnapshotStore::update`], so chaos plans that target publishes
    /// exercise delta publishes too.
    pub fn publish_delta(
        &self,
        delta: &DbDelta,
    ) -> Result<(Arc<Database>, Arc<Database>, AppliedDelta), StorageError> {
        let _writer = self.write.lock();
        crate::failpoint::check("snapshot.update").map_err(StorageError::Injected)?;
        let before = self.snapshot();
        let mut next = before.snapshot_clone();
        let applied = next.apply_delta(delta)?;
        let published = Arc::new(next);
        *self.current.write() = Arc::clone(&published);
        Ok((before, published, applied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::types::DataType;
    use crate::value::Value;

    fn store() -> SnapshotStore {
        let mut db = Database::new();
        db.create_relation(
            "R",
            vec![Attribute::new("a", DataType::Int), Attribute::new("b", DataType::Int)],
            &["a"],
        )
        .unwrap();
        for i in 0..5 {
            db.insert_by_name("R", vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        SnapshotStore::new(db)
    }

    #[test]
    fn readers_pin_an_epoch_across_updates() {
        let store = store();
        let pinned = store.snapshot();
        let (v0, rows0) = (pinned.version(), pinned.total_rows());
        store
            .update(|db| db.insert_by_name("R", vec![Value::Int(99), Value::Int(990)]).map(|_| ()))
            .unwrap();
        // The pinned epoch is frozen; a fresh snapshot sees the insert.
        assert_eq!(pinned.version(), v0);
        assert_eq!(pinned.total_rows(), rows0);
        let fresh = store.snapshot();
        assert_eq!(fresh.total_rows(), rows0 + 1);
        assert!(fresh.version() > v0);
        assert_eq!(fresh.id(), pinned.id(), "epochs are the same logical database");
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let store = store();
        let v0 = store.version();
        let err = store.update(|db| {
            db.insert_by_name("R", vec![Value::Int(50), Value::Int(1)])?;
            db.insert_by_name("NOPE", vec![Value::Int(0)]).map(|_| ())
        });
        assert!(err.is_err());
        // The half-applied clone was discarded: row 50 is not visible.
        let now = store.snapshot();
        assert_eq!(now.version(), v0);
        assert_eq!(now.total_rows(), 5);
    }

    #[test]
    fn updates_are_atomic_under_concurrency() {
        // Writers insert rows in pairs; readers must never observe an odd
        // count (a torn read would expose a half-published batch).
        let store = std::sync::Arc::new(store());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..20 {
                        store
                            .update(|db| {
                                db.insert_by_name("R", vec![Value::Int(1000 + i * 2), Value::Int(0)])?;
                                db.insert_by_name("R", vec![Value::Int(1001 + i * 2), Value::Int(0)])
                                    .map(|_| ())
                            })
                            .ok(); // primary-key collisions between writers are fine
                    }
                });
            }
            for _ in 0..3 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let snap = store.snapshot();
                        let n = snap.total_rows();
                        assert!(n >= 5 && (n - 5).is_multiple_of(2), "torn read: {n} rows");
                    }
                });
            }
        });
    }

    #[test]
    fn versions_strictly_increase_across_writers() {
        let store = std::sync::Arc::new(store());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..10 {
                        let v_before = store.version();
                        store
                            .update(|db| {
                                db.insert_by_name(
                                    "R",
                                    vec![Value::Int(10_000 + t * 100 + i), Value::Int(0)],
                                )
                                .map(|_| ())
                            })
                            .unwrap();
                        assert!(store.version() > v_before);
                    }
                });
            }
        });
        assert_eq!(store.snapshot().total_rows(), 5 + 40);
    }

    #[test]
    fn publish_delta_is_atomic_and_returns_applied_rows() {
        let store = store();
        let pinned = store.snapshot();
        let v0 = pinned.version();
        let delta = DbDelta::new()
            .delete("R", vec![Value::Int(2), Value::Int(20)])
            .insert("R", vec![Value::Int(7), Value::Int(70)]);
        let (before, published, applied) = store.publish_delta(&delta).unwrap();
        assert!(Arc::ptr_eq(&before, &pinned), "the pre-delta epoch is the one it cloned");
        assert_eq!(applied.old_version, v0);
        assert_eq!(applied.new_version, published.version());
        assert!(applied.new_version > v0);
        let slice = &applied.relations[0];
        assert_eq!(slice.deleted, vec![crate::table::RowId(2)]);
        assert_eq!(slice.inserted, vec![crate::table::RowId(5)]);
        // The pinned epoch still sees the deleted row; the published one
        // does not.
        assert!(pinned.table_by_name("R").unwrap().get(crate::table::RowId(2)).is_some());
        assert!(published.table_by_name("R").unwrap().get(crate::table::RowId(2)).is_none());
        assert_eq!(published.total_rows(), 5);
        assert!(Arc::ptr_eq(&published, &store.snapshot()));
    }

    #[test]
    fn rejected_delta_publishes_nothing() {
        let store = store();
        let v0 = store.version();
        let delta = DbDelta::new()
            .insert("R", vec![Value::Int(7), Value::Int(70)])
            .delete("R", vec![Value::Int(99), Value::Int(0)]);
        assert!(store.publish_delta(&delta).is_err());
        assert_eq!(store.version(), v0);
        assert_eq!(store.snapshot().total_rows(), 5);
    }

    #[test]
    fn unchanged_tables_stay_shared_between_epochs() {
        let mut db = Database::new();
        db.create_relation("A", vec![Attribute::new("x", DataType::Int)], &["x"]).unwrap();
        db.create_relation("B", vec![Attribute::new("y", DataType::Int)], &["y"]).unwrap();
        db.insert_by_name("A", vec![Value::Int(1)]).unwrap();
        db.insert_by_name("B", vec![Value::Int(1)]).unwrap();
        let store = SnapshotStore::new(db);
        let before = store.snapshot();
        store
            .update(|db| db.insert_by_name("A", vec![Value::Int(2)]).map(|_| ()))
            .unwrap();
        let after = store.snapshot();
        // Table B was untouched: both epochs point at the same allocation.
        let b_before = before.table_by_name("B").unwrap() as *const _;
        let b_after = after.table_by_name("B").unwrap() as *const _;
        assert_eq!(b_before, b_after, "copy-on-write shares untouched tables");
        let a_before = before.table_by_name("A").unwrap() as *const _;
        let a_after = after.table_by_name("A").unwrap() as *const _;
        assert_ne!(a_before, a_after, "the mutated table was copied");
    }
}
