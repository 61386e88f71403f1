//! Stable row identity: the [`RowId`] handle.
//!
//! Rows of an [`Instance`](crate::instance::Instance) are addressed by
//! an opaque slot handle instead of a position in a dense vector.
//! Deleting a row tombstones its slot and **never renumbers the
//! survivors**, so a `RowId` held by an index, an occurrence list, or a
//! worklist stays valid until that exact row is removed. This is what
//! makes `O(1)` deletes possible end-to-end: no layer above the storage
//! has to run a survivor id-shift pass.
//!
//! A `RowId` is deliberately *not* an integer in the API sense: it
//! supports no arithmetic, so positional habits (`row - 1`,
//! `row < len`) are compile errors. The one escape hatch is
//! [`RowId::index`], which exposes the underlying slot position for
//! dense per-slot side tables (`Vec<T>` indexed by slot) — an *address*,
//! not an ordinal: slot indices are stable but not contiguous once rows
//! have been deleted.

use std::fmt;

/// A stable handle to one row slot of an instance.
///
/// Equality and ordering follow the slot position; live rows iterate in
/// ascending `RowId` order, which coincides with insertion order (and
/// with the displayed/serialized order — see
/// [`Instance::iter_live`](crate::instance::Instance::iter_live)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// The underlying slot position, for dense per-slot side tables.
    ///
    /// Slot indices are stable (they never shift) but not contiguous
    /// once rows have been deleted; use
    /// [`Instance::slot_bound`](crate::instance::Instance::slot_bound)
    /// to size a side table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
