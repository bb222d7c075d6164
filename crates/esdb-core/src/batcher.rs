//! Write-client workload batching (paper §3.1, write clients, feature 3):
//! "When a write client detects that a row (identified by its row ID) will
//! be frequently modified in a short period of time, it will batch-execute
//! the workloads by aggregating together these modifications and only
//! materializing the eventual state of this row."
//!
//! The batcher buffers write operations per routing key and coalesces
//! same-record operations into the terminal state:
//!
//! * `Insert` then `Update*` → one `Insert` with the final image,
//! * `Update` then `Update` → the last `Update`,
//! * `Insert` then `Delete` → nothing at all,
//! * `Update`/`Delete` on an unbuffered record pass through.

use esdb_common::fastmap::{fast_map, FastMap};
use esdb_doc::{WriteKind, WriteOp};

/// Coalesces a burst of writes into the minimal operation sequence.
///
/// ```
/// use esdb_core::WriteBatcher;
/// use esdb_doc::{Document, WriteOp};
/// use esdb_common::{TenantId, RecordId};
///
/// let mut batcher = WriteBatcher::new();
/// let doc = |status: i64| {
///     Document::builder(TenantId(1), RecordId(42), 100)
///         .field("status", status)
///         .build()
/// };
/// batcher.push(WriteOp::insert(doc(0)));
/// batcher.push(WriteOp::update(doc(1)));
/// batcher.push(WriteOp::update(doc(2)));
/// // Three modifications, one materialized write.
/// let ops = batcher.flush();
/// assert_eq!(ops.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct WriteBatcher {
    /// Buffered terminal op per record id; `None` marks an
    /// insert-then-delete annihilation.
    ops: FastMap<u64, Option<WriteOp>>,
    /// Record ids in first-arrival order (stable flush order).
    order: Vec<u64>,
    accepted: u64,
}

impl WriteBatcher {
    /// Empty batcher.
    pub fn new() -> Self {
        WriteBatcher {
            ops: fast_map(),
            order: Vec::new(),
            accepted: 0,
        }
    }

    /// Buffers one operation, coalescing with any buffered op for the same
    /// record.
    pub fn push(&mut self, op: WriteOp) {
        self.accepted += 1;
        let rid = op.doc.record_id.raw();
        match self.ops.get_mut(&rid) {
            None => {
                self.order.push(rid);
                self.ops.insert(rid, Some(op));
            }
            Some(slot) => {
                *slot = match (slot.take(), op) {
                    // The record was annihilated (insert+delete) and now
                    // reappears: treat the new op as the fresh state.
                    (None, op) => Some(op),
                    (Some(prev), op) => match (prev.kind, op.kind) {
                        // An insert followed by updates materializes as an
                        // insert of the final image.
                        (WriteKind::Insert, WriteKind::Update) => Some(WriteOp {
                            kind: WriteKind::Insert,
                            doc: op.doc,
                        }),
                        // Insert followed by delete: the row never existed
                        // as far as the server needs to know.
                        (WriteKind::Insert, WriteKind::Delete) => None,
                        // Anything else: last write wins.
                        (_, _) => Some(op),
                    },
                };
            }
        }
    }

    /// Operations accepted since the last flush (pre-coalescing).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Drains the batch in first-arrival order.
    pub fn flush(&mut self) -> Vec<WriteOp> {
        let mut out = Vec::with_capacity(self.order.len());
        for rid in self.order.drain(..) {
            if let Some(Some(op)) = self.ops.remove(&rid) {
                out.push(op);
            }
        }
        self.accepted = 0;
        out
    }
}

#[cfg(test)]
impl WriteBatcher {
    /// Buffered operations that will actually be sent.
    pub(crate) fn pending(&self) -> usize {
        self.ops.values().filter(|o| o.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::Document;

    fn doc(r: u64, status: i64) -> Document {
        Document::builder(TenantId(1), RecordId(r), 100)
            .field("status", status)
            .build()
    }

    #[test]
    fn updates_coalesce_to_final_state() {
        let mut b = WriteBatcher::new();
        b.push(WriteOp::insert(doc(1, 0)));
        b.push(WriteOp::update(doc(1, 1)));
        b.push(WriteOp::update(doc(1, 2)));
        assert_eq!(b.accepted(), 3);
        assert_eq!(b.pending(), 1);
        let ops = b.flush();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ops[0].kind,
            WriteKind::Insert,
            "insert+updates stays an insert"
        );
        assert_eq!(ops[0].doc.get("status"), Some(esdb_doc::FieldValue::Int(2)));
    }

    #[test]
    fn insert_then_delete_annihilates() {
        let mut b = WriteBatcher::new();
        b.push(WriteOp::insert(doc(5, 0)));
        b.push(WriteOp::delete(TenantId(1), RecordId(5), 100));
        assert_eq!(b.pending(), 0);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn update_then_delete_keeps_delete() {
        let mut b = WriteBatcher::new();
        b.push(WriteOp::update(doc(5, 1)));
        b.push(WriteOp::delete(TenantId(1), RecordId(5), 100));
        let ops = b.flush();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ops[0].kind,
            WriteKind::Delete,
            "server-side row still needs the delete"
        );
    }

    #[test]
    fn annihilated_record_can_reappear() {
        let mut b = WriteBatcher::new();
        b.push(WriteOp::insert(doc(5, 0)));
        b.push(WriteOp::delete(TenantId(1), RecordId(5), 100));
        b.push(WriteOp::insert(doc(5, 7)));
        let ops = b.flush();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].doc.get("status"), Some(esdb_doc::FieldValue::Int(7)));
    }

    #[test]
    fn flush_preserves_arrival_order_and_resets() {
        let mut b = WriteBatcher::new();
        b.push(WriteOp::insert(doc(3, 0)));
        b.push(WriteOp::insert(doc(1, 0)));
        b.push(WriteOp::insert(doc(2, 0)));
        b.push(WriteOp::update(doc(3, 9)));
        let ops = b.flush();
        let rids: Vec<u64> = ops.iter().map(|o| o.doc.record_id.raw()).collect();
        assert_eq!(rids, vec![3, 1, 2]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.accepted(), 0);
        assert!(b.flush().is_empty());
    }

    #[test]
    fn distinct_records_pass_through() {
        let mut b = WriteBatcher::new();
        for r in 0..10 {
            b.push(WriteOp::insert(doc(r, 0)));
        }
        assert_eq!(b.flush().len(), 10);
    }
}
