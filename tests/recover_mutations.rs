//! Recovery is total on damaged payloads: a journal whose genesis or op
//! record payload was mutated, then framed with a valid CRC so the
//! checksum cannot catch it, must recover to `Ok` or to a typed
//! `RecoverError` — never a panic, and never an allocation sized by a
//! crafted count.

use fd_incomplete::core::update::{Database, UpdateError};
use fd_incomplete::prelude::*;
use fd_incomplete::relation::error::RelationError;
use fd_incomplete::store::record::{frame, Scanned, Scanner, FILE_HEADER};
use fd_incomplete::store::{Batch, JournalOp, MemStorage, Storage};
use proptest::prelude::*;

/// A weak journal: a genesis with marks, a shared null and
/// an NEC class, then accepted inserts, modifies, a resolve, a delete
/// and a compaction. Returns the record payloads, genesis first.
fn journal_payloads() -> Vec<Vec<u8>> {
    let schema = Schema::builder("emp")
        .attribute("dept", ["d1", "d2", "d3"])
        .attribute("mgr", ["m1", "m2", "m3"])
        .attribute_unbounded("note")
        .build()
        .unwrap();
    let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
    let base = Instance::parse(schema, "d1 m1 x\nd2 ?a y\nd3 - ?n\nd2 ?a -\nd3 - w").unwrap();
    let mut db = Database::new(base, fds, Enforcement::Weak).unwrap();
    assert_eq!(db.instance().necs().merge_count(), 1, "d3's two mgr nulls");
    let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
    let row = |db: &Database, pos: usize| db.instance().nth_row(pos);
    let (mgr, note) = (AttrId(1), AttrId(2));
    for _ in 0..2 {
        let mut batch = Batch::default();
        let tokens = ["d1", "-", "?n"];
        let inserted = db.insert(&tokens).unwrap().row;
        batch.push(&JournalOp::Insert {
            row: inserted,
            tokens: tokens.iter().map(|t| t.to_string()).collect(),
        });
        let target = row(&db, 1);
        db.modify(target, note, "?b").unwrap();
        batch.push(&JournalOp::Modify {
            row: target,
            attr: note,
            token: "?b".into(),
        });
        journal.append_batch(&batch).unwrap();
    }
    let mut batch = Batch::default();
    let target = row(&db, 1);
    db.resolve_null(target, mgr, "m2").unwrap();
    batch.push(&JournalOp::ResolveNull {
        row: target,
        attr: mgr,
        token: "m2".into(),
    });
    let victim = row(&db, 0);
    db.delete(victim).unwrap();
    batch.push(&JournalOp::Delete { row: victim });
    let moved = db.compact();
    batch.push(&JournalOp::Compact { moved });
    journal.append_batch(&batch).unwrap();
    journal.sync().unwrap();

    let mut bytes = Vec::new();
    journal.into_storage().read_all(&mut bytes).unwrap();
    let base = FILE_HEADER.len() as u64;
    let mut scanner = Scanner::new(&bytes[FILE_HEADER.len()..], base);
    let mut payloads = Vec::new();
    while let Some(item) = scanner.next() {
        match item {
            Scanned::Record { payload, .. } => payloads.push(payload.to_vec()),
            other => panic!("a fresh journal scans clean, got {other:?}"),
        }
    }
    payloads
}

/// One payload mutation.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Overwrite {
        at: usize,
        byte: u8,
    },
    FlipBit {
        at: usize,
        bit: u8,
    },
    Truncate {
        at: usize,
    },
    Insert {
        at: usize,
        byte: u8,
    },
    /// A little-endian `u32` written over four bytes: a crafted count,
    /// id or length.
    Word {
        at: usize,
        word: u32,
    },
}

impl Mutation {
    fn apply(self, payload: &mut Vec<u8>) {
        let len = payload.len().max(1);
        match self {
            Mutation::Overwrite { at, byte } => {
                if let Some(b) = payload.get_mut(at % len) {
                    *b = byte;
                }
            }
            Mutation::FlipBit { at, bit } => {
                if let Some(b) = payload.get_mut(at % len) {
                    *b ^= 1 << (bit % 8);
                }
            }
            Mutation::Truncate { at } => payload.truncate(at % len),
            Mutation::Insert { at, byte } => payload.insert(at % len, byte),
            Mutation::Word { at, word } => {
                let at = at % len;
                for (i, b) in word.to_le_bytes().into_iter().enumerate() {
                    if let Some(slot) = payload.get_mut(at + i) {
                        *slot = b;
                    }
                }
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0u8..5, 0usize..1 << 16, 0u32..u32::MAX).prop_map(|(kind, at, word)| match kind {
        0 => Mutation::Overwrite {
            at,
            byte: word as u8,
        },
        1 => Mutation::FlipBit {
            at,
            bit: word as u8,
        },
        2 => Mutation::Truncate { at },
        3 => Mutation::Insert {
            at,
            byte: word as u8,
        },
        _ => Mutation::Word { at, word },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One mutated record (genesis or an op batch), every record framed
    /// with a valid CRC after the file header: recovery returns.
    #[test]
    fn recovery_of_mutated_payloads_returns_a_result(
        record in 0usize..4,
        mutations in proptest::collection::vec(arb_mutation(), 1..3),
    ) {
        let mut payloads = journal_payloads();
        let target = record % payloads.len();
        for m in &mutations {
            m.apply(&mut payloads[target]);
        }
        let mut bytes = FILE_HEADER.to_vec();
        for payload in &payloads {
            bytes.extend_from_slice(&frame(payload).unwrap());
        }
        match Journal::recover(MemStorage::from_bytes(bytes)) {
            Ok(recovered) => {
                prop_assert!(recovered.db.instance().len() <= 16);
            }
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// A genesis whose null allocator sits at `u32::MAX` recovers, and a
/// write that needs a fresh null is then rejected with a typed error
/// instead of wrapping the allocator round to id 0.
#[test]
fn an_exhausted_null_allocator_rejects_the_write() {
    let schema = Schema::builder("emp")
        .attribute("dept", ["d1", "d2"])
        .attribute("mgr", ["m1", "m2"])
        .build()
        .unwrap();
    let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
    let mut base = Instance::parse(schema, "d1 m1").unwrap();
    base.reserve_null_ids(NullId(u32::MAX - 1));
    let db = Database::new(base, fds, Enforcement::Weak).unwrap();
    let mut journal = Journal::create(MemStorage::new(), &db).unwrap();
    journal.sync().unwrap();
    let mut bytes = Vec::new();
    journal.into_storage().read_all(&mut bytes).unwrap();

    let mut db = Journal::recover(MemStorage::from_bytes(bytes)).unwrap().db;
    let before = db.instance().canonical_form();
    for tokens in [["d2", "-"], ["d2", "?x"]] {
        let err = db.insert(&tokens).unwrap_err();
        assert!(
            matches!(err, UpdateError::Relation(RelationError::NullIdsExhausted)),
            "{tokens:?}: {err}"
        );
        assert_eq!(db.instance().canonical_form(), before, "{tokens:?}");
    }
    assert!(
        db.insert(&["d2", "m2"]).is_ok(),
        "constants need no null id"
    );
}
