//! The journal genesis records a database's enforcement as two policy
//! bytes: the enforcement tag (0 strong, 1 weak, 2 load mode), then an
//! acquisition flag that is 1 exactly under weak enforcement. Recovery
//! reads back the three pairs the writer produces, and strong with
//! either flag (strong enforcement never acquires). It refuses the two
//! retired policies, weak without acquisition and load mode with it,
//! with a typed error: their ops would not replay to the state their
//! writer published. A weak genesis keeps the exact bytes it has always
//! had.

use fd_incomplete::core::update::Database;
use fd_incomplete::prelude::*;
use fd_incomplete::store::record::{frame, Scanned, Scanner, FILE_HEADER};
use fd_incomplete::store::{MemStorage, RecoverError, Storage};

/// `dept -> mgr` over two-value domains.
fn db(rows: &str, enforcement: Enforcement) -> Database {
    let schema = Schema::builder("emp")
        .attribute("dept", ["d1", "d2"])
        .attribute("mgr", ["m1", "m2"])
        .build()
        .unwrap();
    let fds = FdSet::parse(&schema, "dept -> mgr").unwrap();
    Database::new(Instance::parse(schema, rows).unwrap(), fds, enforcement).unwrap()
}

/// A complete instance every enforcement accepts unchanged.
const COMPLETE: &str = "d1 m1\nd2 m2";

/// The file image of a fresh journal anchored at `db`.
fn journal_bytes(db: &Database) -> Vec<u8> {
    let mut bytes = Vec::new();
    Journal::create(MemStorage::new(), db)
        .unwrap()
        .into_storage()
        .read_all(&mut bytes)
        .unwrap();
    bytes
}

/// The genesis payload of a journal file image.
fn genesis_payload(bytes: &[u8]) -> Vec<u8> {
    let mut scanner = Scanner::new(&bytes[FILE_HEADER.len()..], FILE_HEADER.len() as u64);
    match scanner.next() {
        Some(Scanned::Record { payload, .. }) => payload.to_vec(),
        other => panic!("a fresh journal starts with its genesis, got {other:?}"),
    }
}

/// Recovers a journal whose genesis is [`COMPLETE`]'s with its policy
/// bytes set to `(tag, flag)`, framed with a valid CRC.
fn recover_with_policy(tag: u8, flag: u8) -> Result<Enforcement, RecoverError> {
    let strong = genesis_payload(&journal_bytes(&db(COMPLETE, Enforcement::Strong)));
    let weak = genesis_payload(&journal_bytes(&db(COMPLETE, Enforcement::Weak)));
    // The two payloads differ in the policy bytes and nowhere else.
    let at = (0..strong.len()).find(|&i| strong[i] != weak[i]).unwrap();
    assert_eq!((strong[at], strong[at + 1]), (0, 0));
    assert_eq!((weak[at], weak[at + 1]), (1, 1));
    assert_eq!(strong[at + 2..], weak[at + 2..]);
    let mut payload = strong;
    payload[at] = tag;
    payload[at + 1] = flag;
    let mut bytes = FILE_HEADER.to_vec();
    bytes.extend_from_slice(&frame(&payload).unwrap());
    Journal::recover(MemStorage::from_bytes(bytes)).map(|r| r.db.enforcement())
}

#[test]
fn every_enforcement_round_trips_through_its_genesis() {
    for enforcement in [Enforcement::Strong, Enforcement::Weak, Enforcement::None] {
        let bytes = journal_bytes(&db(COMPLETE, enforcement));
        let recovered = Journal::recover(MemStorage::from_bytes(bytes.clone())).unwrap();
        assert_eq!(recovered.db.enforcement(), enforcement);
        assert_eq!(journal_bytes(&recovered.db), bytes, "{enforcement:?}");
    }
    assert_eq!(recover_with_policy(0, 0), Ok(Enforcement::Strong));
    assert_eq!(recover_with_policy(1, 1), Ok(Enforcement::Weak));
    assert_eq!(recover_with_policy(2, 0), Ok(Enforcement::None));
    // Strong enforcement never acquires, so either flag is the same
    // database.
    assert_eq!(recover_with_policy(0, 1), Ok(Enforcement::Strong));
}

#[test]
fn retired_and_unknown_policies_are_refused_with_a_typed_error() {
    let offset = FILE_HEADER.len() as u64;
    for (tag, flag, enforcement) in [(1, 0, Enforcement::Weak), (2, 1, Enforcement::None)] {
        let err = recover_with_policy(tag, flag).unwrap_err();
        assert_eq!(
            err,
            RecoverError::RetiredPolicy {
                offset,
                enforcement
            }
        );
        assert!(err.to_string().contains("retired policy"), "{err}");
    }
    for (tag, flag) in [(3, 0), (255, 1), (0, 2), (1, 255), (2, 7)] {
        match recover_with_policy(tag, flag) {
            Err(RecoverError::Decode { offset: at, .. }) => assert_eq!(at, offset),
            other => panic!("policy bytes ({tag}, {flag}) gave {other:?}"),
        }
    }
}

/// The file image of a weak journal over `d1 m1 / d2 ?x / d1 -`, whose
/// construction acquired `m1` for the third row. Weak journals written
/// by older and newer builds must stay interchangeable, so these bytes
/// are pinned.
const WEAK_JOURNAL: &str = "\
    4644494a524e4c31ba000000e2718b5373d3fe9a0003000000656d7002000000\
    04000000646570740002000000020000006431020000006432030000006d6772\
    0002000000020000006d31020000006d32010000000100000000000000020000\
    0000000000010104000000020000006431020000006432020000006d31020000\
    006d320200000001000000010000007800000000010000000000000000000000\
    0000000000030000000100000000000002000000010001000000010000000001\
    0000000000000200000000000000";

#[test]
fn a_weak_genesis_keeps_its_bytes() {
    let db = db("d1 m1\nd2 ?x\nd1 -", Enforcement::Weak);
    let hex: String = journal_bytes(&db)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, WEAK_JOURNAL);
    // … and those bytes recover to the same weak database.
    let bytes = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&WEAK_JOURNAL[i..i + 2], 16).unwrap())
        .collect();
    let recovered = Journal::recover(MemStorage::from_bytes(bytes)).unwrap();
    assert_eq!(recovered.db.enforcement(), Enforcement::Weak);
    assert_eq!(
        recovered.db.instance().render(true),
        db.instance().render(true)
    );
}
