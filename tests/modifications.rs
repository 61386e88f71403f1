//! Integration tests for the §7 extensions: modification operations and
//! the weak universal relation, across crates and on generated
//! workloads.

use fd_incomplete::core::universal::{round_trip, weak_universal_holds};
use fd_incomplete::core::update::{insert_with_full_recheck, Database, Enforcement, UpdateError};
use fd_incomplete::core::{chase, normalize, testfd};
use fd_incomplete::gen::{attr_names, random_fds, satisfiable_instance, WorkloadSpec};
use fd_incomplete::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tokens(rng: &mut StdRng, attrs: usize, domain: usize, null_rate: f64) -> Vec<String> {
    let names = attr_names(attrs);
    (0..attrs)
        .map(|i| {
            if rng.gen_bool(null_rate) {
                "-".to_string()
            } else {
                format!("{}_{}", names[i], rng.gen_range(0..domain))
            }
        })
        .collect()
}

#[test]
fn incremental_inserts_agree_with_full_rechecks_across_seeds() {
    for seed in 0..8u64 {
        let spec = WorkloadSpec {
            rows: 20,
            attrs: 4,
            domain: 6,
            null_density: 0.0,
            nec_density: 0.0,
            collision_rate: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let fds = random_fds(&mut rng, spec.attrs, 3);
        let base = satisfiable_instance(&mut rng, &spec, &fds);
        let mut db = Database::new(base.clone(), fds.clone(), Enforcement::Strong)
            .expect("satisfiable base");
        let mut plain = base;
        let mut accepted = 0;
        for _ in 0..40 {
            let toks = tokens(&mut rng, spec.attrs, spec.domain, 0.2);
            let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
            let a = db.insert(&refs).is_ok();
            let b = insert_with_full_recheck(&mut plain, &fds, &refs).is_ok();
            assert_eq!(a, b, "seed {seed}, tokens {toks:?}");
            accepted += a as usize;
        }
        // the database is never left violated
        assert!(testfd::check_strong(db.instance(), &fds).is_ok());
        assert_eq!(db.instance().len(), 20 + accepted);
    }
}

#[test]
fn weak_databases_accept_everything_strong_rejects_but_stay_satisfiable() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            rows: 12,
            attrs: 3,
            domain: 6,
            null_density: 0.0,
            nec_density: 0.0,
            collision_rate: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(seed * 101 + 7);
        let fds = random_fds(&mut rng, spec.attrs, 2);
        let base = satisfiable_instance(&mut rng, &spec, &fds);
        let mut weak_db =
            Database::new(base.clone(), fds.clone(), Enforcement::Weak).expect("satisfiable base");
        let mut strong_db =
            Database::new(base, fds.clone(), Enforcement::Strong).expect("satisfiable base");
        for _ in 0..30 {
            let toks = tokens(&mut rng, spec.attrs, spec.domain, 0.3);
            let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
            let strong_ok = strong_db.insert(&refs).is_ok();
            let weak_ok = weak_db.insert(&refs).is_ok();
            if strong_ok {
                assert!(
                    weak_ok,
                    "weak must accept whatever strong accepts: {toks:?}"
                );
            }
            // the weak database is weakly satisfiable at every step
            assert!(chase::weakly_satisfiable_via_chase(
                &fds,
                weak_db.instance()
            ));
        }
    }
}

#[test]
fn resolve_null_accepts_exactly_the_consistent_values() {
    // A→B, B→C over two-value domains. No NS-rule forces row 0's B, so
    // the null survives weak construction (the stored state is closed),
    // yet B_1 would force C_0 = C_1 through row 1.
    let schema = Schema::uniform("R", &["A", "B", "C"], 2).unwrap();
    let fds = FdSet::parse(&schema, "A -> B\nB -> C").unwrap();
    let row1 = "A_1 B_1 C_1";
    let r = Instance::parse(schema.clone(), &format!("A_0 - C_0\n{row1}")).unwrap();
    let db = Database::new(r, fds.clone(), Enforcement::Weak).unwrap();
    assert!(chase::is_minimally_incomplete(db.instance(), db.fds()));
    let target = db.instance().nth_row(0);
    assert!(db.instance().value(target, AttrId(1)).is_null());
    let mut accepted = Vec::new();
    for value in ["B_0", "B_1"] {
        let substituted = Instance::parse(schema.clone(), &format!("A_0 {value} C_0\n{row1}"));
        let consistent = chase::weakly_satisfiable_via_chase(&fds, &substituted.unwrap());
        let mut db = db.clone();
        match db.resolve_null(target, AttrId(1), value) {
            Ok(_) => {
                assert!(consistent, "{value} was accepted");
                let cell = db.instance().value(target, AttrId(1));
                assert_eq!(cell.render(db.instance().symbols(), false), value);
                accepted.push(value);
            }
            Err(err) => {
                assert!(!consistent, "{value} was refused: {err}");
                assert!(matches!(err, UpdateError::Rejected { .. }));
                assert!(db.instance().value(target, AttrId(1)).is_null());
            }
        }
    }
    // §4: the only value a user can insert without an inconsistency
    assert_eq!(accepted, ["B_0"]);
}

#[test]
fn universal_round_trips_on_generated_workloads() {
    for seed in 0..10u64 {
        let spec = WorkloadSpec {
            rows: 14,
            attrs: 4,
            domain: 8,
            null_density: 0.2,
            nec_density: 0.0,
            collision_rate: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let fds = random_fds(&mut rng, spec.attrs, 3);
        let universal = satisfiable_instance(&mut rng, &spec, &fds);
        let all = AttrSet::first_n(spec.attrs);
        let decomposition = normalize::bcnf_decompose(&fds, all);
        let rt = round_trip(&universal, &decomposition).expect("round trip");
        assert!(
            rt.is_containing(),
            "seed {seed}: lost tuples in {rt:?} with decomposition {decomposition:?}"
        );
        assert!(weak_universal_holds(&universal, &fds, &decomposition).expect("check"));
        // chase-first never increases the reconstruction
        let chased = chase::chase_plain(&universal, &fds).instance;
        let rt2 = round_trip(&chased, &decomposition).expect("round trip");
        assert!(rt2.is_containing());
        assert!(
            rt2.reconstructed <= rt.reconstructed,
            "seed {seed}: chase-first inflated the join ({rt:?} → {rt2:?})"
        );
    }
}

#[test]
fn deletion_then_reinsertion_round_trips() {
    let spec = WorkloadSpec {
        rows: 10,
        attrs: 3,
        domain: 8,
        null_density: 0.0,
        nec_density: 0.0,
        collision_rate: 0.4,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let fds = random_fds(&mut rng, spec.attrs, 2);
    let base = satisfiable_instance(&mut rng, &spec, &fds);
    let mut db = Database::new(base.clone(), fds, Enforcement::Strong).unwrap();
    // removing a tuple and putting it back must always be accepted
    let victim = base.tuple(base.nth_row(4)).clone();
    let rendered: Vec<String> = victim
        .values()
        .iter()
        .map(|v| v.render(base.symbols(), false))
        .collect();
    db.delete(db.instance().nth_row(4)).expect("delete");
    let refs: Vec<&str> = rendered.iter().map(String::as_str).collect();
    db.insert(&refs)
        .expect("reinsertion of a deleted tuple is always consistent");
    assert_eq!(db.instance().len(), base.len());
}
