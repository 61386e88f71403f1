//! A miniature "incomplete-information DBMS": the §7 programme end to
//! end — policy-checked modifications, internal/external acquisition,
//! and the weak universal relation round trip.
//!
//! Run with: `cargo run --example incomplete_dbms`

use fd_incomplete::core::universal::{round_trip, weak_universal_holds};
use fd_incomplete::core::update::{Database, Enforcement};
use fd_incomplete::core::{chase, normalize};
use fd_incomplete::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder("Payroll")
        .attribute("emp", ["ada", "bob", "cyd", "dan", "eve"])
        .attribute("grade", ["g1", "g2", "g3"])
        .attribute("salary", ["60k", "80k", "100k"])
        .build()?;
    let fds = FdSet::parse(&schema, "emp -> grade\ngrade -> salary")?;
    let start = Instance::parse(
        schema.clone(),
        "ada g1 60k
         bob g2 80k",
    )?;

    println!("dependencies:\n{}\n", fds.render(&schema));
    let mut db = Database::new(start, fds.clone(), Enforcement::Weak)?;
    println!("initial state:\n{}", db.instance().render(false));

    // External acquisition with an unknown grade: accepted weakly.
    db.insert(&["cyd", "-", "100k"])?;
    println!(
        "after inserting (cyd, -, 100k):\n{}",
        db.instance().render(false)
    );

    // Internal acquisition: dan joins grade g1, whose salary is known —
    // the NS-rules' closure fills it in immediately.
    let outcome = db.insert(&["dan", "g1", "-"])?;
    println!(
        "inserting (dan, g1, -) filled {} cell(s) by internal acquisition:\n{}",
        outcome.propagated.len(),
        db.instance().render(false)
    );

    // A contradiction is refused: g1 already earns 60k.
    let err = db.insert(&["eve", "g1", "80k"]).unwrap_err();
    println!("inserting (eve, g1, 80k) is rejected: {err}\n");

    // Snapshot the still-incomplete universal instance for the URA demo
    // below, before the user resolves cyd's grade.
    let universal = db.instance().clone();

    // The user resolves cyd's grade; only values consistent with
    // grade→salary are accepted (cyd earns 100k, g1 earns 60k).
    let grade = db.instance().schema().attr_id("grade")?;
    let cyd = db.instance().nth_row(2);
    let err = db.resolve_null(cyd, grade, "g1").unwrap_err();
    println!("resolving cyd's grade to g1 is rejected: {err}");
    db.resolve_null(cyd, grade, "g3")?;
    println!(
        "resolving it to g3 succeeds:\n{}",
        db.instance().render(false)
    );

    // ----- the weak universal relation assumption -----
    // (on the snapshot that still carries cyd's unknown grade)
    let all = AttrSet::first_n(schema.arity());
    let decomposition = normalize::bcnf_decompose(&fds, all);
    print!("BCNF decomposition:");
    for c in &decomposition {
        print!(" ({})", schema.render_attrs(*c));
    }
    println!();
    let rt = round_trip(&universal, &decomposition)?;
    println!(
        "decompose → reconstruct: {} original, {} reconstructed, {} recovered, {} spurious",
        rt.original, rt.reconstructed, rt.recovered, rt.spurious
    );
    assert!(rt.is_containing());
    println!(
        "weak universal relation assumption holds: {}",
        weak_universal_holds(&universal, &fds, &decomposition)?
    );
    println!(
        "(the instance is only weakly satisfied: strong check = {:?})",
        fd_incomplete::core::testfd::check_strong(&universal, &fds).err()
    );

    // chase-first ablation
    let chased = chase::chase_plain(&universal, &fds).instance;
    let rt2 = round_trip(&chased, &decomposition)?;
    println!(
        "chase-first reconstruction: {} tuples ({} spurious)",
        rt2.reconstructed, rt2.spurious
    );
    Ok(())
}
