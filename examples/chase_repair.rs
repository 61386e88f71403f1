//! The NS-rule chase of §6: Figure 5's non-confluence, the extended
//! Church–Rosser system (Theorem 4), and chase-based database repair on
//! a generated workload.
//!
//! Run with: `cargo run --example chase_repair`

use fd_incomplete::core::fixtures;
use fd_incomplete::core::{chase, testfd};
use fd_incomplete::gen::{satisfiable_workload, WorkloadSpec};
use fd_incomplete::prelude::*;

fn main() {
    // ----- Figure 5: plain NS-rules are order-dependent -----
    let r = fixtures::figure5_instance();
    let fds = fixtures::figure5_fds();
    println!("Figure 5 — instance (FDs: A -> B, C -> B):");
    println!("{}", r.render(false));

    let forward = chase::chase_plain(&r, &fds);
    println!("applying A -> B first gives r':");
    println!("{}", forward.instance.render(false));

    let backward = chase::chase_plain(&r, &fds.permuted(&[1, 0]));
    println!("applying C -> B first gives a DIFFERENT r'':");
    println!("{}", backward.instance.render(false));
    assert_ne!(
        forward.instance.canonical_form(),
        backward.instance.canonical_form()
    );

    // ----- Theorem 4: the extended rules are Church–Rosser -----
    let ext_forward = chase::extended_chase(&r, &fds);
    let ext_backward = chase::extended_chase_naive(&r, &fds.permuted(&[1, 0]));
    println!("the EXTENDED rules agree in either order (all B-values = nothing):");
    println!("{}", ext_forward.instance.render(false));
    assert_eq!(
        ext_forward.instance.canonical_form(),
        ext_backward.instance.canonical_form()
    );
    println!(
        "nothing classes: {} → weakly satisfiable: {}\n",
        ext_forward.nothing_classes,
        !ext_forward.has_nothing()
    );

    // ----- §6's opening example: FD interaction -----
    let r6 = fixtures::section6_instance();
    let f6 = fixtures::section6_fds();
    println!("§6 — each FD weakly holds alone, but not together:");
    println!("{}", r6.render(true));
    let chased = chase::chase_plain(&r6, &f6);
    println!("plain chase introduces the NEC (shared mark below):");
    println!("{}", chased.instance.render(true));
    for event in &chased.events {
        println!("  event: {event}");
    }
    println!(
        "weak-convention TEST-FDs on the minimally incomplete instance: {:?}",
        testfd::check(
            &chased.instance,
            &f6,
            SemanticsKind::Weak,
            &Recorder::noop()
        )
    );
    println!(
        "Theorem 4 pipeline agrees: weakly satisfiable = {}\n",
        chase::weakly_satisfiable_via_chase(&f6, &r6)
    );

    // ----- repairing a realistic workload -----
    let spec = WorkloadSpec {
        rows: 12,
        attrs: 4,
        domain: 8,
        null_density: 0.25,
        nec_density: 0.0,
        collision_rate: 0.5,
    };
    let w = satisfiable_workload(2024, &spec, 3);
    println!("a generated, weakly satisfiable workload with nulls:");
    println!("dependencies:\n{}", w.fds.render(&w.schema));
    println!("{}", w.instance.render(false));
    let repaired = chase::chase_plain(&w.instance, &w.fds);
    println!(
        "NS-rule chase recovered {} values and introduced {} NECs over {} passes:",
        repaired
            .events
            .iter()
            .filter(|e| matches!(e.kind, chase::NsEventKind::Substituted { .. }))
            .count(),
        repaired
            .events
            .iter()
            .filter(|e| matches!(e.kind, chase::NsEventKind::NecIntroduced { .. }))
            .count(),
        repaired.passes,
    );
    println!("{}", repaired.instance.render(false));
    assert!(chase::is_minimally_incomplete(&repaired.instance, &w.fds));
    println!(
        "nulls before: {}, after: {} (minimally incomplete — \"nothing \
         more can be said about the nulls in this state\")",
        w.instance.null_count(),
        repaired.instance.null_count()
    );
}
