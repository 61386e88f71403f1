//! E19: modification operations (§7's programme) — the single-tuple
//! strong insert scan vs full revalidation.

use crate::{banner, fmt_duration, median_time, Table};
use fdi_core::update::{insert_with_full_recheck, Database, Enforcement};
use fdi_gen::{attr_names, random_fds, satisfiable_instance, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn insert_tokens(rng: &mut StdRng, attrs: usize, domain: usize, null_rate: f64) -> Vec<String> {
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

/// Runs the experiment.
pub fn run(quick: bool) {
    banner(
        "E19",
        "modification operations: single-tuple scan vs full revalidation",
        "§7 calls for extending the results to modification operations; \
         a strong insert only has to compare the new tuple with every \
         live row (O(|F|·n)) instead of rerunning TEST-FDs on a copy",
    );
    let sizes: Vec<usize> = if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    };
    let batch = 64; // inserts measured per run
    let mut table = Table::new([
        "n (existing rows)",
        "single-tuple scan (64 inserts)",
        "full recheck (64 inserts)",
        "speedup",
        "accept agreement",
    ]);
    for &n in &sizes {
        // The base relation is complete (strong enforcement requires a
        // strongly satisfied starting point); the *inserted* tuples may
        // carry nulls and get policy-checked.
        let spec = WorkloadSpec {
            rows: n,
            attrs: 4,
            domain: (n / 2).max(16),
            null_density: 0.0,
            nec_density: 0.0,
            collision_rate: 0.4,
        };
        let mut rng = StdRng::seed_from_u64(21);
        let fds = random_fds(&mut rng, spec.attrs, 3);
        let base = satisfiable_instance(&mut rng, &spec, &fds);
        // pre-generate the insert batch
        let mut gen_rng = StdRng::seed_from_u64(77);
        let batch_tokens: Vec<Vec<String>> = (0..batch)
            .map(|_| insert_tokens(&mut gen_rng, spec.attrs, spec.domain, 0.1))
            .collect();
        // agreement check (once)
        let mut db = Database::new(base.clone(), fds.clone(), Enforcement::Strong)
            .expect("satisfiable base");
        let mut plain = base.clone();
        let mut agree = 0;
        for tokens in &batch_tokens {
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let a = db.insert(&refs).is_ok();
            let b = insert_with_full_recheck(&mut plain, &fds, &refs).is_ok();
            agree += (a == b) as usize;
        }
        // timing
        let t_incremental = median_time(3, || {
            let mut db = Database::new(base.clone(), fds.clone(), Enforcement::Strong)
                .expect("satisfiable base");
            for tokens in &batch_tokens {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let _ = std::hint::black_box(db.insert(&refs));
            }
        });
        let t_full = median_time(if n > 4096 { 1 } else { 3 }, || {
            let mut plain = base.clone();
            for tokens in &batch_tokens {
                let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
                let _ = std::hint::black_box(insert_with_full_recheck(&mut plain, &fds, &refs));
            }
        });
        table.row([
            n.to_string(),
            fmt_duration(t_incremental),
            fmt_duration(t_full),
            format!("×{:.1}", t_full.as_secs_f64() / t_incremental.as_secs_f64()),
            format!("{agree}/{batch}"),
        ]);
    }
    table.print();
    println!(
        "decisions agree exactly; the scan does one pass of pair tests per \
         insert where the full recheck clones the instance and runs \
         TEST-FDs over it (plus the pairwise fallback when a null lands on \
         a determinant).\n"
    );
}
