//! Workload strategies shared by the equivalence suites.

use fdi_gen::{plant_violation, workload, Workload, WorkloadSpec};
use fdi_relation::attrs::AttrId;
use fdi_relation::rowid::RowId;
use fdi_relation::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const DENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.6];

pub fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..40, 0usize..4, 0usize..4, 0usize..3).prop_map(|(rows, nd, necd, coll)| WorkloadSpec {
        rows,
        attrs: 4,
        domain: 6, // small domains force collisions, nulls, and cascades
        null_density: DENSITIES[nd],
        nec_density: DENSITIES[necd],
        collision_rate: [0.2, 0.5, 0.9][coll],
    })
}

/// A workload, optionally mutated into the adversarial regimes:
/// planted violations, `nothing` cells, cross-column NEC classes, and
/// forced nulls on the first FD's determinant.
pub fn arb_adversarial() -> impl Strategy<Value = Workload> {
    (
        (0u64..1 << 32, arb_spec(), 1usize..5),
        (
            0u8..2, // violations planted
            0u8..2, // nothing cells poked
            0u8..2, // cross-column class spliced
            0u8..2, // null forced onto fd0's determinant
        ),
    )
        .prop_map(
            |((seed, spec, fd_count), (violations, nothings, cross, null_lhs))| {
                let mut w = workload(seed, &spec, fd_count);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
                if violations == 1 {
                    plant_violation(&mut rng, &mut w.instance, &w.fds);
                }
                let rows: Vec<RowId> = w.instance.row_ids().collect();
                if nothings == 1 {
                    // `nothing` cells, including two sharing a column so
                    // some bucket carries one (grouped keys must stay
                    // row-unique on them)
                    for _ in 0..2 {
                        let row = rows[rng.gen_range(0..rows.len())];
                        let attr = AttrId(rng.gen_range(0..spec.attrs) as u16);
                        w.instance.set_value(row, attr, Value::Nothing);
                    }
                }
                if cross == 1 && rows.len() >= 2 {
                    // one NEC class spanning two columns of two rows —
                    // the caveat regime of the indexed chase
                    let id = w.instance.fresh_null();
                    let r0 = rows[rng.gen_range(0..rows.len())];
                    let r1 = rows[rng.gen_range(0..rows.len())];
                    w.instance.set_value(r0, AttrId(0), Value::Null(id));
                    w.instance.set_value(r1, AttrId(1), Value::Null(id));
                }
                if null_lhs == 1 {
                    // a null on fd0's determinant forces the
                    // strong-convention pairwise fallback for that FD
                    if let Some(fd) = w.fds.fds().first() {
                        if let Some(attr) = fd.normalized().lhs.iter().next() {
                            let row = rows[rng.gen_range(0..rows.len())];
                            let id = w.instance.fresh_null();
                            w.instance.set_value(row, attr, Value::Null(id));
                        }
                    }
                }
                w
            },
        )
}

/// A workload with two of every three rows tombstoned, skewed toward
/// the front so the leading slot ranges are nearly empty.
pub fn tombstone_heavy_workload() -> Workload {
    let spec = WorkloadSpec {
        rows: 60,
        attrs: 4,
        domain: 6,
        null_density: 0.3,
        nec_density: 0.3,
        collision_rate: 0.6,
    };
    let mut w = workload(23, &spec, 3);
    let rows: Vec<RowId> = w.instance.row_ids().collect();
    for (i, &row) in rows.iter().enumerate() {
        if i % 3 != 2 || i < 12 {
            w.instance.remove_row(row);
        }
    }
    assert!(
        w.instance.tombstone_count() > 0,
        "interior tombstones exist"
    );
    w
}
