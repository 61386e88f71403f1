//! Seeded workloads: the description a server starts from and the
//! request stream one closed-loop client sends.
//!
//! Every workload uses the paper's Figure 1 schema, `E# SL D# CT` under
//! `E# -> SL D#` and `D# -> CT`, with every domain finite and declared,
//! so no `select` ever meets an unbounded domain. The generator keeps a
//! shadow of the live rows in display order, so that positional
//! requests (`modify`, `resolve`, `delete`) point at rows that exist and
//! `resolve` points at nulls that propagation cannot fill. The shadow
//! only steers the draw: whatever the server answers is checked against
//! the in-process replay, never against the shadow.

use std::fmt::Write as _;

/// Size of the SL domain.
pub const SALARIES: usize = 64;
/// Size of the D# domain.
pub const DEPTS: usize = 2000;
/// Size of the CT domain.
pub const CONTRACTS: usize = 20;
/// Departments the point reads draw from, Zipf(1) over rank.
pub const HOT_DEPTS: usize = 256;
/// E# values declared beyond the base rows, for inserts.
pub const SPARE_EMPLOYEES: usize = 16384;
/// Shared NEC marks used in SL.
const SALARY_MARKS: usize = 32;
/// One department in this many states no contract type in the base:
/// its CT nulls stay open until a `resolve` supplies one.
const OPEN_DEPT_EVERY: usize = 20;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    PointRead,
    BroadRead,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::PointRead,
        Workload::BroadRead,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::PointRead => "point_read",
            Workload::BroadRead => "broad_read",
            Workload::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rows in the description the server starts from.
    pub fn base_rows(self) -> usize {
        match self {
            Workload::Ingest | Workload::Mixed => 10_000,
            Workload::PointRead | Workload::BroadRead => 20_000,
        }
    }

    /// Writes between explicit `commit`s; the read workloads commit on
    /// a fixed slot instead.
    fn writes_per_commit(self) -> usize {
        match self {
            Workload::Ingest => 16,
            Workload::Mixed => 8,
            Workload::PointRead | Workload::BroadRead => usize::MAX,
        }
    }
}

/// What a request exercises, for per-class latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Write,
    Read,
    Commit,
    Ping,
}

/// One request line of the `fdi serve` grammar. Positions are 1-based
/// display positions, as the server resolves them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Insert([String; 4]),
    Delete(usize),
    Modify {
        pos: usize,
        attr: &'static str,
        token: String,
    },
    Resolve {
        pos: usize,
        attr: &'static str,
        token: String,
    },
    Commit,
    Select {
        attr: &'static str,
        value: String,
    },
    Ping,
}

impl Request {
    pub fn class(&self) -> Class {
        match self {
            Request::Insert(_)
            | Request::Delete(_)
            | Request::Modify { .. }
            | Request::Resolve { .. } => Class::Write,
            Request::Commit => Class::Commit,
            Request::Select { .. } => Class::Read,
            Request::Ping => Class::Ping,
        }
    }

    /// The line sent to the server.
    pub fn line(&self) -> String {
        match self {
            Request::Insert(tokens) => format!("insert {}", tokens.join(" ")),
            Request::Delete(pos) => format!("delete {pos}"),
            Request::Modify { pos, attr, token } => format!("modify {pos} {attr} {token}"),
            Request::Resolve { pos, attr, token } => format!("resolve {pos} {attr} {token}"),
            Request::Commit => "commit".to_string(),
            Request::Select { attr, value } => format!("select {attr} {value}"),
            Request::Ping => "epoch".to_string(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Insert,
    Modify,
    Resolve,
    Delete,
    Commit,
    Point,
    Broad,
}

/// The mixed workload's non-ping, non-commit requests, dealt from a
/// shuffled deck so that every run holds the same proportions. With
/// commits and pings these are 35% point selects, 5% broad selects,
/// 25% inserts and 5% each of modify, resolve and delete; the 9% of
/// requests left over go to point selects, so that the median request
/// lies inside the read cluster rather than on its edge.
const MIXED_DECK: [(Kind, usize); 6] = [
    (Kind::Point, 45),
    (Kind::Broad, 5),
    (Kind::Insert, 25),
    (Kind::Modify, 5),
    (Kind::Resolve, 5),
    (Kind::Delete, 5),
];

/// A live row as the generator expects it.
#[derive(Clone, Copy, Debug)]
struct Shadow {
    dept: Option<usize>,
    /// CT is a null that propagation cannot fill.
    open_ct: bool,
}

/// The endless request stream of one workload and seed.
#[derive(Clone, Debug)]
pub struct Script {
    workload: Workload,
    rng: Rng,
    rows: Vec<Shadow>,
    dept_ct: Vec<usize>,
    open_dept: Vec<bool>,
    /// Departments some row states a contract type for.
    anchored: Vec<bool>,
    anchored_list: Vec<usize>,
    next_emp: usize,
    hot: Vec<usize>,
    zipf_cdf: Vec<f64>,
    deck: Vec<Kind>,
    issued: u64,
    writes_since_commit: usize,
}

impl Script {
    /// The description text (`%schema`, `%fds`, `%instance`) a server
    /// starts from, and the request stream that follows it.
    pub fn generate(workload: Workload, seed: u64, base_rows: usize) -> (String, Script) {
        let mut rng = Rng::new(seed ^ 0x00e2_e0be_0c11_5eed);
        // Balanced where a seed could otherwise tilt the cost: every
        // contract type covers the same number of departments, open ones
        // included, and base rows fill departments round-robin.
        let mut order: Vec<usize> = (0..DEPTS).collect();
        rng.shuffle(&mut order);
        let (mut dept_ct, mut open_dept) = (vec![0; DEPTS], vec![false; DEPTS]);
        for (j, &d) in order.iter().enumerate() {
            dept_ct[d] = j % CONTRACTS;
            open_dept[d] = j < DEPTS / OPEN_DEPT_EVERY;
        }
        let mut hot: Vec<usize> = (0..DEPTS).collect();
        rng.shuffle(&mut hot);
        hot.truncate(HOT_DEPTS);
        let harmonic: f64 = (1..=HOT_DEPTS).map(|k| 1.0 / k as f64).sum();
        let zipf_cdf = (1..=HOT_DEPTS)
            .scan(0.0, |acc, k| {
                *acc += 1.0 / k as f64 / harmonic;
                Some(*acc)
            })
            .collect();
        let mut script = Script {
            workload,
            rng,
            rows: Vec::with_capacity(base_rows),
            dept_ct,
            open_dept,
            anchored: vec![false; DEPTS],
            anchored_list: Vec::new(),
            next_emp: 0,
            hot,
            zipf_cdf,
            deck: Vec::new(),
            issued: 0,
            writes_since_commit: 0,
        };
        let mut desc = String::from("%schema\nrelation Staff\nattr E#");
        for e in 0..base_rows + SPARE_EMPLOYEES {
            let _ = write!(desc, " e{e}");
        }
        desc.push_str("\nattr SL");
        for s in 0..SALARIES {
            let _ = write!(desc, " s{s}");
        }
        desc.push_str("\nattr D#");
        for d in 0..DEPTS {
            let _ = write!(desc, " d{d}");
        }
        desc.push_str("\nattr CT");
        for t in 0..CONTRACTS {
            let _ = write!(desc, " t{t}");
        }
        desc.push_str("\n\n%fds\nE# -> SL D#\nD# -> CT\n\n%instance\n");
        for i in 0..base_rows {
            let tokens = script.fresh_row(order[i % DEPTS]);
            desc.push_str(&tokens.join(" "));
            desc.push('\n');
        }
        (desc, script)
    }

    /// A new employee's row: 10% SL nulls (half of them shared marks),
    /// one D# null per `DEPTS` rows, 10% CT nulls in departments that
    /// state a contract type (half of them the department's shared
    /// mark), and CT nulls throughout open departments.
    fn fresh_row(&mut self, d: usize) -> [String; 4] {
        let emp = self.take_employee();
        let sl = self.salary();
        let (dept, shadow_dept, ct, open_ct) = if self.rng.below(DEPTS) == 0 {
            // A null D# leaves the row outside every department's class:
            // a CT null here is open, and a constant anchors nothing.
            let ct_null = self.rng.below(10) == 0;
            let ct = if ct_null {
                "-".to_string()
            } else {
                format!("t{}", self.dept_ct[d])
            };
            ("-".to_string(), None, ct, ct_null)
        } else if self.open_dept[d] {
            let ct = if self.rng.below(3) == 0 {
                format!("?o{d}")
            } else {
                "-".to_string()
            };
            (format!("d{d}"), Some(d), ct, true)
        } else {
            let ct = if self.anchored[d] && self.rng.below(10) == 0 {
                if self.rng.below(2) == 0 {
                    "-".to_string()
                } else {
                    format!("?c{d}")
                }
            } else {
                self.anchor(d);
                format!("t{}", self.dept_ct[d])
            };
            (format!("d{d}"), Some(d), ct, false)
        };
        self.rows.push(Shadow {
            dept: shadow_dept,
            open_ct,
        });
        [emp, sl, dept, ct]
    }

    fn take_employee(&mut self) -> String {
        let e = self.next_emp;
        self.next_emp += 1;
        format!("e{e}")
    }

    fn salary(&mut self) -> String {
        match self.rng.below(20) {
            0 => "-".to_string(),
            1 => format!("?s{}", self.rng.below(SALARY_MARKS)),
            _ => format!("s{}", self.rng.below(SALARIES)),
        }
    }

    fn anchor(&mut self, d: usize) {
        if !self.anchored[d] {
            self.anchored[d] = true;
            self.anchored_list.push(d);
        }
    }

    fn anchored_dept(&mut self) -> Option<usize> {
        (!self.anchored_list.is_empty())
            .then(|| self.anchored_list[self.rng.below(self.anchored_list.len())])
    }

    fn position(&mut self) -> usize {
        self.rng.below(self.rows.len()) + 1
    }

    /// Of all inserts: 10% carry a null CT into a department with a
    /// known contract type, which propagation fills (internal
    /// acquisition); 8% contradict a known contract type, which weak
    /// enforcement rejects; the rest are fresh rows.
    fn insert(&mut self) -> Request {
        let roll = self.rng.below(100);
        match self.anchored_dept() {
            Some(d) if roll < 18 => {
                let emp = self.take_employee();
                let sl = self.salary();
                let ct = if roll < 10 {
                    self.rows.push(Shadow {
                        dept: Some(d),
                        open_ct: false,
                    });
                    "-".to_string()
                } else {
                    let other = (self.dept_ct[d] + 1 + self.rng.below(CONTRACTS - 1)) % CONTRACTS;
                    format!("t{other}")
                };
                Request::Insert([emp, sl, format!("d{d}"), ct])
            }
            _ => {
                let d = self.rng.below(DEPTS);
                Request::Insert(self.fresh_row(d))
            }
        }
    }

    /// Supplies a contract type for an open CT null (external
    /// acquisition); in an open department propagation then fills the
    /// department's other rows.
    fn resolve(&mut self) -> Request {
        let open = self.rows.iter().filter(|r| r.open_ct).count();
        if open == 0 {
            let pos = self.position();
            let token = format!("t{}", self.rng.below(CONTRACTS));
            return Request::Resolve {
                pos,
                attr: "CT",
                token,
            };
        }
        let nth = self.rng.below(open);
        let index = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.open_ct)
            .nth(nth)
            .map(|(i, _)| i)
            .expect("nth < count of open rows");
        let token = match self.rows[index].dept {
            Some(d) => {
                for row in self.rows.iter_mut().filter(|r| r.dept == Some(d)) {
                    row.open_ct = false;
                }
                self.open_dept[d] = false;
                self.anchor(d);
                format!("t{}", self.dept_ct[d])
            }
            None => {
                self.rows[index].open_ct = false;
                format!("t{}", self.rng.below(CONTRACTS))
            }
        };
        Request::Resolve {
            pos: index + 1,
            attr: "CT",
            token,
        }
    }

    fn request(&mut self, kind: Kind) -> Request {
        if matches!(
            kind,
            Kind::Insert | Kind::Modify | Kind::Resolve | Kind::Delete
        ) {
            self.writes_since_commit += 1;
        }
        match kind {
            Kind::Commit => Request::Commit,
            Kind::Point => {
                let u = self.rng.unit();
                let rank = self.zipf_cdf.partition_point(|&c| c < u).min(HOT_DEPTS - 1);
                Request::Select {
                    attr: "D#",
                    value: format!("d{}", self.hot[rank]),
                }
            }
            Kind::Broad => Request::Select {
                attr: "CT",
                value: format!("t{}", self.rng.below(CONTRACTS)),
            },
            Kind::Insert => self.insert(),
            Kind::Modify if !self.rows.is_empty() => {
                let pos = self.position();
                let token = format!("s{}", self.rng.below(SALARIES));
                Request::Modify {
                    pos,
                    attr: "SL",
                    token,
                }
            }
            Kind::Resolve if !self.rows.is_empty() => self.resolve(),
            Kind::Delete if !self.rows.is_empty() => {
                let pos = self.position();
                self.rows.remove(pos - 1);
                Request::Delete(pos)
            }
            Kind::Modify | Kind::Resolve | Kind::Delete => self.insert(),
        }
    }
}

impl Iterator for Script {
    type Item = Request;

    /// Every 16th request is an `epoch` ping. Slots are fixed where a
    /// workload has few requests of a class, so that every run times
    /// every class.
    fn next(&mut self) -> Option<Request> {
        let i = self.issued;
        self.issued += 1;
        if i % 16 == 15 {
            return Some(Request::Ping);
        }
        if self.writes_since_commit >= self.workload.writes_per_commit() {
            self.writes_since_commit = 0;
            return Some(Request::Commit);
        }
        let kind = match self.workload {
            Workload::Ingest => match i % 16 {
                3 => Kind::Modify,
                7 => Kind::Point,
                _ => Kind::Insert,
            },
            Workload::PointRead | Workload::BroadRead => match i % 16 {
                7 => Kind::Modify,
                8 => Kind::Commit,
                _ if self.workload == Workload::PointRead => Kind::Point,
                _ => Kind::Broad,
            },
            Workload::Mixed => {
                if self.deck.is_empty() {
                    for (kind, count) in MIXED_DECK {
                        self.deck.extend(std::iter::repeat_n(kind, count));
                    }
                    self.rng.shuffle(&mut self.deck);
                }
                self.deck.pop().expect("refilled")
            }
        };
        Some(self.request(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_description_and_requests() {
        for workload in Workload::ALL {
            let (desc_a, script_a) = Script::generate(workload, 11, 200);
            let (desc_b, script_b) = Script::generate(workload, 11, 200);
            assert_eq!(desc_a, desc_b, "{}", workload.name());
            let a: Vec<Request> = script_a.take(600).collect();
            let b: Vec<Request> = script_b.take(600).collect();
            assert_eq!(a, b, "{}", workload.name());
            let (desc_c, script_c) = Script::generate(workload, 12, 200);
            let c: Vec<Request> = script_c.take(600).collect();
            assert!(desc_c != desc_a && c != a, "{}", workload.name());
        }
    }

    #[test]
    fn every_run_prefix_holds_every_request_class() {
        for workload in Workload::ALL {
            let (_, script) = Script::generate(workload, 3, 200);
            let requests: Vec<Request> = script.take(64).collect();
            for class in [Class::Write, Class::Read, Class::Commit, Class::Ping] {
                assert!(
                    requests.iter().any(|r| r.class() == class),
                    "{} lacks {class:?}",
                    workload.name()
                );
            }
            assert_eq!(requests[15], Request::Ping);
        }
    }

    #[test]
    fn request_lines_follow_the_serve_grammar() {
        let modify = Request::Modify {
            pos: 3,
            attr: "SL",
            token: "s1".into(),
        };
        assert_eq!(modify.line(), "modify 3 SL s1");
        assert_eq!(Request::Ping.line(), "epoch");
        let insert = Request::Insert(["e1".into(), "-".into(), "d2".into(), "?c2".into()]);
        assert_eq!(insert.line(), "insert e1 - d2 ?c2");
    }
}
