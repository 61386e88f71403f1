//! Relation instances: tuples over a schema, with marked nulls and NECs.
//!
//! An [`Instance`] owns everything operational: the interned symbol
//! table, the symbol-level finite domains, the tuples, the null-equality
//! constraints, and the null-id allocator. Two instances of the same
//! [`Schema`] are completely independent.
//!
//! ## Row identity: a slot arena
//!
//! Rows live in **stable slots** addressed by [`RowId`]: inserting
//! appends a slot, deleting tombstones one in `O(1)`, and no surviving
//! row is ever renumbered. Consumers that key on rows (determinant
//! indexes, chase occurrence lists, worklists) therefore stay valid
//! across deletes with no id-shift pass. Live rows iterate in ascending
//! slot order ([`Instance::iter_live`]), which equals insertion order —
//! so the displayed/serialized order is exactly what a dense tuple
//! vector would show, tombstones and all. Removing the most recently
//! appended row releases its slot entirely (the arena truncates trailing
//! tombstones), which is what lets an insert-then-rollback sequence
//! leave the instance byte-identical to never having inserted. Interior
//! tombstones persist until an explicit [`Instance::compact`], which
//! returns the old → new [`RowId`] remap for index maintenance.
//!
//! The text format used by [`Instance::parse`] mirrors the paper's
//! figures: one tuple per line, values separated by whitespace, `-` for
//! an anonymous null, `?name` for a *marked* null (two occurrences of the
//! same mark denote the same unknown value), `#!` for the `nothing`
//! element, and `#`-prefixed comment lines ([`is_comment`]).

use crate::attrs::AttrId;
use crate::domain::Domain;
use crate::error::RelationError;
use crate::nec::NecStore;
use crate::rowid::RowId;
use crate::schema::{DomainSpec, Schema};
use crate::serial::{self, DecodeError, Reader};
use crate::symbol::{Symbol, SymbolTable};
use crate::tuple::Tuple;
use crate::value::{NullId, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Is `line` (already trimmed) a comment of the text format? A line
/// starting with `#` is one, unless its first whitespace-separated token
/// is exactly `#!` — that is a row whose first value is `nothing`. A
/// `#!/…` shebang stays a comment.
pub fn is_comment(line: &str) -> bool {
    line.starts_with('#') && line.split_whitespace().next() != Some("#!")
}

/// A relation instance `r` of a scheme `R`.
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    symbols: SymbolTable,
    domains: Vec<Domain>,
    /// Row slots: `Some` = live tuple, `None` = tombstone. Appends only
    /// grow the vector; removals tombstone (or truncate a trailing
    /// slot), so a slot index — a [`RowId`] — is stable for the lifetime
    /// of its row.
    slots: Vec<Option<Tuple>>,
    /// Slot indices of interior tombstones (trailing ones are truncated
    /// away immediately). Cleared by [`Instance::compact`].
    free: Vec<u32>,
    /// Number of live rows.
    live: usize,
    necs: NecStore,
    next_null: u32,
    marks: HashMap<String, NullId>,
}

impl Instance {
    /// Creates an empty instance, interning all finite domain values.
    pub fn new(schema: Arc<Schema>) -> Instance {
        let mut symbols = SymbolTable::new();
        let domains = schema
            .attrs()
            .iter()
            .map(|attr| match &attr.domain {
                DomainSpec::Finite(values) => {
                    Domain::finite(values.iter().map(|v| symbols.intern(v)))
                }
                DomainSpec::Unbounded => Domain::Unbounded,
            })
            .collect();
        Instance {
            schema,
            symbols,
            domains,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            necs: NecStore::new(),
            next_null: 0,
            marks: HashMap::new(),
        }
    }

    /// Parses an instance from text (see the module documentation for the
    /// format).
    pub fn parse(schema: Arc<Schema>, text: &str) -> Result<Instance, RelationError> {
        let mut instance = Instance::new(schema);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || is_comment(line) {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            instance.add_row(&tokens).map_err(|e| match e {
                RelationError::Parse { message, .. } => RelationError::Parse {
                    line: lineno + 1,
                    message,
                },
                other => RelationError::Parse {
                    line: lineno + 1,
                    message: other.to_string(),
                },
            })?;
        }
        Ok(instance)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The interned symbols.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The symbol-level domain of attribute `a`.
    pub fn domain(&self, a: AttrId) -> &Domain {
        &self.domains[a.index()]
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` iff the instance has no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Exclusive upper bound on slot indices: every live [`RowId`] `id`
    /// satisfies `id.index() < slot_bound()`. Use this to size dense
    /// per-slot side tables; it exceeds [`Instance::len`] exactly when
    /// interior tombstones exist.
    pub fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Is `row` a live row of this instance?
    pub fn is_live(&self, row: RowId) -> bool {
        matches!(self.slots.get(row.index()), Some(Some(_)))
    }

    /// Live rows with their tuples, in ascending slot order (= insertion
    /// order = display order).
    pub fn iter_live(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (RowId(i as u32), t)))
    }

    /// Live row ids, in ascending slot order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.iter_live().map(|(id, _)| id)
    }

    /// Live tuples in display order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.iter_live().map(|(_, t)| t)
    }

    /// Live tuples cloned into a dense vector (display order) — for
    /// consumers that operate on plain tuple lists, like the completion
    /// evaluators.
    pub fn tuples_vec(&self) -> Vec<Tuple> {
        self.tuples().cloned().collect()
    }

    /// The id of the `i`-th live row in display order — the positional
    /// accessor for rendered output (a user pointing at "row 2" of a
    /// printed table means `nth_row(2)`).
    ///
    /// # Panics
    /// Panics when fewer than `i + 1` rows are live.
    pub fn nth_row(&self, i: usize) -> RowId {
        self.row_ids()
            .nth(i)
            .unwrap_or_else(|| panic!("nth_row({i}): only {} live rows", self.live))
    }

    /// One tuple.
    ///
    /// # Panics
    /// Panics when `row` is not a live row.
    pub fn tuple(&self, row: RowId) -> &Tuple {
        self.slots
            .get(row.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no live row {row}"))
    }

    /// The value at (`row`, `attr`).
    pub fn value(&self, row: RowId, attr: AttrId) -> Value {
        self.tuple(row).get(attr)
    }

    /// Overwrites the value at (`row`, `attr`) — used by the chase
    /// engines and the substitution rules.
    ///
    /// # Panics
    /// Panics when `row` is not a live row.
    pub fn set_value(&mut self, row: RowId, attr: AttrId, v: Value) {
        self.slots
            .get_mut(row.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("no live row {row}"))
            .set(attr, v);
    }

    /// The NEC store.
    pub fn necs(&self) -> &NecStore {
        &self.necs
    }

    /// Mutable access to the NEC store.
    pub fn necs_mut(&mut self) -> &mut NecStore {
        &mut self.necs
    }

    /// Introduces the NEC `a := b`; returns `true` if knowledge increased.
    pub fn add_nec(&mut self, a: NullId, b: NullId) -> bool {
        self.necs.union(a, b)
    }

    /// Replaces the NEC store wholesale — used by chase engines when they
    /// materialize a new null-class structure (same-id nulls remain
    /// equivalent by definition regardless of the store).
    pub fn replace_necs(&mut self, necs: NecStore) {
        self.necs = necs;
    }

    /// Allocates a fresh null id.
    pub fn fresh_null(&mut self) -> NullId {
        let id = NullId(self.next_null);
        self.next_null += 1;
        id
    }

    /// Ensures future [`Instance::fresh_null`] calls return ids strictly
    /// greater than `id` — used after writing externally numbered nulls
    /// via [`Instance::set_value`].
    pub fn reserve_null_ids(&mut self, id: NullId) {
        if id.0 >= self.next_null {
            self.next_null = id.0 + 1;
        }
    }

    /// Interns a constant for attribute `a`, enforcing domain membership
    /// for finite domains.
    pub fn intern_constant(&mut self, a: AttrId, text: &str) -> Result<Symbol, RelationError> {
        match &self.domains[a.index()] {
            Domain::Finite(_) => match self.symbols.lookup(text) {
                Some(sym) if self.domains[a.index()].contains(sym) => Ok(sym),
                _ => Err(RelationError::ConstantNotInDomain {
                    constant: text.to_string(),
                    attribute: self.schema.attr_name(a).to_string(),
                }),
            },
            Domain::Unbounded => Ok(self.symbols.intern(text)),
        }
    }

    /// Appends a tuple to a fresh slot. Allocation never reuses an
    /// interior tombstone: keeping slot order equal to insertion order is
    /// what makes the displayed/serialized order identical to a dense
    /// tuple vector's.
    fn alloc_slot(&mut self, tuple: Tuple) -> RowId {
        let id = RowId(self.slots.len() as u32);
        self.slots.push(Some(tuple));
        self.live += 1;
        id
    }

    /// Parses one cell token of the text format for attribute `attr`:
    /// `-` is a fresh null, `?mark` the null bound to `mark` (bound to a
    /// fresh null on first use), `#!` is `nothing`, anything else a
    /// constant of the attribute's domain. The one token grammar of rows
    /// and of cell updates.
    pub fn parse_value(&mut self, attr: AttrId, token: &str) -> Result<Value, RelationError> {
        if token == "-" {
            Ok(Value::Null(self.fresh_null()))
        } else if token == "#!" {
            Ok(Value::Nothing)
        } else if let Some(mark) = token.strip_prefix('?') {
            if mark.is_empty() {
                return Err(RelationError::Parse {
                    line: 0,
                    message: "a marked null needs a name after '?'".to_string(),
                });
            }
            if let Some(&id) = self.marks.get(mark) {
                return Ok(Value::Null(id));
            }
            let id = self.fresh_null();
            self.marks.insert(mark.to_string(), id);
            Ok(Value::Null(id))
        } else {
            Ok(Value::Const(self.intern_constant(attr, token)?))
        }
    }

    /// Adds a row from text tokens (see [`Instance::parse_value`]).
    /// Returns the new row's id.
    pub fn add_row(&mut self, tokens: &[&str]) -> Result<RowId, RelationError> {
        if tokens.len() != self.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.arity(),
                found: tokens.len(),
            });
        }
        let mut values = Vec::with_capacity(tokens.len());
        for (i, token) in tokens.iter().enumerate() {
            values.push(self.parse_value(AttrId(i as u16), token)?);
        }
        Ok(self.alloc_slot(Tuple::new(values)))
    }

    /// Adds a pre-built tuple (validated for arity; constants are trusted
    /// to be domain members — use [`Instance::intern_constant`] to build
    /// them). Returns the new row's id.
    pub fn add_tuple(&mut self, tuple: Tuple) -> Result<RowId, RelationError> {
        if tuple.arity() != self.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.arity(),
                found: tuple.arity(),
            });
        }
        // Keep the null allocator ahead of any ids used by the tuple.
        for (_, n) in tuple.nulls_on(self.schema.all_attrs()) {
            if n.0 >= self.next_null {
                self.next_null = n.0 + 1;
            }
        }
        Ok(self.alloc_slot(tuple))
    }

    /// Removes the row at `row` in `O(1)` and returns its tuple. No
    /// surviving row is renumbered: the slot becomes a tombstone (or,
    /// for the most recently appended row, is released outright — so an
    /// insert immediately undone by a rollback leaves the arena exactly
    /// as it was). NECs, marks, and the null-id allocator are untouched:
    /// a class may keep members that no longer occur in any tuple
    /// (harmless — ids are never reused), and a deleted row's marked
    /// nulls keep their binding so a re-inserted `?mark` rejoins its
    /// class.
    ///
    /// # Panics
    /// Panics when `row` is not a live row.
    pub fn remove_row(&mut self, row: RowId) -> Tuple {
        let slot = row.index();
        let tuple = self
            .slots
            .get_mut(slot)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("remove_row: no live row {row}"));
        self.live -= 1;
        if slot + 1 == self.slots.len() {
            self.slots.pop();
            while matches!(self.slots.last(), Some(None)) {
                self.slots.pop();
            }
            let bound = self.slots.len() as u32;
            self.free.retain(|&s| s < bound);
        } else {
            self.free.push(row.0);
        }
        tuple
    }

    /// Number of interior tombstones — dead slots a future
    /// [`Instance::compact`] would reclaim (trailing ones are already
    /// truncated on removal). Equals `slot_bound() - len()`.
    pub fn tombstone_count(&self) -> usize {
        self.free.len()
    }

    /// Densifies the arena: live rows are repacked into slots
    /// `0..len()`, preserving order, and interior tombstones disappear.
    /// Returns the `(old, new)` id pairs of every row that moved, so
    /// side structures keyed by [`RowId`] can be remapped instead of
    /// rebuilt. Already-dense instances (an empty free list) return
    /// without scanning.
    pub fn compact(&mut self) -> Vec<(RowId, RowId)> {
        if self.free.is_empty() {
            return Vec::new(); // no interior tombstones: nothing to move
        }
        let mut moved = Vec::new();
        let mut next = 0usize;
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                if slot != next {
                    self.slots[next] = self.slots[slot].take();
                    moved.push((RowId(slot as u32), RowId(next as u32)));
                }
                next += 1;
            }
        }
        self.slots.truncate(next);
        self.free.clear();
        moved
    }

    /// The null id previously assigned to `mark`, if any.
    pub fn mark(&self, mark: &str) -> Option<NullId> {
        self.marks.get(mark).copied()
    }

    /// Does any tuple contain a null?
    pub fn has_nulls(&self) -> bool {
        let all = self.schema.all_attrs();
        self.tuples().any(|t| t.has_null_on(all))
    }

    /// Number of null occurrences.
    pub fn null_count(&self) -> usize {
        let all = self.schema.all_attrs();
        self.tuples().map(|t| t.nulls_on(all).count()).sum()
    }

    /// Number of `nothing` occurrences (non-zero after a failed extended
    /// chase — Theorem 4(b)).
    pub fn nothing_count(&self) -> usize {
        let all = self.schema.all_attrs();
        self.tuples()
            .map(|t| all.iter().filter(|a| t.get(*a).is_nothing()).count())
            .sum()
    }

    /// Returns `true` iff the instance contains neither nulls nor
    /// `nothing` values.
    pub fn is_complete(&self) -> bool {
        let all = self.schema.all_attrs();
        self.tuples()
            .all(|t| all.iter().all(|a| t.get(a).is_const()))
    }

    /// A canonical, order-insensitive-for-null-ids form of the instance:
    /// null ids are renamed to their NEC class, classes are numbered by
    /// first occurrence (row-major over live rows in display order), and
    /// the tuple list is kept in that order. Tombstones do not
    /// participate: a tombstoned instance and its compacted twin share
    /// one canonical form.
    ///
    /// Two chase results that differ only in null-id bookkeeping compare
    /// equal under this form — the comparison Theorem 4's Church–Rosser
    /// experiments need.
    pub fn canonical_form(&self) -> CanonicalInstance {
        let mut class_index: HashMap<NullId, usize> = HashMap::new();
        let mut rows = Vec::with_capacity(self.live);
        for t in self.tuples() {
            let mut row = Vec::with_capacity(self.arity());
            for a in self.schema.all_attrs().iter() {
                row.push(match t.get(a) {
                    Value::Const(s) => CanonValue::Const(s),
                    Value::Nothing => CanonValue::Nothing,
                    Value::Null(n) => {
                        let root = self.necs.find_readonly(n);
                        let next = class_index.len();
                        let idx = *class_index.entry(root).or_insert(next);
                        CanonValue::Null(idx)
                    }
                });
            }
            rows.push(row);
        }
        CanonicalInstance { rows }
    }

    /// Serializes the **exact operational state** of the instance — the
    /// interned symbol table, the null-id allocator, the `?mark`
    /// bindings, the union–find internals, every slot (tombstones
    /// included), and the interior free list — so that the decoded twin
    /// ([`Instance::decode_state`]) is indistinguishable from the
    /// original under any later sequence of mutations. This is the
    /// snapshot currency of the durability layer's genesis/checkpoint
    /// records: log replay on the decoded state must be bit-identical to
    /// having applied the ops live, which a merely
    /// [`canonical_form`](Instance::canonical_form)-equal copy (fresh
    /// null ids, reset allocator, compacted slots) would not give.
    ///
    /// The schema itself is *not* serialized — the caller stores it
    /// alongside and passes it back to `decode_state`, which validates
    /// the symbol table against it. Byte output is deterministic: equal
    /// states encode to equal bytes (map-backed fields are emitted in
    /// sorted order).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        serial::put_u32(out, self.symbols.len() as u32);
        for name in self.symbols.names() {
            serial::put_str(out, name);
        }
        serial::put_u32(out, self.next_null);
        let mut marks: Vec<(&str, NullId)> =
            self.marks.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        marks.sort_unstable();
        serial::put_u32(out, marks.len() as u32);
        for (name, id) in marks {
            serial::put_str(out, name);
            serial::put_u32(out, id.0);
        }
        self.necs.encode_state(out);
        serial::put_u32(out, self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => serial::put_u8(out, 0),
                Some(tuple) => {
                    serial::put_u8(out, 1);
                    for v in tuple.values() {
                        match v {
                            Value::Const(s) => {
                                serial::put_u8(out, 0);
                                serial::put_u32(out, s.0);
                            }
                            Value::Null(n) => {
                                serial::put_u8(out, 1);
                                serial::put_u32(out, n.0);
                            }
                            Value::Nothing => serial::put_u8(out, 2),
                        }
                    }
                }
            }
        }
        serial::put_u32(out, self.free.len() as u32);
        for &f in &self.free {
            serial::put_u32(out, f);
        }
    }

    /// Decodes a state serialized by [`Instance::encode_state`] against
    /// `schema` — which must be the schema the encoder ran under: the
    /// pre-interned finite-domain symbols are re-derived from it and
    /// checked id-for-id against the serialized table, so a schema
    /// mismatch surfaces as a [`DecodeError`] rather than silently
    /// renumbered constants. All ids (symbols, nulls, parent pointers,
    /// free slots) are bounds-checked; constants' domain membership is
    /// trusted (the encoder only ever writes instance-validated values).
    pub fn decode_state(schema: Arc<Schema>, r: &mut Reader<'_>) -> Result<Instance, DecodeError> {
        let mut instance = Instance::new(schema);
        let preinterned = instance.symbols.len();
        let symbol_count = r.u32()? as usize;
        if symbol_count < preinterned {
            return Err(r.err(format!(
                "symbol table has {symbol_count} entries, schema pre-interns {preinterned}"
            )));
        }
        for i in 0..symbol_count {
            let name = r.str()?;
            let sym = instance.symbols.intern(&name);
            if sym.index() != i {
                return Err(r.err(format!(
                    "symbol {i} {name:?} interned as {sym} — table disagrees with schema"
                )));
            }
        }
        let next_null = r.u32()?;
        let mark_count = r.u32()? as usize;
        // Untrusted counts: pre-allocate no more entries than bytes left.
        let mut marks = HashMap::with_capacity(mark_count.min(r.remaining()));
        for _ in 0..mark_count {
            let name = r.str()?;
            let id = r.u32()?;
            if id >= next_null {
                return Err(r.err(format!(
                    "mark {name:?} binds null {id} at or past the allocator ({next_null})"
                )));
            }
            if marks.insert(name.clone(), NullId(id)).is_some() {
                return Err(r.err(format!("duplicate mark {name:?}")));
            }
        }
        let necs = NecStore::decode_state(r)?;
        let slot_count = r.u32()? as usize;
        let arity = instance.arity();
        let mut slots = Vec::with_capacity(slot_count.min(r.remaining()));
        let mut live = 0usize;
        for slot in 0..slot_count {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let mut values = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        values.push(match r.u8()? {
                            0 => {
                                let s = r.u32()?;
                                if s as usize >= symbol_count {
                                    return Err(r.err(format!(
                                        "slot {slot}: symbol {s} outside the table"
                                    )));
                                }
                                Value::Const(Symbol(s))
                            }
                            1 => {
                                let n = r.u32()?;
                                if n >= next_null {
                                    return Err(r.err(format!(
                                        "slot {slot}: null {n} at or past the allocator"
                                    )));
                                }
                                Value::Null(NullId(n))
                            }
                            2 => Value::Nothing,
                            tag => return Err(r.err(format!("slot {slot}: bad value tag {tag}"))),
                        });
                    }
                    slots.push(Some(Tuple::new(values)));
                    live += 1;
                }
                tag => return Err(r.err(format!("slot {slot}: bad slot tag {tag}"))),
            }
        }
        if matches!(slots.last(), Some(None)) {
            return Err(r.err("trailing tombstone (the arena truncates those on removal)"));
        }
        let free_count = r.u32()? as usize;
        if free_count != slots.iter().filter(|s| s.is_none()).count() {
            return Err(r.err(format!(
                "free list has {free_count} entries but the arena disagrees"
            )));
        }
        let mut free = Vec::with_capacity(free_count.min(r.remaining()));
        let mut seen = vec![false; slot_count];
        for _ in 0..free_count {
            let f = r.u32()?;
            match slots.get(f as usize) {
                Some(None) if !seen[f as usize] => seen[f as usize] = true,
                Some(None) => return Err(r.err(format!("slot {f} freed twice"))),
                _ => return Err(r.err(format!("free-list entry {f} is not a tombstone"))),
            }
            free.push(f);
        }
        instance.next_null = next_null;
        instance.marks = marks;
        instance.necs = necs;
        instance.slots = slots;
        instance.free = free;
        instance.live = live;
        Ok(instance)
    }

    /// Renders the instance as an ASCII table in the style of the paper's
    /// figures. `marked` controls whether nulls display as `-` or `?id`.
    /// Live rows only, in display order — tombstones leave no gap.
    pub fn render(&self, marked: bool) -> String {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.live);
        for t in self.tuples() {
            let row: Vec<String> = self
                .schema
                .all_attrs()
                .iter()
                .map(|a| t.get(a).render(&self.symbols, marked))
                .collect();
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
            rows.push(row);
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (cell, w) in cells.iter().zip(widths) {
                out.push(' ');
                out.push_str(cell);
                for _ in cell.len()..*w {
                    out.push(' ');
                }
                out.push_str(" |");
            }
            out.push('\n');
        };
        fmt_row(&headers, &widths, &mut out);
        out.push('|');
        for w in &widths {
            for _ in 0..w + 2 {
                out.push('-');
            }
            out.push('|');
        }
        out.push('\n');
        for row in &rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(false))
    }
}

/// Canonicalized value (see [`Instance::canonical_form`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonValue {
    /// A constant symbol.
    Const(Symbol),
    /// A null, identified by canonical class index.
    Null(usize),
    /// The `nothing` element.
    Nothing,
}

/// Canonical form of an instance; equality is the instance equality used
/// by the confluence experiments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalInstance {
    /// Rows in display order, values canonicalized.
    pub rows: Vec<Vec<CanonValue>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_abc() -> Arc<Schema> {
        Schema::builder("R")
            .attribute("A", ["a1", "a2"])
            .attribute("B", ["b1", "b2", "b3"])
            .attribute("C", ["c1", "c2"])
            .build()
            .unwrap()
    }

    #[test]
    fn a_leading_nothing_is_a_row_not_a_comment() {
        let r = Instance::parse(schema_abc(), "# comment\n#!/usr/bin/env fdi\n#! b1 c1").unwrap();
        assert_eq!(r.len(), 1, "only the `#!` row is content");
        assert_eq!(r.value(r.nth_row(0), AttrId(0)), Value::Nothing);
        assert_eq!(r.nothing_count(), 1);
    }

    #[test]
    fn render_parse_round_trips_nothing_in_the_first_column() {
        let mut r = Instance::new(schema_abc());
        r.add_row(&["#!", "?x", "c1"]).unwrap();
        r.add_row(&["a1", "?x", "#!"]).unwrap();
        r.add_row(&["#!", "-", "c2"]).unwrap();
        // the table's body rows, pipes dropped, are the text format
        let text: String = r
            .render(true)
            .lines()
            .skip(2)
            .map(|line| line.replace('|', " ") + "\n")
            .collect();
        let reparsed = Instance::parse(schema_abc(), &text).unwrap();
        assert_eq!(reparsed.len(), 3, "{text}");
        assert_eq!(reparsed.canonical_form(), r.canonical_form());
    }

    #[test]
    fn parse_figure_style_text() {
        let r = Instance::parse(
            schema_abc(),
            "# a comment
             a1 b1 c1
             a1 -  c2
             a2 ?x c1
             -  ?x #!",
        )
        .unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.null_count(), 4);
        assert_eq!(r.nothing_count(), 1);
        assert!(!r.is_complete());
        // the two ?x occurrences share a null id
        let n1 = r.value(r.nth_row(2), AttrId(1)).as_null().unwrap();
        let n2 = r.value(r.nth_row(3), AttrId(1)).as_null().unwrap();
        assert_eq!(n1, n2);
        // anonymous nulls are distinct
        let n3 = r.value(r.nth_row(1), AttrId(1)).as_null().unwrap();
        assert_ne!(n1, n3);
    }

    #[test]
    fn domain_violations_are_reported_with_line_numbers() {
        let err = Instance::parse(schema_abc(), "a1 b1 c1\na9 b1 c1").unwrap_err();
        match err {
            RelationError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("a9"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let err = Instance::parse(schema_abc(), "a1 b1").unwrap_err();
        assert!(matches!(err, RelationError::Parse { line: 1, .. }));
    }

    #[test]
    fn unbounded_attributes_intern_lazily() {
        let schema = Schema::builder("People")
            .attribute_unbounded("name")
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        let mut r = Instance::new(schema);
        r.add_row(&["John", "married"]).unwrap();
        r.add_row(&["Mary", "-"]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.add_row(&["Bob", "divorced"]).is_err());
    }

    #[test]
    fn canonical_form_identifies_renamed_nulls() {
        let schema = schema_abc();
        let r1 = Instance::parse(schema.clone(), "a1 - c1\na2 - c2").unwrap();
        let mut r2 = Instance::new(schema.clone());
        // build the same shape with different null ids
        let x = r2.fresh_null();
        let _skip = r2.fresh_null();
        let y = r2.fresh_null();
        let a1 = r2.intern_constant(AttrId(0), "a1").unwrap();
        let a2 = r2.intern_constant(AttrId(0), "a2").unwrap();
        let c1 = r2.intern_constant(AttrId(2), "c1").unwrap();
        let c2 = r2.intern_constant(AttrId(2), "c2").unwrap();
        r2.add_tuple(Tuple::new(vec![
            Value::Const(a1),
            Value::Null(y),
            Value::Const(c1),
        ]))
        .unwrap();
        r2.add_tuple(Tuple::new(vec![
            Value::Const(a2),
            Value::Null(x),
            Value::Const(c2),
        ]))
        .unwrap();
        assert_eq!(r1.canonical_form(), r2.canonical_form());
    }

    #[test]
    fn canonical_form_respects_nec_classes() {
        let schema = schema_abc();
        // two distinct anonymous nulls …
        let mut r1 = Instance::parse(schema.clone(), "a1 - c1\na2 - c2").unwrap();
        let r_separate = r1.canonical_form();
        // … merged by an NEC become the same canonical class
        let n1 = r1.value(r1.nth_row(0), AttrId(1)).as_null().unwrap();
        let n2 = r1.value(r1.nth_row(1), AttrId(1)).as_null().unwrap();
        r1.add_nec(n1, n2);
        let r_merged = r1.canonical_form();
        assert_ne!(r_separate, r_merged);
        // and equal a parse with a shared mark
        let r2 = Instance::parse(schema, "a1 ?u c1\na2 ?u c2").unwrap();
        assert_eq!(r_merged, r2.canonical_form());
    }

    #[test]
    fn render_matches_paper_layout() {
        let r = Instance::parse(schema_abc(), "a1 b1 c1\na1 - c2").unwrap();
        let text = r.render(false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[0].contains('A') && lines[0].contains('B'));
        assert!(lines[3].contains('-'));
        let marked = r.render(true);
        assert!(marked.contains("?1") || marked.contains("?0"));
    }

    #[test]
    fn add_tuple_advances_null_allocator() {
        let mut r = Instance::new(schema_abc());
        let a1 = r.intern_constant(AttrId(0), "a1").unwrap();
        r.add_tuple(Tuple::new(vec![
            Value::Const(a1),
            Value::Null(NullId(7)),
            Value::Null(NullId(3)),
        ]))
        .unwrap();
        let fresh = r.fresh_null();
        assert!(
            fresh.0 > 7,
            "fresh nulls must not collide with imported ids"
        );
    }

    #[test]
    fn remove_row_tombstones_without_renumbering() {
        let mut r = Instance::parse(schema_abc(), "a1 b1 c1\na1 b2 c2\na2 b3 c1").unwrap();
        let (r0, r1, r2) = (r.nth_row(0), r.nth_row(1), r.nth_row(2));
        let removed = r.remove_row(r1);
        assert_eq!(removed.get(AttrId(1)).as_const(), r.symbols().lookup("b2"));
        assert_eq!(r.len(), 2);
        assert!(r.is_live(r0) && !r.is_live(r1) && r.is_live(r2));
        // survivors keep their ids and values
        assert_eq!(r.value(r2, AttrId(1)).as_const(), r.symbols().lookup("b3"));
        assert_eq!(r.slot_bound(), 3, "interior tombstone keeps the slot");
        let ids: Vec<RowId> = r.row_ids().collect();
        assert_eq!(ids, vec![r0, r2]);
    }

    #[test]
    fn removing_the_last_row_releases_its_slot() {
        let mut r = Instance::parse(schema_abc(), "a1 b1 c1\na1 b2 c2").unwrap();
        let last = r.nth_row(1);
        r.remove_row(last);
        assert_eq!(r.slot_bound(), 1, "trailing slot truncated");
        // the next insert re-occupies the released slot id
        let re = r.add_row(&["a2", "b3", "c1"]).unwrap();
        assert_eq!(re, last, "slot id reused after trailing removal");
        // removing an interior row first, then the tail, truncates both
        let mut r2 = Instance::parse(schema_abc(), "a1 b1 c1\na1 b2 c2\na2 b3 c1").unwrap();
        r2.remove_row(r2.nth_row(1));
        r2.remove_row(r2.nth_row(1)); // the old tail; interior tombstone trails now
        assert_eq!(r2.slot_bound(), 1);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.add_row(&["a2", "b1", "c2"]).unwrap(), RowId(1));
    }

    #[test]
    fn display_order_stays_dense_after_delete_and_reinsert() {
        // Tombstoned-then-extended instance must print exactly like a
        // densely built twin with the same live tuples.
        let mut r = Instance::parse(schema_abc(), "a1 b1 c1\na1 b2 c2\na2 b3 c1").unwrap();
        r.remove_row(r.nth_row(1));
        r.add_row(&["a2", "b1", "c2"]).unwrap();
        let dense = Instance::parse(schema_abc(), "a1 b1 c1\na2 b3 c1\na2 b1 c2").unwrap();
        assert_eq!(r.render(false), dense.render(false));
        assert_eq!(r.to_string(), dense.to_string());
        assert_eq!(r.canonical_form(), dense.canonical_form());
        // iter_live agrees with the rendered order
        let rendered = r.render(false);
        let rendered_rows: Vec<&str> = rendered.lines().skip(2).collect();
        for ((_, t), line) in r.iter_live().zip(rendered_rows) {
            let first = t.get(AttrId(0)).render(r.symbols(), false);
            assert!(line.contains(&first));
        }
    }

    /// Round-trips through encode/decode and asserts exactness: equal
    /// bytes on re-encode (byte-determinism makes this a full state
    /// comparison), plus the observable invariants.
    fn assert_state_round_trips(r: &Instance) -> Instance {
        let mut buf = Vec::new();
        r.encode_state(&mut buf);
        let mut reader = Reader::new(&buf);
        let decoded = Instance::decode_state(r.schema().clone(), &mut reader).expect("decode");
        reader.expect_end().expect("whole payload consumed");
        let mut buf2 = Vec::new();
        decoded.encode_state(&mut buf2);
        assert_eq!(buf, buf2, "decode ∘ encode is the identity on bytes");
        assert_eq!(decoded.render(true), r.render(true));
        assert_eq!(decoded.canonical_form(), r.canonical_form());
        assert_eq!(decoded.slot_bound(), r.slot_bound());
        assert_eq!(decoded.len(), r.len());
        decoded
    }

    #[test]
    fn exact_state_round_trips_through_bytes() {
        let mut r = Instance::parse(
            schema_abc(),
            "a1 b1 c1\na1 -  c2\na2 ?x c1\n-  ?x #!\na2 b2 c2",
        )
        .unwrap();
        // interior tombstone + an NEC merge + allocator churn
        r.remove_row(r.nth_row(1));
        let n1 = r.value(r.nth_row(1), AttrId(1)).as_null().unwrap();
        let extra = r.fresh_null();
        r.add_nec(n1, extra);
        let decoded = assert_state_round_trips(&r);
        // the decoded twin behaves identically under further mutation:
        // same fresh null ids, same slot reuse, same mark bindings
        let mut a = r.clone();
        let mut b = decoded;
        assert_eq!(a.fresh_null(), b.fresh_null());
        assert_eq!(
            a.add_row(&["a1", "?x", "-"]).unwrap(),
            b.add_row(&["a1", "?x", "-"]).unwrap()
        );
        assert_eq!(a.render(true), b.render(true));
    }

    #[test]
    fn empty_and_unbounded_instances_round_trip() {
        assert_state_round_trips(&Instance::new(schema_abc()));
        let schema = Schema::builder("People")
            .attribute_unbounded("name")
            .attribute("status", ["married", "single"])
            .build()
            .unwrap();
        let mut r = Instance::new(schema);
        r.add_row(&["John", "married"]).unwrap();
        r.add_row(&["Mary", "-"]).unwrap();
        assert_state_round_trips(&r);
    }

    #[test]
    fn decode_rejects_schema_mismatches_and_garbage() {
        let r = Instance::parse(schema_abc(), "a1 b1 c1\na1 - c2").unwrap();
        let mut buf = Vec::new();
        r.encode_state(&mut buf);
        // decoding under a different schema trips the symbol-table check
        let other = Schema::builder("R")
            .attribute("A", ["z9", "z8"])
            .attribute("B", ["b1", "b2", "b3"])
            .attribute("C", ["c1", "c2"])
            .build()
            .unwrap();
        assert!(Instance::decode_state(other, &mut Reader::new(&buf)).is_err());
        // truncated payloads are typed errors, not panics
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            assert!(
                Instance::decode_state(schema_abc(), &mut Reader::new(&buf[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn compact_remaps_in_order() {
        let mut r =
            Instance::parse(schema_abc(), "a1 b1 c1\na1 b2 c2\na2 b3 c1\na2 b1 c2").unwrap();
        let keep0 = r.nth_row(0);
        let keep2 = r.nth_row(2);
        let keep3 = r.nth_row(3);
        r.remove_row(r.nth_row(1));
        let before = r.canonical_form();
        let moved = r.compact();
        assert_eq!(r.canonical_form(), before, "compaction preserves content");
        assert_eq!(r.slot_bound(), r.len());
        assert_eq!(moved, vec![(keep2, RowId(1)), (keep3, RowId(2))]);
        assert!(r.is_live(keep0), "unmoved rows keep their ids");
        // idempotent once dense
        assert!(r.compact().is_empty());
    }
}
