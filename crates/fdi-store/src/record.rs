//! Journal record framing: length-prefixed, CRC-checksummed records.
//!
//! A journal is the 8-byte file header [`FILE_HEADER`] followed by
//! records. Each record is
//!
//! ```text
//! [len: u32 LE][hcrc: u32 LE = crc32(len bytes)][pcrc: u32 LE = crc32(payload)][payload; len bytes]
//! ```
//!
//! The length prefix carries **its own checksum** (`hcrc`), which is
//! what makes the torn-tail / corruption distinction sound instead of
//! heuristic: bit flips never remove bytes, and torn writes never
//! invent them, so
//!
//! * *missing bytes* (a partial 12-byte header at the end, or a
//!   validated `len` promising more payload than remains) can only be a
//!   torn final write → [`Scanned::Torn`], safe to truncate;
//! * *damaged bytes* (an `hcrc` or `pcrc` mismatch) can only be
//!   corruption → [`Scanned::Corrupt`] with the record's byte offset,
//!   never silently dropped.
//!
//! Without `hcrc`, a flip in a mid-log record's length field could
//! inflate `len` past the remaining bytes and masquerade as a torn tail
//! — recovery would truncate good records. With it, a damaged length is
//! caught before it is believed.

use crate::crc::crc32;
use crate::storage::StoreError;

/// Magic + version prefix of every journal: `FDIJRNL` + format `1`.
pub const FILE_HEADER: [u8; 8] = *b"FDIJRNL1";

/// Bytes of the per-record header (`len` + `hcrc` + `pcrc`).
pub const RECORD_HEADER_LEN: usize = 12;

/// Bound on a single record's payload (16 MiB). [`frame`] refuses a
/// longer payload, so the journal never writes one; a validated length
/// above it means a malformed writer, so the scanner reports
/// corruption.
pub const MAX_RECORD_LEN: u32 = 1 << 24;

/// Frames a payload into `header + payload` bytes, or refuses it with
/// [`StoreError::RecordTooLarge`] if it is longer than
/// [`MAX_RECORD_LEN`] — a record the [`Scanner`] would call corrupt.
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if len <= MAX_RECORD_LEN => len,
        _ => return Err(StoreError::RecordTooLarge { len: payload.len() }),
    };
    let len_bytes = len.to_le_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// One step of a [`Scanner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scanned<'a> {
    /// A complete, checksum-valid record.
    Record {
        /// Byte offset of the record's header in the journal.
        offset: u64,
        /// The payload.
        payload: &'a [u8],
    },
    /// The journal ends in a partial record starting at `offset` — a
    /// torn final write. Truncating to `offset` restores a valid
    /// journal.
    Torn {
        /// Byte offset where the partial record starts.
        offset: u64,
    },
    /// The record at `offset` is damaged (header or payload checksum
    /// mismatch, or an insane validated length). Not safe to truncate:
    /// later records may be intact, and silently dropping them would
    /// recover a wrong database.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
    },
}

/// Iterates the records of a journal byte image (past the file header).
#[derive(Debug)]
pub struct Scanner<'a> {
    buf: &'a [u8],
    /// Absolute offset of `buf[0]` within the journal file.
    base: u64,
    pos: usize,
    /// Set once a terminal condition (torn/corrupt) was reported.
    done: bool,
}

impl<'a> Scanner<'a> {
    /// Scans `buf`, whose first byte sits at absolute offset `base`
    /// (pass [`FILE_HEADER`]`.len()` when `buf` starts right after the
    /// file header).
    pub fn new(buf: &'a [u8], base: u64) -> Scanner<'a> {
        Scanner {
            buf,
            base,
            pos: 0,
            done: false,
        }
    }

    /// The next record, torn-tail marker, or corruption marker; `None`
    /// at a clean end (or after a terminal marker was reported).
    #[allow(clippy::should_implement_trait)] // lifetime-bound items: not an Iterator
    pub fn next(&mut self) -> Option<Scanned<'a>> {
        if self.done || self.pos == self.buf.len() {
            return None;
        }
        let offset = self.base + self.pos as u64;
        let remaining = self.buf.len() - self.pos;
        if remaining < RECORD_HEADER_LEN {
            self.done = true;
            return Some(Scanned::Torn { offset });
        }
        let header = &self.buf[self.pos..self.pos + RECORD_HEADER_LEN];
        let len_bytes = [header[0], header[1], header[2], header[3]];
        let hcrc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let pcrc = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if crc32(&len_bytes) != hcrc {
            self.done = true;
            return Some(Scanned::Corrupt { offset });
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_RECORD_LEN {
            self.done = true;
            return Some(Scanned::Corrupt { offset });
        }
        let len = len as usize;
        if remaining - RECORD_HEADER_LEN < len {
            // the length is checksum-validated, so missing payload bytes
            // mean a torn write, not a lying length
            self.done = true;
            return Some(Scanned::Torn { offset });
        }
        let payload = &self.buf[self.pos + RECORD_HEADER_LEN..self.pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != pcrc {
            self.done = true;
            return Some(Scanned::Corrupt { offset });
        }
        self.pos += RECORD_HEADER_LEN + len;
        Some(Scanned::Record { offset, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            buf.extend_from_slice(&frame(p).unwrap());
        }
        buf
    }

    fn scan_all(buf: &[u8]) -> Vec<Scanned<'_>> {
        let mut s = Scanner::new(buf, 8);
        let mut out = Vec::new();
        while let Some(item) = s.next() {
            out.push(item);
        }
        out
    }

    #[test]
    fn clean_journals_scan_to_records() {
        let buf = journal_of(&[b"alpha", b"", b"gamma-longer-payload"]);
        let items = scan_all(&buf);
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[0],
            Scanned::Record {
                offset: 8,
                payload: b"alpha"
            }
        );
        assert!(matches!(items[1], Scanned::Record { payload: b"", .. }));
        let empty = scan_all(&[]);
        assert!(empty.is_empty(), "empty region: clean end");
    }

    #[test]
    fn every_truncation_is_torn_never_corrupt() {
        let buf = journal_of(&[b"alpha", b"beta"]);
        let second_at = frame(b"alpha").unwrap().len();
        for cut in 0..buf.len() {
            let items = scan_all(&buf[..cut]);
            match cut {
                0 => assert!(items.is_empty()),
                c if c < second_at => {
                    assert_eq!(items, vec![Scanned::Torn { offset: 8 }], "cut {cut}")
                }
                c if c == second_at => {
                    assert!(matches!(items[..], [Scanned::Record { .. }]), "cut {cut}")
                }
                _ => assert!(
                    matches!(
                        items[..],
                        [Scanned::Record { .. }, Scanned::Torn { offset }]
                            if offset == 8 + second_at as u64
                    ),
                    "cut {cut}: {items:?}"
                ),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_corrupt_never_torn_or_wrong() {
        let buf = journal_of(&[b"alpha", b"beta", b"gamma"]);
        let offsets = [
            8u64,
            8 + frame(b"alpha").unwrap().len() as u64,
            8 + (frame(b"alpha").unwrap().len() + frame(b"beta").unwrap().len()) as u64,
        ];
        let record_of = |byte: usize| -> u64 {
            let rel = byte as u64 + 8;
            *offsets.iter().rev().find(|&&o| o <= rel).unwrap()
        };
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut damaged = buf.clone();
                damaged[byte] ^= 1 << bit;
                let items = scan_all(&damaged);
                let expected_at = record_of(byte);
                let corrupt = items.iter().find_map(|i| match i {
                    Scanned::Corrupt { offset } => Some(*offset),
                    _ => None,
                });
                assert_eq!(
                    corrupt,
                    Some(expected_at),
                    "flip ({byte}, {bit}) must be caught at its record: {items:?}"
                );
                assert!(
                    !items.iter().any(|i| matches!(i, Scanned::Torn { .. })),
                    "flip ({byte}, {bit}) misread as torn"
                );
            }
        }
    }

    #[test]
    fn insane_lengths_with_valid_hcrc_are_corrupt() {
        // an adversarial header: huge length, correctly checksummed
        let len = (MAX_RECORD_LEN + 1).to_le_bytes();
        let mut buf = Vec::new();
        buf.extend_from_slice(&len);
        buf.extend_from_slice(&crc32(&len).to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(scan_all(&buf), vec![Scanned::Corrupt { offset: 8 }]);
    }
}
