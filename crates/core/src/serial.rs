//! On-disk serialization of the bit-packed CSR.
//!
//! A compressed graph store is only useful if the compressed form is what
//! travels: this module defines a small, versioned, little-endian binary
//! format so a graph packed once (Table II's fifth column) can be memory-
//! loaded and queried without ever materializing the edge list again.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8 B   "PARCSR\0\1"           (includes format version)
//! mode    1 B   0 = raw, 1 = gap
//! n       8 B   num_nodes
//! m       8 B   num_edges
//! off_w   4 B   offset width (bits)    off_n  8 B  offset entry count
//! col_w   4 B   column width (bits)    col_n  8 B  column entry count
//! off_bits 8 B  offset bit length,     then ceil(off_bits/64) words
//! col_bits 8 B  column bit length,     then ceil(col_bits/64) words
//! ```

use std::io::{self, Read, Write};

use parcsr_bitpack::{BitBuf, PackedArray};

use crate::packed::{BitPackedCsr, PackedCsrMode};

/// Magic + format version.
const MAGIC: [u8; 8] = *b"PARCSR\0\x01";

/// Most bits a payload reserves before any of its words are read (64 MiB).
/// A header may claim any length; larger payloads grow as words arrive, so
/// a short file with a huge claimed length fails on the missing bytes
/// instead of on the allocation.
const MAX_RESERVE_BITS: usize = 1 << 29;

/// Errors from deserializing a packed CSR.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a parcsr file, or an unsupported format version.
    BadMagic([u8; 8]),
    /// Structurally invalid header or payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadMagic(m) => write!(f, "bad magic/version {m:02x?}"),
            ReadError::Corrupt(what) => write!(f, "corrupt packed CSR: {what}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl BitPackedCsr {
    /// Serializes into `w`. The format is deterministic: equal structures
    /// produce byte-identical output.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&[match self.mode() {
            PackedCsrMode::Raw => 0u8,
            PackedCsrMode::Gap => 1u8,
        }])?;
        w.write_all(&(self.num_nodes() as u64).to_le_bytes())?;
        w.write_all(&(self.num_edges() as u64).to_le_bytes())?;
        for arr in [self.offsets_array(), self.columns_array()] {
            w.write_all(&arr.width().to_le_bytes())?;
            w.write_all(&(arr.len() as u64).to_le_bytes())?;
        }
        for arr in [self.offsets_array(), self.columns_array()] {
            let buf = arr.bit_buf();
            w.write_all(&(buf.len() as u64).to_le_bytes())?;
            for &word in buf.words() {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes from `r`, validating the header and structural
    /// invariants before constructing the value.
    pub fn read_from<R: Read>(r: &mut R) -> Result<BitPackedCsr, ReadError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadError::BadMagic(magic));
        }
        let mode = match read_u8(r)? {
            0 => PackedCsrMode::Raw,
            1 => PackedCsrMode::Gap,
            _ => return Err(ReadError::Corrupt("unknown mode byte")),
        };
        let n = read_u64(r)? as usize;
        let m = read_u64(r)? as usize;
        let off_w = read_u32(r)?;
        let off_n = read_u64(r)? as usize;
        let col_w = read_u32(r)?;
        let col_n = read_u64(r)? as usize;
        if Some(off_n) != n.checked_add(1) {
            return Err(ReadError::Corrupt("offset count must be num_nodes + 1"));
        }
        if col_n != m {
            return Err(ReadError::Corrupt("column count must be num_edges"));
        }
        if !(1..=64).contains(&off_w) || !(1..=64).contains(&col_w) {
            return Err(ReadError::Corrupt("widths must be in 1..=64"));
        }
        let offsets = read_packed(r, off_w, off_n)?;
        let columns = read_packed(r, col_w, col_n)?;

        // Semantic validation: offsets must be a monotone ramp ending at m.
        let mut prev = 0u64;
        for (i, o) in offsets.iter().enumerate() {
            if i == 0 && o != 0 {
                return Err(ReadError::Corrupt("first offset must be 0"));
            }
            if o < prev {
                return Err(ReadError::Corrupt("offsets must be non-decreasing"));
            }
            prev = o;
        }
        if prev != m as u64 {
            return Err(ReadError::Corrupt("last offset must equal num_edges"));
        }

        Ok(BitPackedCsr::from_parts(n, m, mode, offsets, columns))
    }
}

fn read_packed<R: Read>(r: &mut R, width: u32, len: usize) -> Result<PackedArray, ReadError> {
    let bits = read_u64(r)? as usize;
    if Some(bits) != len.checked_mul(width as usize) {
        return Err(ReadError::Corrupt("bit length does not match len * width"));
    }
    let words = bits.div_ceil(64);
    let mut buf = BitBuf::with_capacity(bits.min(MAX_RESERVE_BITS));
    let mut scratch = [0u8; 8];
    let mut remaining = bits;
    for _ in 0..words {
        r.read_exact(&mut scratch)?;
        let word = u64::from_le_bytes(scratch);
        let take = remaining.min(64) as u32;
        if take < 64 && (word >> take) != 0 {
            return Err(ReadError::Corrupt("padding bits must be zero"));
        }
        buf.push_bits(
            if take == 64 {
                word
            } else {
                word & ((1u64 << take) - 1)
            },
            take,
        );
        remaining -= take as usize;
    }
    Ok(PackedArray::from_raw_parts(buf, width, len))
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, ReadError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CsrBuilder;
    use parcsr_graph::gen::{rmat, RmatParams};
    use parcsr_graph::EdgeList;

    fn sample(mode: PackedCsrMode) -> BitPackedCsr {
        let g = rmat(RmatParams::new(512, 5_000, 3));
        let csr = CsrBuilder::new().build(&g);
        BitPackedCsr::from_csr(&csr, mode, 4)
    }

    #[test]
    fn roundtrip_both_modes() {
        for mode in [PackedCsrMode::Raw, PackedCsrMode::Gap] {
            let packed = sample(mode);
            let mut bytes = Vec::new();
            packed.write_to(&mut bytes).unwrap();
            let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, packed, "{}", mode.name());
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = sample(PackedCsrMode::Gap);
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        a.write_to(&mut b1).unwrap();
        a.write_to(&mut b2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn file_size_tracks_packed_size() {
        let packed = sample(PackedCsrMode::Gap);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        // Header is ~70 bytes; payload within a word of packed_bytes.
        assert!(bytes.len() <= packed.packed_bytes() + 128);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let csr = CsrBuilder::new().build(&EdgeList::new(0, vec![]));
        let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 1);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, packed);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = BitPackedCsr::read_from(&mut &b"NOTPARCS rest"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadMagic(_)), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let packed = sample(PackedCsrMode::Raw);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = BitPackedCsr::read_from(&mut &bytes[..cut]).unwrap_err();
            assert!(matches!(err, ReadError::Io(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let packed = sample(PackedCsrMode::Raw);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        // Flip bits inside the offsets payload (past the 57-byte header).
        bytes[80] ^= 0xFF;
        let result = BitPackedCsr::read_from(&mut bytes.as_slice());
        assert!(
            matches!(result, Err(ReadError::Corrupt(_))),
            "corruption must not produce a structure silently"
        );
    }

    /// A raw-mode header for `n` nodes and no edges, up to and including
    /// the offsets bit length, with no payload words after it.
    fn header_without_payload(n: u64, off_w: u32, off_n: u64, off_bits: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&off_w.to_le_bytes());
        bytes.extend_from_slice(&off_n.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&off_bits.to_le_bytes());
        bytes
    }

    #[test]
    fn oversized_header_fails_on_missing_payload() {
        // 2^40 + 1 one-bit offsets would reserve 128 GiB up front.
        let n = 1u64 << 40;
        let bytes = header_without_payload(n, 1, n + 1, n + 1);
        assert_eq!(bytes.len(), 57);
        let err = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadError::Io(_)), "{err}");
    }

    #[test]
    fn overflowing_header_counts_are_corrupt() {
        // n + 1 wraps.
        let bytes = header_without_payload(u64::MAX, 1, 0, 0);
        let err = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadError::Corrupt(_)), "{err}");
        // len * width wraps: 2^63 offsets at width 2.
        let bytes = header_without_payload((1 << 63) - 1, 2, 1 << 63, 0);
        let err = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadError::Corrupt(_)), "{err}");
    }

    #[test]
    fn queries_work_after_roundtrip() {
        let packed = sample(PackedCsrMode::Gap);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        let back = BitPackedCsr::read_from(&mut bytes.as_slice()).unwrap();
        for u in (0..512u32).step_by(31) {
            assert_eq!(back.row(u), packed.row(u));
        }
    }
}
