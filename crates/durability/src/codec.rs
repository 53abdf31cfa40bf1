//! Byte-level encoding for keys, values, and frames.
//!
//! The WAL and checkpoint formats are deliberately simple: little-endian
//! fixed-width integers, length-prefixed byte strings, and a CRC32 (IEEE,
//! same polynomial as zlib) over every frame.  No external serialization
//! crate is used — the build environment vendors its dependencies, and the
//! handful of primitive encoders below are all the formats need.

/// A type that can round-trip through the WAL and checkpoint files.
///
/// Implementations must be *total* on the decode side: `decode` returns
/// `None` for malformed bytes rather than panicking, because recovery feeds
/// it attacker-grade garbage (torn tails, bit flips) by design.
pub trait Codec: Sized {
    /// The length of every value's encoding, for a type whose encodings all
    /// have one length; `None` (the default) when they vary.  A container
    /// sized from it is allocated once; a wrong width costs a reallocation
    /// or slack, never a wrong encoding.
    const WIDTH: Option<usize> = None;

    /// Append this value's encoding to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Decode a value from exactly `bytes` (the container length-prefixes
    /// each field, so the slice boundary is authoritative).  `None` means
    /// the bytes are not a valid encoding.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$ty>());
            fn encode_into(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i8, i16, i32, i64, u128, i128);

impl Codec for String {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl Codec for Vec<u8> {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const WIDTH: Option<usize> = match (A::WIDTH, B::WIDTH) {
        (Some(a), Some(b)) => Some(4 + a + 4 + b),
        _ => None,
    };
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_field(buf, &self.0);
        put_field(buf, &self.1);
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut cur = Cursor::new(bytes);
        let a = A::decode(cur.take_bytes()?)?;
        let b = B::decode(cur.take_bytes()?)?;
        cur.finished().then_some((a, b))
    }
}

/// Append a `u32` length prefix followed by `bytes`.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Append a length-prefixed [`Codec`] field without a scratch allocation:
/// reserve the prefix, encode in place, patch the length.
pub fn put_field<T: Codec>(buf: &mut Vec<u8>, value: &T) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    value.encode_into(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A bounds-checked reader over an encoded payload.
///
/// Every accessor returns `Option`; running off the end of the slice is a
/// decode failure, never a panic.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub fn take_u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let raw = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(raw.try_into().ok()?))
    }

    pub fn take_u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let raw = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(raw.try_into().ok()?))
    }

    /// Read a `u32` length prefix, then that many raw bytes.
    pub fn take_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.take_u32()? as usize;
        let end = self.pos.checked_add(len)?;
        let raw = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(raw)
    }

    /// True when every byte has been consumed (trailing garbage is a
    /// decode failure for fixed-layout payloads).
    pub fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same checksum zlib and
/// ethernet use.
///
/// Slicing-by-8 (Kounavis and Berry, ISCC 2005): table `k` holds the CRC of
/// a byte followed by `k` zero bytes, so eight table lookups, independent of
/// each other, fold eight input bytes at once where the byte-at-a-time loop
/// chains eight dependent ones.  The tail shorter than eight bytes takes the
/// byte-at-a-time loop on table 0.  The output is the byte-at-a-time CRC's,
/// bit for bit; the tests check it against one.  Tables built at compile
/// time (8 KiB).
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    };
    let at =
        |table: usize, word: u32, byte: u32| TABLES[table][((word >> (8 * byte)) & 0xFF) as usize];
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = at(7, lo, 0)
            ^ at(6, lo, 1)
            ^ at(5, lo, 2)
            ^ at(4, lo, 3)
            ^ at(3, hi, 0)
            ^ at(2, hi, 1)
            ^ at(1, hi, 2)
            ^ at(0, hi, 3);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time CRC-32 the sliced one must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes (xorshift64), the same for the same seed.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every length through eight whole words, at every alignment, so
        // each tail length meets each word boundary.
        let buf = noise(64 + 8, 0x5EED);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "length {len} at offset {offset}"
                );
            }
        }
        let big = noise(1 << 20, 0xC0FFEE);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MiB buffer");
    }

    #[test]
    fn primitive_round_trips() {
        let mut buf = Vec::new();
        0xDEAD_BEEF_u64.encode_into(&mut buf);
        assert_eq!(u64::decode(&buf), Some(0xDEAD_BEEF));
        assert_eq!(u64::decode(&buf[..7]), None);

        let mut buf = Vec::new();
        "skip-hash".to_string().encode_into(&mut buf);
        assert_eq!(String::decode(&buf).as_deref(), Some("skip-hash"));
        assert_eq!(
            String::decode(&[0xFF, 0xFE]),
            None,
            "invalid UTF-8 is a decode failure"
        );
    }

    #[test]
    fn pair_round_trips_and_rejects_trailing_garbage() {
        let value = (7u64, "seven".to_string());
        let mut buf = Vec::new();
        value.encode_into(&mut buf);
        assert_eq!(<(u64, String)>::decode(&buf), Some(value));
        buf.push(0);
        assert_eq!(<(u64, String)>::decode(&buf), None);
        assert_eq!(<(u64, String)>::decode(&buf[..3]), None);
    }

    #[test]
    fn cursor_never_reads_out_of_bounds() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.take_u8(), Some(1));
        assert_eq!(cur.take_u32(), None, "only two bytes remain");
        // A length prefix pointing past the end must fail, not panic.
        let bytes = [200u8, 0, 0, 0, 1];
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.take_bytes(), None);
    }

    /// A declared width is the length of every encoding of the type.
    #[test]
    fn declared_widths_match_encodings() {
        fn width_of<T: Codec>(value: T) -> Option<usize> {
            let mut buf = Vec::new();
            value.encode_into(&mut buf);
            if let Some(width) = T::WIDTH {
                assert_eq!(buf.len(), width);
            }
            T::WIDTH
        }
        assert_eq!(width_of(7u8), Some(1));
        assert_eq!(width_of(-7i64), Some(8));
        assert_eq!(width_of(u128::MAX), Some(16));
        assert_eq!(
            width_of((1u32, (2u16, 3i8))),
            Some(4 + 4 + 4 + (4 + 2 + 4 + 1))
        );
        assert_eq!(width_of(String::from("abc")), None);
        assert_eq!(width_of(vec![1u8, 2]), None);
        assert_eq!(width_of((1u64, String::new())), None);
    }
}
