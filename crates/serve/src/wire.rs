//! The little-endian byte codec behind every binary encoding the serve
//! layer speaks: snapshot sections, WAL record bodies and the payloads
//! of binary frames.
//!
//! A value's encoding is its [`Field`] impl: fixed-width little-endian
//! integers, floats as raw IEEE-754 bits (so round trips are bit-exact,
//! `NaN` payloads included), bools as one 0/1 byte, and strings and
//! sequences as a count prefix followed by their elements. Tuples and
//! `Vec`s of fields are fields, so a composite row needs no codec of its
//! own. Every read is bounds-checked and returns
//! [`SnapError::Truncated`](crate::snap::SnapError::Truncated) instead
//! of panicking. Every count goes through [`Reader::count`], which checks
//! it against the bytes actually remaining — at the element type's
//! [`Field::MIN_BYTES`] each — before anything is allocated, so a
//! corrupted count cannot balloon memory.

use crate::snap::SnapError;

/// A value with one wire encoding.
pub(crate) trait Field: Sized {
    /// The fewest bytes any value's encoding takes. A sequence count is
    /// validated against the bytes left at this many bytes per element.
    const MIN_BYTES: usize;

    /// Append the encoding.
    fn put(&self, w: &mut Writer);

    /// Decode one value; `context` names the field in errors.
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError>;
}

/// A sequence count prefix: `u64` for strings and snapshot sequences,
/// `u32` for frame batches and WAL ingest batches.
pub(crate) trait Count: Field + Copy + Into<u64> + TryFrom<usize> {}

impl Count for u32 {}
impl Count for u64 {}

macro_rules! le_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
                let bytes = r.take(Self::MIN_BYTES, context)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("took MIN_BYTES")))
            }
        }
    )*};
}

le_field!(u8, i8, u32, u64);

/// Eight bytes on every platform.
impl Field for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        let v = u64::get(r, context)?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt {
            context: format!("{context}: value {v} exceeds this platform's usize"),
        })
    }
}

/// Raw bits: bit-exact round trips, no textual rounding, `NaN`s
/// preserved.
impl Field for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.to_bits().put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::get(r, context)?))
    }
}

/// One byte, 0 or 1; any other byte is corrupt.
impl Field for bool {
    const MIN_BYTES: usize = u8::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        u8::from(*self).put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        match u8::get(r, context)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::Corrupt {
                context: format!("{context}: bad bool {v}"),
            }),
        }
    }
}

/// A `u64` byte count, then UTF-8 bytes.
impl Field for String {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        utf8(r.bytes(context)?, context).map(str::to_owned)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        Ok((A::get(r, context)?, B::get(r, context)?))
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        Ok((
            A::get(r, context)?,
            B::get(r, context)?,
            C::get(r, context)?,
        ))
    }
}

/// A `u64` element count, then the elements.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        w.put_seq(self);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        r.seq::<u64, T>(context)
    }
}

/// Append-only byte buffer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put<T: Field>(&mut self, v: &T) {
        v.put(self);
    }

    /// A borrowed string, encoded as [`String`]'s [`Field`] impl.
    pub(crate) fn put_str(&mut self, s: &str) {
        s.len().put(self);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A `u64` element count, then the elements — `Vec<T>`'s encoding.
    pub(crate) fn put_seq<T: Field>(&mut self, xs: &[T]) {
        self.put_counted::<u64, T>(xs);
    }

    /// A `u32` element count, then the elements: frame batches and WAL
    /// ingest batches.
    pub(crate) fn put_batch<T: Field>(&mut self, xs: &[T]) {
        self.put_counted::<u32, T>(xs);
    }

    fn put_counted<P: Count, T: Field>(&mut self, xs: &[T]) {
        let Ok(n) = P::try_from(xs.len()) else {
            panic!("{} elements overflow the count prefix", xs.len());
        };
        n.put(self);
        for x in xs {
            x.put(self);
        }
    }
}

/// Bounds-checked cursor over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with `"<n> trailing bytes in <what>"` unless every byte has
    /// been consumed — decoders call this last to reject trailing
    /// garbage.
    pub(crate) fn end(&self, what: &str) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes in {what}")),
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn get<T: Field>(&mut self, context: &'static str) -> Result<T, SnapError> {
        T::get(self, context)
    }

    /// Read a count in prefix type `P` and validate it against the bytes
    /// left at `min_elem_bytes` per element *before* the caller
    /// allocates: a corrupted count fails here instead of triggering a
    /// huge `Vec::with_capacity`. Every count in every encoding is
    /// checked here.
    pub(crate) fn count<P: Count>(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapError> {
        let n: u64 = P::get(self, context)?.into();
        if n.checked_mul(min_elem_bytes.max(1) as u64)
            .is_none_or(|bytes| bytes > self.remaining() as u64)
        {
            return Err(SnapError::Corrupt {
                context: format!("{context} {n} exceeds the bytes remaining"),
            });
        }
        Ok(n as usize)
    }

    /// A `u32`-counted sequence, as [`Writer::put_batch`] writes it.
    pub(crate) fn batch<T: Field>(&mut self, context: &'static str) -> Result<Vec<T>, SnapError> {
        self.seq::<u32, T>(context)
    }

    fn seq<P: Count, T: Field>(&mut self, context: &'static str) -> Result<Vec<T>, SnapError> {
        let n = self.count::<P>(T::MIN_BYTES, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(self, context)?);
        }
        Ok(out)
    }

    /// Length-prefixed raw bytes (no UTF-8 requirement) — opaque
    /// payloads such as replication log record bodies travel through
    /// this, and so do `OP_PREDICT` feature names, which the hot path
    /// validates while it hashes them.
    pub(crate) fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapError> {
        let n = self.count::<u64>(u8::MIN_BYTES, context)?;
        self.take(n, context)
    }

    /// Cursor offset from the start of the buffer. Zero-copy decoders
    /// use this to record byte ranges into the payload instead of
    /// copying the bytes out.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }
}

/// `bytes` as a `str`, or the one wording of a field that is not UTF-8.
pub(crate) fn utf8<'a>(bytes: &'a [u8], context: &'static str) -> Result<&'a str, SnapError> {
    std::str::from_utf8(bytes).map_err(|_| SnapError::Corrupt {
        context: format!("{context}: invalid UTF-8"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = Writer::new();
        w.put(&7u8);
        w.put(&-3i8);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&-0.0f64);
        w.put(&f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        w.put_str("héllo");
        w.put(&true);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<u8>("a").unwrap(), 7);
        assert_eq!(r.get::<i8>("b").unwrap(), -3);
        assert_eq!(r.get::<u32>("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>("d").unwrap(), u64::MAX);
        assert_eq!(r.get::<f64>("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get::<f64>("f").unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.get::<String>("g").unwrap(), "héllo");
        assert!(r.get::<bool>("h").unwrap());
        assert_eq!(r.end("buffer"), Ok(()));
    }

    #[test]
    fn round_trips_composites() {
        let rows: Vec<crate::frame::IngestRow> = vec![
            ((0, 1), (2, 3), "a b".into()),
            ((4, 5), (6, 7), String::new()),
        ];
        let nested = vec![vec![(1u32, 0.5f64)], Vec::new()];
        let mut w = Writer::new();
        w.put_batch(&rows);
        w.put(&nested);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.batch("rows").ok(), Some(rows));
        assert_eq!(r.get::<Vec<Vec<(u32, f64)>>>("nested").unwrap(), nested);
        assert_eq!(r.end("buffer"), Ok(()));
    }

    #[test]
    fn reads_past_the_end_are_truncation_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.get::<u32>("x"),
            Err(SnapError::Truncated { context: "x" })
        ));
    }

    #[test]
    fn bad_bools_and_trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[2, 9]);
        assert!(matches!(
            r.get::<bool>("flag"),
            Err(SnapError::Corrupt { .. })
        ));
        assert_eq!(r.end("frame"), Err("1 trailing bytes in frame".to_string()));
    }

    /// The bytes of the smallest value of a type: zero or empty.
    fn smallest<T: Field>(v: T) -> usize {
        let mut w = Writer::new();
        w.put(&v);
        w.into_bytes().len()
    }

    #[test]
    fn min_bytes_is_the_encoded_length_of_the_smallest_value() {
        assert_eq!(u8::MIN_BYTES, smallest(0u8));
        assert_eq!(i8::MIN_BYTES, smallest(0i8));
        assert_eq!(u32::MIN_BYTES, smallest(0u32));
        assert_eq!(u64::MIN_BYTES, smallest(0u64));
        assert_eq!(usize::MIN_BYTES, smallest(0usize));
        assert_eq!(f64::MIN_BYTES, smallest(0.0f64));
        assert_eq!(bool::MIN_BYTES, smallest(false));
        assert_eq!(String::MIN_BYTES, smallest(String::new()));
        assert_eq!(<(u32, i8)>::MIN_BYTES, smallest((0u32, 0i8)));
        assert_eq!(
            <(u8, String, f64)>::MIN_BYTES,
            smallest((0u8, String::new(), 0.0f64))
        );
        assert_eq!(Vec::<u64>::MIN_BYTES, smallest(Vec::<u64>::new()));
    }

    /// Count `n` elements of `elem` bytes each under prefix `P`, with one
    /// element's bytes short: the count is refused before any element
    /// is read.
    fn one_past<P: Count>(prefix: P, elem: usize) -> Result<usize, SnapError> {
        let n: u64 = prefix.into();
        let mut w = Writer::new();
        w.put(&prefix);
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + elem * (n as usize - 1), 0);
        Reader::new(&bytes).count::<P>(elem, "seq")
    }

    #[test]
    fn a_count_one_past_the_bytes_left_is_rejected_for_both_prefixes() {
        for elem in [1, u64::MIN_BYTES, <(u32, i8)>::MIN_BYTES] {
            assert!(matches!(
                one_past(3u32, elem),
                Err(SnapError::Corrupt { .. })
            ));
            assert!(matches!(
                one_past(3u64, elem),
                Err(SnapError::Corrupt { .. })
            ));
        }
        // Exactly enough bytes is accepted.
        let mut w = Writer::new();
        w.put_batch(&[1u64, 2]);
        assert_eq!(
            Reader::new(&w.into_bytes()).count::<u32>(8, "seq").unwrap(),
            2
        );
    }

    #[test]
    fn an_oversized_count_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put(&(u64::MAX / 2));
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<Vec<u64>>("seq"),
            Err(SnapError::Corrupt { .. })
        ));
        let mut w = Writer::new();
        w.put(&u32::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).batch::<u8>("batch"),
            Err(SnapError::Corrupt { .. })
        ));
    }
}
