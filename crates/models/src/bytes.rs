//! The little-endian byte codec under both of a model's byte formats: the
//! `BSLA` artifact file ([`crate::artifact`]) and `bsl-serve`'s framed TCP
//! protocol.
//!
//! Writers append to a `Vec<u8>`: [`put`] one value, [`put_all`] a run of
//! them into one resized stretch of the buffer. A [`Reader`] walks a byte
//! slice; every read checks the bytes it needs against the bytes left, and
//! [`Reader::vec`] checks a claimed element count (with a checked
//! multiply) *before* it allocates, so no count a payload claims can size
//! an allocation the payload does not carry.

/// A fixed-width value with a little-endian byte form.
pub trait Le: Copy {
    /// Width of the encoded value in bytes.
    const SIZE: usize;
    /// Writes the value into `out`, exactly [`SIZE`](Le::SIZE) bytes.
    fn encode(self, out: &mut [u8]);
    /// Reads a value from `bytes`, exactly [`SIZE`](Le::SIZE) bytes.
    fn decode(bytes: &[u8]) -> Self;
}

macro_rules! impl_le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn encode(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exactly SIZE bytes"))
            }
        }
    )*};
}

impl_le!(u8, i8, u16, u32, u64, f32);

/// Appends `value` to `buf`.
pub fn put<T: Le>(buf: &mut Vec<u8>, value: T) {
    put_all(buf, [value]);
}

/// Appends every value of `values` to `buf`: the buffer grows once and
/// the values fill it in place, which is what keeps the multi-megabyte
/// tables of an artifact at memory speed.
pub fn put_all<T: Le, I>(buf: &mut Vec<u8>, values: I)
where
    I: IntoIterator<Item = T>,
    I::IntoIter: ExactSizeIterator,
{
    let values = values.into_iter();
    let at = buf.len();
    buf.resize(at + values.len() * T::SIZE, 0);
    for (out, v) in buf[at..].chunks_exact_mut(T::SIZE).zip(values) {
        v.encode(out);
    }
}

/// A read that ran past the end of the bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Short {
    /// The byte count the read needed from the start of the buffer
    /// (saturating at `usize::MAX` when a claimed size overflows).
    pub expected: usize,
    /// The bytes the buffer holds.
    pub got: usize,
}

/// A little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        let short = Short { expected: self.pos.saturating_add(n), got: self.buf.len() };
        let end = self.pos.checked_add(n).ok_or(short)?;
        let bytes = self.buf.get(self.pos..end).ok_or(short)?;
        self.pos = end;
        Ok(bytes)
    }

    /// The next value.
    pub fn get<T: Le>(&mut self) -> Result<T, Short> {
        self.take(T::SIZE).map(T::decode)
    }

    /// The next `n` values. `n` is checked against the bytes left before
    /// anything is allocated.
    pub fn vec<T: Le>(&mut self, n: usize) -> Result<Vec<T>, Short> {
        Ok(self.take(n.saturating_mul(T::SIZE))?.chunks_exact(T::SIZE).map(T::decode).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_in_little_endian() {
        let mut buf = Vec::new();
        put(&mut buf, 0x01u8);
        put(&mut buf, -2i8);
        put(&mut buf, 0x0302u16);
        put(&mut buf, 0x0706_0504u32);
        put(&mut buf, 0x0f0e_0d0c_0b0a_0908u64);
        put_all(&mut buf, [1.5f32, -0.0]);
        assert_eq!(&buf[..16], &[1, 0xFE, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(buf.len(), 24);

        let mut r = Reader::new(&buf);
        assert_eq!(r.get::<u8>(), Ok(1));
        assert_eq!(r.get::<i8>(), Ok(-2));
        assert_eq!(r.get::<u16>(), Ok(0x0302));
        assert_eq!(r.get::<u32>(), Ok(0x0706_0504));
        assert_eq!(r.get::<u64>(), Ok(0x0f0e_0d0c_0b0a_0908));
        let floats = r.vec::<f32>(2).unwrap();
        assert_eq!(
            floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            [1.5f32.to_bits(), (-0.0f32).to_bits()]
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_leave_the_cursor_where_it_was() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.get::<u32>(), Err(Short { expected: 4, got: 3 }));
        assert_eq!(r.get::<u16>(), Ok(0x0201));
        assert_eq!(r.take(2), Err(Short { expected: 4, got: 3 }));
        assert_eq!(r.take(1), Ok(&[3][..]));
    }

    /// A count whose byte size overflows, or exceeds the bytes left, is
    /// refused before anything is reserved for it.
    #[test]
    fn claimed_counts_are_checked_before_allocating() {
        let mut r = Reader::new(&[0; 7]);
        assert_eq!(r.vec::<u64>(usize::MAX), Err(Short { expected: usize::MAX, got: 7 }));
        assert_eq!(r.vec::<u32>(2), Err(Short { expected: 8, got: 7 }));
        assert_eq!(r.vec::<u8>(7), Ok(vec![0; 7]));
        let mut r = Reader::new(&[0; 7]);
        r.take(3).unwrap();
        assert_eq!(r.take(usize::MAX), Err(Short { expected: usize::MAX, got: 7 }));
    }
}
