//! The wire primitives every binary format of this crate is built from:
//! LEB128 varints, length-prefixed byte strings, and one bounds-checked
//! read [`Cursor`]. The `DDTT` event log, the `DDTC` checkpoint, the
//! `DDTJ` journal, the `DDTQ` quarantine record and the fleet frames all
//! encode and decode through them.
//!
//! A decoder reads untrusted bytes, so it never reserves memory for what
//! the input only claims: [`Cursor::count`] refuses an element count
//! larger than the bytes left (every element takes at least one byte),
//! which bounds each reservation by the input's own size.

/// A decode failure: offset into the input plus a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError { offset: self.pos, message: message.into() })
    }

    fn left(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn byte(&mut self) -> Result<u8, DecodeError> {
        match self.data.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.err("unexpected end of input"),
        }
    }

    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return self.err("varint overflows 64 bits");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint that must fit in 32 bits.
    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.varint()?;
        u32::try_from(v).or_else(|_| self.err(format!("value {v} does not fit in u32")))
    }

    /// An element count, refused when it exceeds the bytes left: every
    /// element takes at least one byte, so a vector of `count` elements
    /// may be reserved up front.
    pub(crate) fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.left() => Ok(n),
            _ => self.err(format!("count {n} exceeds the {} bytes left", self.left())),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.left() < n {
            return self.err(format!("need {n} bytes, have {}", self.left()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.varint()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, DecodeError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| DecodeError {
            offset: self.pos,
            message: "invalid utf-8 in string".into(),
        })
    }

    pub(crate) fn u64_le(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}
