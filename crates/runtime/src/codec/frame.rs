//! The one frame codec: `magic | LE len | payload | u64 checksum64(payload)`.
//!
//! A [`Format`] fixes the magic, the width of the length field and the
//! payload cap; building, reading and verifying are shared. It is
//! instantiated twice: `DWR3` (u64 length, 20 bytes of overhead) frames
//! spill runs on disk, `DWQ2` (u32 length, 16 bytes, 16 MiB cap) frames
//! queries and answers on the wire. A frame is built in place and leaves in
//! one `write_all`; it is read as the header, then `payload + footer` in
//! one `read_exact` — one `send` and two `recv`s when it arrives whole.

use std::io::{self, Read};

use super::checksum64;

const MAGIC_BYTES: usize = 4;
const FOOTER_BYTES: usize = 8;

/// Width in bytes of a frame's little-endian length field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum LenWidth {
    U32 = 4,
    U64 = 8,
}

/// What makes a byte sequence not a frame of a given [`Format`]; as an
/// [`io::Error`] its kind is `InvalidData`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not the format's magic.
    BadMagic,
    /// The length field exceeds the format's payload cap.
    OverCap,
    /// The bytes at hand are not `header + len + footer` long ([`Format::open`]
    /// only: a stream reports a short frame as `UnexpectedEof`).
    BadLength,
    /// The payload does not hash to the footer.
    ChecksumMismatch,
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("frame: {e:?}"))
    }
}

/// One instantiation of the frame codec. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Format {
    magic: [u8; MAGIC_BYTES],
    len_width: LenWidth,
    max_payload: usize,
}

impl Format {
    /// A format with the given magic, length-field width and payload cap.
    /// Panics (at compile time for a `const`) if the cap does not fit the
    /// length field or leaves no room for the footer.
    pub const fn new(magic: [u8; MAGIC_BYTES], len_width: LenWidth, max_payload: usize) -> Format {
        assert!(
            max_payload <= usize::MAX - FOOTER_BYTES
                && (matches!(len_width, LenWidth::U64) || max_payload as u64 <= u32::MAX as u64),
            "payload cap does not fit the length field"
        );
        Format {
            magic,
            len_width,
            max_payload,
        }
    }

    /// Offset of the payload within a frame: magic + length field.
    pub const fn header_bytes(&self) -> usize {
        MAGIC_BYTES + self.len_width as usize
    }

    /// Bytes a frame adds around its payload: magic + length + footer.
    pub const fn overhead(&self) -> usize {
        self.header_bytes() + FOOTER_BYTES
    }

    /// Builds one frame in `buf` (cleared first): `fill` appends the payload
    /// behind the reserved header, then the length is patched in and the
    /// footer appended. A payload over the cap is refused with
    /// `InvalidInput` — the peer would have to reject the frame — and `buf`
    /// must then not be sent.
    pub fn build(&self, buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        let header = self.header_bytes();
        buf.clear();
        buf.extend_from_slice(&self.magic);
        buf.resize(header, 0);
        fill(buf);
        let len = buf.len() - header;
        if len > self.max_payload {
            let over_cap = "frame payload over size cap";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, over_cap));
        }
        // Little-endian: the low `len_width` bytes of the u64 are the field.
        buf[MAGIC_BYTES..header]
            .copy_from_slice(&(len as u64).to_le_bytes()[..header - MAGIC_BYTES]);
        let footer = checksum64(&buf[header..]);
        buf.extend_from_slice(&footer.to_le_bytes());
        Ok(())
    }

    /// The payload length a header (magic already checked) announces,
    /// refused if over the cap — before anything is allocated for it.
    fn payload_len(&self, header: &[u8]) -> Result<usize, FrameError> {
        let mut field = [0u8; 8];
        field[..header.len() - MAGIC_BYTES].copy_from_slice(&header[MAGIC_BYTES..]);
        usize::try_from(u64::from_le_bytes(field))
            .ok()
            .filter(|&len| len <= self.max_payload)
            .ok_or(FrameError::OverCap)
    }

    /// Verifies a whole frame held in memory and returns its payload.
    /// Allocates nothing; trailing or missing bytes are [`FrameError::BadLength`].
    pub fn open<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8], FrameError> {
        if frame.get(..MAGIC_BYTES).is_some_and(|m| m != self.magic) {
            return Err(FrameError::BadMagic);
        }
        let (header, body) = frame
            .split_at_checked(self.header_bytes())
            .ok_or(FrameError::BadLength)?;
        let len = self.payload_len(header)?;
        if body.len().checked_sub(FOOTER_BYTES) != Some(len) {
            return Err(FrameError::BadLength);
        }
        verified(body, len)
    }

    /// Reads one frame's payload from a stream. `Ok(None)` is a clean EOF
    /// before the first byte of a frame; EOF anywhere later is
    /// `UnexpectedEof`; [`FrameError`]s arrive as `InvalidData`. A wrong
    /// magic is reported as soon as four bytes are in, without waiting for
    /// a length that may never come.
    pub fn read(&self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; MAGIC_BYTES + LenWidth::U64 as usize];
        let header = &mut header[..self.header_bytes()];
        let mut got = 0;
        while got < header.len() {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            if got >= MAGIC_BYTES && header[..MAGIC_BYTES] != self.magic {
                return Err(FrameError::BadMagic.into());
            }
        }
        let len = self.payload_len(header)?;
        let mut body = vec![0u8; len + FOOTER_BYTES];
        r.read_exact(&mut body)?;
        verified(&body, len)?;
        body.truncate(len);
        Ok(Some(body))
    }
}

/// The first `len` bytes of `body`, if they hash to the footer behind them.
fn verified(body: &[u8], len: usize) -> Result<&[u8], FrameError> {
    let (payload, footer) = body.split_at(len);
    if checksum64(payload).to_le_bytes() == footer {
        Ok(payload)
    } else {
        Err(FrameError::ChecksumMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    const WIDE: Format = Format::new(*b"DWR3", LenWidth::U64, 1 << 16);
    const NARROW: Format = Format::new(*b"DWQ2", LenWidth::U32, 1 << 16);

    fn frame_of(format: &Format, payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![0xAA; 3]; // stale content is cleared
        format
            .build(&mut frame, |buf| buf.extend_from_slice(payload))
            .unwrap();
        frame
    }

    /// Hands out at most `chunk` bytes per `read` and counts the calls;
    /// every `interrupt_every`-th call fails with `Interrupted` first.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        chunk: usize,
        interrupt_every: usize,
        calls: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn layout_and_overhead_of_both_widths() {
        assert_eq!((WIDE.header_bytes(), WIDE.overhead()), (12, 20));
        assert_eq!((NARROW.header_bytes(), NARROW.overhead()), (8, 16));
        let wide = frame_of(&WIDE, b"hello");
        assert_eq!(&wide[..4], b"DWR3");
        assert_eq!(wide[4..12], 5u64.to_le_bytes());
        assert_eq!(&wide[12..17], b"hello");
        assert_eq!(wide[17..], checksum64(b"hello").to_le_bytes());
        let narrow = frame_of(&NARROW, b"");
        assert_eq!(&narrow[..4], b"DWQ2");
        assert_eq!(narrow[4..8], 0u32.to_le_bytes());
        assert_eq!(narrow[8..], checksum64(b"").to_le_bytes());
    }

    #[test]
    fn one_write_per_frame_and_two_reads_when_it_arrives_whole() {
        for format in [WIDE, NARROW] {
            let payload: Vec<u8> = (0..=255).cycle().take(5000).collect();
            let frame = frame_of(&format, &payload);
            let mut sink = CountingWriter {
                bytes: Vec::new(),
                calls: 0,
            };
            sink.write_all(&frame).unwrap();
            assert_eq!(sink.calls, 1);

            let mut source = CountingReader {
                bytes: &sink.bytes,
                chunk: usize::MAX,
                interrupt_every: 0,
                calls: 0,
            };
            assert_eq!(format.read(&mut source).unwrap(), Some(payload));
            assert_eq!(source.calls, 2);
            // Clean EOF at the frame boundary costs the third.
            assert_eq!(format.read(&mut source).unwrap(), None);
        }
    }

    #[test]
    fn dribbled_and_interrupted_streams_still_deliver() {
        let payload = b"arrives one byte at a time".to_vec();
        for format in [WIDE, NARROW] {
            let frame = [frame_of(&format, &payload), frame_of(&format, b"")].concat();
            let mut source = CountingReader {
                bytes: &frame,
                chunk: 1,
                interrupt_every: 3,
                calls: 0,
            };
            assert_eq!(format.read(&mut source).unwrap(), Some(payload.clone()));
            assert_eq!(format.read(&mut source).unwrap(), Some(Vec::new()));
            assert_eq!(format.read(&mut source).unwrap(), None);
        }
    }

    #[test]
    fn wrong_magic_is_reported_after_four_bytes() {
        // Only four bytes ever arrive: the verdict must not wait for a length.
        let mut source = CountingReader {
            bytes: b"DWQ1",
            chunk: usize::MAX,
            interrupt_every: 0,
            calls: 0,
        };
        let err = NARROW.read(&mut source).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(source.calls, 1);
    }

    #[test]
    fn over_cap_is_refused_on_both_sides_before_any_allocation() {
        for format in [WIDE, NARROW] {
            let err = format
                .build(&mut Vec::new(), |buf| {
                    buf.resize(buf.len() + (1 << 16) + 1, 0)
                })
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            format
                .build(&mut Vec::new(), |buf| buf.resize(buf.len() + (1 << 16), 0))
                .expect("a payload of exactly the cap fits");

            // A header announcing more than the cap: rejected with only the
            // header consumed, however much the peer claims will follow.
            let mut lie = frame_of(&format, b"x");
            lie[4..8].copy_from_slice(&((1u32 << 16) + 1).to_le_bytes());
            assert_eq!(format.open(&lie), Err(FrameError::OverCap));
            let mut source = &lie[..];
            let err = format.read(&mut source).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(lie.len() - source.len(), format.header_bytes());
        }
        // The high half of a u64 length counts too.
        let mut lie = frame_of(&WIDE, b"x");
        lie[11] = 0x80;
        assert_eq!(WIDE.open(&lie), Err(FrameError::OverCap));
    }
}
