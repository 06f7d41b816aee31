//! Length-prefixed byte frames: a 4-byte big-endian length followed by
//! that many payload bytes. The framing both the dispatcher⇄worker
//! protocol and the `rumor serve` loop speak over stdin/stdout pipes.

use std::io::{self, Read, Write};

/// Frames larger than this are rejected on both sides.
pub const MAX_FRAME: u32 = 1 << 28;

/// The most payload memory [`read_frame`] reserves before the bytes
/// arrive: a length prefix alone is no evidence that the payload
/// exists, so a header claiming [`MAX_FRAME`] bytes followed by EOF
/// must not allocate them.
const MAX_RESERVE: usize = 64 << 10;

/// Writes one frame and flushes (the reader on the other side blocks
/// until the frame is complete, so every frame is flushed eagerly).
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`]; otherwise
/// whatever the underlying writer reports.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` signals clean end-of-stream (EOF exactly
/// at a frame boundary); EOF inside a frame is an `UnexpectedEof`
/// error.
///
/// # Errors
///
/// `InvalidData` on an oversized length prefix, `UnexpectedEof` on a
/// truncated frame, otherwise whatever the underlying reader reports.
/// Memory grows with the bytes received, not with the length claimed.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(MAX_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame payload",
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&[7u8; 1000][..]));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncation_and_oversize_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Truncated payload.
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
        // Truncated header.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        // Oversized length prefix.
        let bad = (MAX_FRAME + 1).to_be_bytes();
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }

    /// Hands out `data` and records the largest buffer it was offered.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
        // A header claiming 2^28 bytes, then 10 bytes and EOF, once
        // allocated the whole claim up front and aborted a worker
        // running under a memory limit.
        let mut stream = MAX_FRAME.to_be_bytes().to_vec();
        stream.extend([7u8; 10]);
        let mut r = Recording { data: &stream, largest: 0 };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest <= MAX_RESERVE, "offered a {}-byte buffer", r.largest);
    }
}
