//! Output digests: a byte-counting, hashing `Write` sink. The digest
//! depends only on the byte stream, never on how writes were chunked,
//! so a trace emitted row by row digests the same as one written whole.

use borg_trace::trace::Trace;
use std::io::Write;

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A `Write` sink that counts and hashes everything written to it.
#[derive(Debug, Clone)]
pub struct HashSink {
    h: u64,
    bytes: u64,
    pending: [u8; 8],
    npending: usize,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            h: SEED,
            bytes: 0,
            pending: [0; 8],
            npending: 0,
        }
    }
}

impl HashSink {
    fn word(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(MUL);
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The digest of everything written so far.
    pub fn digest(&self) -> u64 {
        let mut s = self.clone();
        let mut last = [0u8; 8];
        last[..s.npending].copy_from_slice(&s.pending[..s.npending]);
        s.word(u64::from_le_bytes(last));
        s.word(s.bytes);
        s.h
    }
}

impl Write for HashSink {
    fn write(&mut self, mut buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len();
        self.bytes += n as u64;
        if self.npending > 0 {
            let take = (8 - self.npending).min(buf.len());
            self.pending[self.npending..self.npending + take].copy_from_slice(&buf[..take]);
            self.npending += take;
            buf = &buf[take..];
            if self.npending < 8 {
                return Ok(n);
            }
            self.word(u64::from_le_bytes(self.pending));
            self.npending = 0;
        }
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.npending = rest.len();
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Digest of bytes in memory.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut s = HashSink::default();
    s.write_all(bytes).expect("hash sink never fails");
    s.digest()
}

/// Emits all four trace tables as CSV into `sink` (the published
/// format, as `borg_trace::csv::write_trace_dir` writes it).
pub fn emit_trace(trace: &Trace, sink: &mut HashSink) -> std::io::Result<()> {
    borg_trace::csv::write_machine_events(sink, &trace.machine_events)?;
    borg_trace::csv::write_collection_events(sink, &trace.collection_events)?;
    borg_trace::csv::write_instance_events(sink, &trace.instance_events)?;
    borg_trace::csv::write_usage(sink, &trace.usage)
}

/// Digest of a trace's four tables as CSV.
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut s = HashSink::default();
    emit_trace(trace, &mut s).expect("hash sink never fails");
    s.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::machine::{MachineEvent, Platform};
    use borg_trace::resources::Resources;
    use borg_trace::time::Micros;

    #[test]
    fn digest_ignores_write_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = digest_bytes(&data);
        for chunk in [1, 3, 7, 8, 9, 64, 999] {
            let mut s = HashSink::default();
            for c in data.chunks(chunk) {
                s.write_all(c).unwrap();
            }
            assert_eq!(s.digest(), whole, "chunk size {chunk}");
            assert_eq!(s.bytes(), 1000);
        }
    }

    #[test]
    fn digest_sees_every_byte_and_the_length() {
        let a = digest_bytes(b"machine_id,time\n1,2\n");
        assert_ne!(a, digest_bytes(b"machine_id,time\n1,3\n"));
        assert_ne!(digest_bytes(b"ab"), digest_bytes(b"ab\0"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }

    #[test]
    fn trace_digest_tracks_rows() {
        let mut t = Trace::default();
        let empty = trace_digest(&t);
        t.machine_events.push(MachineEvent::add(
            Micros::from_hours(1),
            borg_trace::MachineId(7),
            Resources::new(0.5, 0.5),
            Platform(0),
        ));
        let one = trace_digest(&t);
        assert_ne!(empty, one);
        assert_eq!(one, trace_digest(&t.clone()));
    }
}
