//! Measuring the journal from outside `wimesh-svc`: a `Write` wrapper
//! handed to `JournalWriter::from_writer` that counts write calls and
//! bytes. The records go to memory, so the time spent in the writes
//! would time the benchmark's own buffer, and is not taken.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared counters of one [`CountingWriter`].
#[derive(Debug, Default)]
pub struct IoTally {
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl IoTally {
    /// Write calls so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Acquire)
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }
}

/// A writer that counts what passes through it into an [`IoTally`].
#[derive(Debug)]
pub struct CountingWriter<W> {
    inner: W,
    tally: Arc<IoTally>,
}

impl<W: Write> CountingWriter<W> {
    /// Wraps `inner`, counting into `tally`.
    pub fn new(inner: W, tally: Arc<IoTally>) -> Self {
        CountingWriter { inner, tally }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf);
        if let Ok(n) = n {
            self.tally.writes.fetch_add(1, Ordering::AcqRel);
            self.tally.bytes.fetch_add(n as u64, Ordering::AcqRel);
        }
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An in-memory byte sink shared between the journal writer and the
/// code that persists it.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Takes the bytes written so far.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_bytes() {
        let tally = Arc::new(IoTally::default());
        let mut w = CountingWriter::new(Vec::new(), tally.clone());
        w.write_all(b"hello").unwrap();
        w.write_all(b" world").unwrap();
        w.flush().unwrap();
        assert_eq!(tally.writes(), 2);
        assert_eq!(tally.bytes(), 11);
        assert_eq!(w.inner, b"hello world");
    }
}
