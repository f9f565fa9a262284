//! Per-request records of an HTTP window, kept in a file while the window
//! runs and read back after its peak memory is taken.
//!
//! Kept in memory, the load generator's `(endpoint, completion, round
//! trip)` records grew the process's resident set by 24 bytes a request,
//! and `peak_rss_mib` with it: `predict_hot` completes ~560 000 requests
//! in a 15 s window while the host is fast and ~370 000 while it is slow,
//! and its peak read 33–34 MiB and 29 MiB accordingly, so a faster server
//! would have read as a bigger one. Written through a 64 KiB buffer, they
//! cost the window a fixed 64 KiB.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use crate::gen::Kind;

/// Every endpoint, in declaration order: a record stores the index.
const KINDS: [Kind; 5] =
    [Kind::Predict, Kind::Recommend, Kind::Healthz, Kind::Metrics, Kind::Reload];

/// Bytes per record: the endpoint, then two little-endian `f64`s.
const RECORD: usize = 17;

/// A file of `(endpoint, completion s, round trip µs)` records.
pub struct Records {
    out: BufWriter<File>,
    path: PathBuf,
    error: Option<String>,
}

impl Records {
    /// Creates (or truncates) the file at `path`.
    ///
    /// # Errors
    ///
    /// Errors when the file cannot be created.
    pub fn create(path: PathBuf) -> Result<Records, String> {
        let file =
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Records { out: BufWriter::with_capacity(64 << 10, file), path, error: None })
    }

    /// Appends one record; a write error is kept for [`Records::read`].
    pub fn push(&mut self, kind: Kind, end_s: f64, us: f64) {
        let mut record = [0u8; RECORD];
        record[0] = kind as u8;
        record[1..9].copy_from_slice(&end_s.to_le_bytes());
        record[9..].copy_from_slice(&us.to_le_bytes());
        if let Err(e) = self.out.write_all(&record) {
            self.error.get_or_insert_with(|| format!("cannot write {}: {e}", self.path.display()));
        }
    }

    /// Every record pushed, in order; the file is removed.
    ///
    /// # Errors
    ///
    /// Errors when a write failed or the file cannot be read back.
    pub fn read(self) -> Result<Vec<(Kind, f64, f64)>, String> {
        let Records { out, path, error } = self;
        let flushed = out.into_inner().map_err(|e| format!("cannot flush {}: {e}", path.display()));
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()));
        let _ = std::fs::remove_file(&path);
        if let Some(error) = error {
            return Err(error);
        }
        flushed?;
        let f64_at = |r: &[u8], at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&r[at..at + 8]);
            f64::from_le_bytes(le)
        };
        bytes?
            .chunks_exact(RECORD)
            .map(|r| {
                let kind = KINDS.get(usize::from(r[0])).ok_or("corrupt record")?;
                Ok((*kind, f64_at(r, 1), f64_at(r, 9)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_read_back_as_pushed() {
        for (i, kind) in KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let dir = crate::setup::TempDir::new().unwrap();
        let path = dir.path().join("records");
        let mut records = Records::create(path.clone()).unwrap();
        let pushed: Vec<(Kind, f64, f64)> = (0..10_000)
            .map(|i| (KINDS[i % KINDS.len()], i as f64 * 1e-3, 17.25 + i as f64))
            .collect();
        for &(kind, end_s, us) in &pushed {
            records.push(kind, end_s, us);
        }
        assert_eq!(records.read().unwrap(), pushed);
        assert!(!path.exists());
        assert_eq!(Records::create(dir.path().join("none")).unwrap().read().unwrap(), vec![]);
    }
}
