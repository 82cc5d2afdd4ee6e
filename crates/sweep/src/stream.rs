//! Durable append-only result streaming (DESIGN.md §18).
//!
//! A [`StreamWriter`] owns the `<out>.jsonl` checkpoint file. It writes
//! the sealed header when a sweep starts, appends one sealed record per
//! completed job, and calls `fdatasync` after every line — the whole
//! point is that a kill at any instant leaves at most one torn (and
//! therefore detectably incomplete) record, never a silently missing or
//! silently wrong one.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};

use crate::checkpoint::{header_line, record_line, Checkpoint, SweepError};
use crate::results::JobOutcome;

/// Appends sealed checkpoint lines to a sweep's `.jsonl` stream.
#[derive(Debug)]
pub struct StreamWriter {
    file: File,
    path: String,
    seq: u64,
}

impl StreamWriter {
    /// Starts a fresh stream: truncates `path`, writes the header line
    /// binding the stream to `spec_hash` and the grid size, and syncs it.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the file cannot be created or written.
    pub fn create(path: &str, spec_hash: u64, total: usize) -> Result<StreamWriter, SweepError> {
        let file = File::create(path).map_err(|e| io_err(path, "create checkpoint", &e))?;
        // The header occupies sequence 0; job records start at 1.
        let mut w = StreamWriter { file, path: path.to_string(), seq: 1 };
        w.write_line(&header_line(spec_hash, total))?;
        Ok(w)
    }

    /// Reopens an existing stream for a resumed sweep. The file is
    /// truncated to the checkpoint's valid prefix first — a torn tail
    /// left by a mid-append crash must not have fresh records appended
    /// onto it — and the sequence counter continues past the highest
    /// persisted record.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the file cannot be opened, truncated, or
    /// positioned.
    pub fn reopen(path: &str, ckpt: &Checkpoint) -> Result<StreamWriter, SweepError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "reopen checkpoint", &e))?;
        file.set_len(ckpt.valid_bytes).map_err(|e| io_err(path, "truncate torn tail of", &e))?;
        file.seek(SeekFrom::Start(ckpt.valid_bytes)).map_err(|e| io_err(path, "seek in", &e))?;
        let seq = ckpt.records.values().map(|r| r.seq + 1).max().unwrap_or(1);
        Ok(StreamWriter { file, path: path.to_string(), seq })
    }

    /// Appends one job record and syncs it to disk.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the write or sync fails; the caller aborts
    /// the sweep rather than continue with a checkpoint that lies.
    pub fn append(&mut self, outcome: &JobOutcome) -> Result<(), SweepError> {
        let line = record_line(self.seq, outcome);
        self.write_line(&line)?;
        self.seq += 1;
        Ok(())
    }

    /// The stream's path (for messages).
    pub fn path(&self) -> &str {
        &self.path
    }

    fn write_line(&mut self, line: &str) -> Result<(), SweepError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, "append to checkpoint", &e))
    }
}

fn io_err(path: &str, op: &'static str, e: &std::io::Error) -> SweepError {
    SweepError::Io { path: path.to_string(), op, detail: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{load_checkpoint, spec_hash};
    use crate::spec::SweepSpec;

    fn temp(name: &str) -> String {
        let dir = crate::unique_temp_dir(&format!("stream-{name}")).unwrap();
        dir.join("ckpt.jsonl").to_string_lossy().into_owned()
    }

    fn discard(path: &str) {
        std::fs::remove_dir_all(std::path::Path::new(path).parent().unwrap()).ok();
    }

    #[test]
    fn header_and_records_roundtrip_through_the_loader() {
        let spec = SweepSpec::default();
        let jobs = spec.expand();
        let hash = spec_hash(&spec);
        let path = temp("roundtrip");

        let mut w = StreamWriter::create(&path, hash, jobs.len()).unwrap();
        let outcome = JobOutcome::once(
            jobs[1],
            Err(crate::results::JobError::Verify { message: "word 3: got 9, want 7".into() }),
        );
        w.append(&outcome).unwrap();
        drop(w);

        let ckpt = load_checkpoint(&path).unwrap();
        assert_eq!(ckpt.spec_hash, hash);
        assert_eq!(ckpt.total, jobs.len());
        assert!(!ckpt.torn_tail);
        assert_eq!(ckpt.records.len(), 1);
        let rec = &ckpt.records[&1];
        assert_eq!(rec.seq, 1);
        assert_eq!(rec.attempts, 1);
        assert!(!rec.quarantined);
        assert_eq!(rec.result.as_ref().unwrap_err().kind(), "verify");
        discard(&path);
    }

    #[test]
    fn torn_tail_is_recoverable_and_reopen_truncates_it() {
        let spec = SweepSpec::default();
        let hash = spec_hash(&spec);
        let path = temp("torn");
        let mut w = StreamWriter::create(&path, hash, 2).unwrap();
        let jobs = spec.expand();
        w.append(&JobOutcome::once(
            jobs[0],
            Err(crate::results::JobError::Panic { message: "x".into() }),
        ))
        .unwrap();
        drop(w);

        // Simulate a kill mid-append: half a record, no newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"crc":"0123456789abcdef","seq":1,"id":1,"atte"#);
        std::fs::write(&path, &bytes).unwrap();

        let ckpt = load_checkpoint(&path).unwrap();
        assert!(ckpt.torn_tail, "partial final line must read as a torn tail");
        assert_eq!(ckpt.valid_bytes, clean_len);
        assert_eq!(ckpt.records.len(), 1);

        // Reopen must drop the torn bytes before appending.
        let mut w = StreamWriter::reopen(&path, &ckpt).unwrap();
        w.append(&JobOutcome::once(
            jobs[1],
            Err(crate::results::JobError::Panic { message: "y".into() }),
        ))
        .unwrap();
        drop(w);
        let again = load_checkpoint(&path).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.records[&1].seq, 2, "sequence continues past persisted records");
        discard(&path);
    }

    #[test]
    fn complete_but_corrupt_line_is_a_typed_error() {
        let spec = SweepSpec::default();
        let path = temp("corrupt");
        let mut w = StreamWriter::create(&path, spec_hash(&spec), 2).unwrap();
        w.append(&JobOutcome::once(
            spec.expand()[0],
            Err(crate::results::JobError::Panic { message: "x".into() }),
        ))
        .unwrap();
        drop(w);

        // Flip one byte inside the record body (keeping the newline): this
        // is corruption, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        match load_checkpoint(&path) {
            Err(SweepError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        discard(&path);
    }
}
