//! The one durable log under the service's two shared files: the release
//! ledger and the track claim log are both a [`FrameLog`] plus a fold of
//! its entries into the views their readers need.
//!
//! # On-disk format
//!
//! A flat sequence of self-delimiting frames, one per entry:
//!
//! ```text
//! [u32 LE body length][wire-encoded entry][32-byte SHA-256 of body]
//! ```
//!
//! The trailing digest makes torn writes detectable: a crash mid-append
//! leaves a final frame whose length header, body or checksum is
//! incomplete (or whose checksum mismatches). A frame is *intact* when
//! its checksum holds **and** its body decodes as the log's entry type —
//! which is all the type parameter is for. The intact prefix always
//! loads; appends never rewrite earlier bytes.
//!
//! # Mirrored durability
//!
//! A log lives on a primary file plus any number of mirrors. Every
//! append writes the frame to each of them and succeeds once a majority
//! of the whole set acknowledged its fsync (the primary's is mandatory).
//! A mirror whose write fails is retired: it receives no further frame,
//! so it can only ever hold a strict *prefix* of the truth, never a
//! divergent history. Two heals bring the copies back together:
//!
//! * **at open** the copy with the longest intact prefix wins (the
//!   earliest on ties, the primary first) and every copy whose content
//!   is not exactly that prefix — lagging, torn, or flipped — is
//!   rewritten to it;
//! * **at refresh** (under the fleet lock, so nothing live is writing)
//!   the primary's torn tail is truncated, every live mirror that does
//!   not end where the primary's intact prefix does is rewritten from the
//!   primary, and every mirror an earlier append or refresh retired is
//!   re-opened, rewritten from the primary and re-admitted (it stays
//!   retired if either step fails). The quorum counts every mirror, so
//!   without the re-admission one failed write in a one-mirror set would
//!   fail every later append until a restart.
//!
//! The three operations are the whole interface; what differs between
//! the two logs travels as data in a [`LogNames`] constant.
//!
//! # The storage seam
//!
//! Every byte the log reads or writes, and the fleet's lock, goes through
//! [`Store`], one handle on one copy: `std::fs::File` in production,
//! statically dispatched (both logs default their store to `File`), and
//! an in-memory store that tears writes, fails fsyncs and loses mirrors
//! in the tracks' fault simulator.

use crate::error::ServiceError;
use gendpr_crypto::sha256;
use gendpr_fednet::killpoint;
use gendpr_fednet::tcp::MAX_FRAME_BYTES;
use gendpr_fednet::wire::{self, Decode, Encode};
use gendpr_obs::{event, Level};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// SHA-256 digest length, the per-frame checksum trailer.
const CHECKSUM_LEN: usize = 32;

/// One handle on one copy of a log (or on the fleet's lock file): the
/// operations the log mechanics need and nothing else. Nameable only
/// inside the crate (`log` is a private module).
pub trait Store: Sized {
    /// Opens the copy at `path` for reading and appending, creating it
    /// when absent.
    fn open(path: &Path) -> io::Result<Self>;
    /// Every byte from `offset` to the end.
    fn read_from(&mut self, offset: u64) -> io::Result<Vec<u8>>;
    /// The copy's length in bytes.
    fn size(&self) -> io::Result<u64>;
    /// Cuts (or extends) the copy to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Appends `bytes` at the end.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes what was written durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Takes the exclusive cross-process lock on this handle.
    fn lock(&self) -> io::Result<()>;
    /// Releases it.
    fn unlock(&self) -> io::Result<()>;
}

impl Store for File {
    fn open(path: &Path) -> io::Result<Self> {
        OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
    }

    fn read_from(&mut self, offset: u64) -> io::Result<Vec<u8>> {
        self.seek(SeekFrom::Start(offset))?;
        let mut bytes = Vec::new();
        self.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)?;
        self.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn lock(&self) -> io::Result<()> {
        File::lock(self)
    }

    fn unlock(&self) -> io::Result<()> {
        File::unlock(self)
    }
}

/// The names one log reports its mechanics under — all the release
/// ledger and the claim log differ in below their folds.
#[derive(Debug)]
pub(crate) struct LogNames {
    /// The log's name in a quorum-lost error.
    pub(crate) log: &'static str,
    /// Event target.
    pub(crate) target: &'static str,
    /// A losing copy was rewritten to the winning prefix at open.
    pub(crate) healed: &'static str,
    /// The winning copy's own torn tail was dropped at open; `None` when
    /// the log reports that itself (the ledger's `ledger_truncated`).
    pub(crate) winner_trimmed: Option<&'static str>,
    /// The primary's torn tail was truncated at refresh.
    pub(crate) tail_dropped: &'static str,
    /// A mirror's tail was rewritten from the primary at refresh.
    pub(crate) tail_healed: &'static str,
    /// A mirror was retired after a failed write or heal.
    pub(crate) retired: &'static str,
    /// The soak harness's crash windows in an append, if the log has any.
    pub(crate) kill: Option<KillPoints>,
}

/// `GENDPR_KILLPOINT` sites of one append, covering the three crash
/// windows recovery must handle.
#[derive(Debug)]
pub(crate) struct KillPoints {
    /// Mid-write: a genuinely torn frame on disk.
    pub(crate) tear: &'static str,
    /// Post-write, pre-fsync: the primary ahead of every mirror.
    pub(crate) append: &'static str,
    /// Right after durability: a committed frame whose response was
    /// never delivered.
    pub(crate) commit: &'static str,
}

/// What [`FrameLog::open`] found and did.
#[derive(Debug)]
pub(crate) struct OpenReport {
    /// Bytes past the primary's own intact prefix.
    pub(crate) primary_torn_bytes: u64,
    /// Frames in that tail: every structurally whole one, plus one for a
    /// partial remainder.
    pub(crate) primary_torn_frames: u64,
    /// Entries the primary's own intact prefix holds.
    pub(crate) primary_kept: usize,
    /// Copies rewritten (one fsync each), the winner's own trim included.
    pub(crate) rewritten: u64,
    /// The losing copies among them.
    pub(crate) healed: u64,
}

/// What [`FrameLog::refresh`] found and did.
#[derive(Debug)]
pub(crate) struct RefreshReport {
    /// Bytes of torn tail truncated off the primary.
    pub(crate) dropped_bytes: u64,
    /// Mirrors rewritten from the primary.
    pub(crate) healed: u64,
    /// Mirrors retired because the rewrite failed.
    pub(crate) retired: u64,
}

/// One mirror of a log.
#[derive(Debug)]
struct Mirror<S> {
    /// `None` once a write failed: a retired mirror stops receiving
    /// frames (its file stays a strict prefix of the truth) until the
    /// next refresh or open heals it.
    file: Option<S>,
    path: PathBuf,
}

/// An append-only, checksummed, mirrored log of `E` entries.
#[derive(Debug)]
pub(crate) struct FrameLog<E, S = File> {
    file: S,
    path: PathBuf,
    mirrors: Vec<Mirror<S>>,
    /// Byte length of the intact prefix handed to the owner so far —
    /// where [`FrameLog::refresh`] resumes scanning.
    offset: u64,
    names: &'static LogNames,
    entry: PhantomData<fn() -> E>,
}

/// One copy as found on disk at open.
struct LogCopy<S> {
    file: S,
    path: PathBuf,
    bytes: Vec<u8>,
    /// Length of the intact frame prefix.
    good: usize,
}

/// Builds one frame around `body`.
///
/// # Panics
///
/// Panics when `body` exceeds the transport frame cap — an entry that
/// large could never have crossed the wire in the first place.
fn seal_frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME_BYTES, "log frame over cap");
    let mut frame = Vec::with_capacity(4 + body.len() + CHECKSUM_LEN);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&sha256::digest(body));
    frame
}

/// Returns the end offset of the frame starting at `start`, or `None`
/// when the remaining bytes cannot hold one (torn tail).
fn next_frame(bytes: &[u8], start: usize) -> Option<usize> {
    let header = bytes.get(start..start + 4)?;
    let len = u32::from_le_bytes(header.try_into().expect("four bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let end = start + 4 + len + CHECKSUM_LEN;
    (end <= bytes.len()).then_some(end)
}

/// The intact, decodable entry prefix of `bytes` and its byte length.
pub(crate) fn scan<E: Decode>(bytes: &[u8]) -> (Vec<E>, usize) {
    let mut entries = Vec::new();
    let mut good = 0usize;
    while let Some(end) = next_frame(bytes, good) {
        let body = &bytes[good + 4..end - CHECKSUM_LEN];
        if sha256::digest(body).as_slice() != &bytes[end - CHECKSUM_LEN..end] {
            break;
        }
        let Ok(entry) = wire::from_bytes::<E>(body) else {
            break;
        };
        entries.push(entry);
        good = end;
    }
    (entries, good)
}

/// Replaces `file`'s content with `bytes`, durably.
fn rewrite<S: Store>(file: &mut S, bytes: &[u8]) -> io::Result<()> {
    file.truncate(0)?;
    file.write(bytes)?;
    file.sync()
}

/// Retires `mirror` after a failed write or heal: one missing frame must
/// never be followed by later ones, or the mirror would hold a valid-
/// looking history that skips an entry.
fn retire<S>(mirror: &mut Mirror<S>, error: &io::Error, names: &LogNames) {
    mirror.file = None;
    event(
        Level::Warn,
        names.target,
        names.retired,
        &[
            ("path", mirror.path.display().to_string().as_str().into()),
            ("error", error.to_string().as_str().into()),
        ],
    );
}

impl<E: Encode + Decode, S: Store> FrameLog<E, S> {
    /// Opens (creating any that are absent) the log on `primary` plus
    /// `mirrors` and heals every copy to the longest intact prefix.
    /// Returns the log, that prefix decoded, and what the heal did. (A
    /// crash mid-heal leaves that file with some prefix of the winner's
    /// bytes — the next open still finds the full prefix on the quorum
    /// that acknowledged it.)
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures — at open, every
    /// file must be readable and healable; only at append time may a
    /// minority of the set fail.
    pub(crate) fn open(
        primary: &Path,
        mirrors: &[PathBuf],
        names: &'static LogNames,
    ) -> Result<(Self, Vec<E>, OpenReport), ServiceError> {
        let mut copies = Vec::with_capacity(1 + mirrors.len());
        let mut decoded = Vec::with_capacity(1 + mirrors.len());
        for path in std::iter::once(primary).chain(mirrors.iter().map(PathBuf::as_path)) {
            let mut file = S::open(path)?;
            let bytes = file.read_from(0)?;
            let (entries, good) = scan::<E>(&bytes);
            copies.push(LogCopy {
                file,
                path: path.to_path_buf(),
                bytes,
                good,
            });
            decoded.push(entries);
        }

        let torn = &copies[0].bytes[copies[0].good..];
        let mut torn_frames = 0u64;
        let mut at = 0usize;
        while let Some(end) = next_frame(torn, at) {
            torn_frames += 1;
            at = end;
        }
        if at < torn.len() {
            torn_frames += 1;
        }
        let mut report = OpenReport {
            primary_torn_bytes: torn.len() as u64,
            primary_torn_frames: torn_frames,
            primary_kept: decoded[0].len(),
            rewritten: 0,
            healed: 0,
        };

        let winner = (0..copies.len())
            .max_by_key(|&i| (copies[i].good, std::cmp::Reverse(i)))
            .expect("at least the primary");
        let truth = copies[winner].bytes[..copies[winner].good].to_vec();
        for (i, copy) in copies.iter_mut().enumerate() {
            if copy.bytes == truth {
                continue;
            }
            rewrite(&mut copy.file, &truth)?;
            report.rewritten += 1;
            let name = if i == winner {
                names.winner_trimmed
            } else {
                report.healed += 1;
                Some(names.healed)
            };
            if let Some(name) = name {
                event(
                    Level::Warn,
                    names.target,
                    name,
                    &[
                        ("path", copy.path.display().to_string().as_str().into()),
                        ("had_bytes", (copy.bytes.len() as u64).into()),
                        ("now_bytes", (truth.len() as u64).into()),
                    ],
                );
            }
        }

        let entries = decoded.swap_remove(winner);
        let mut copies = copies.into_iter();
        let first = copies.next().expect("at least the primary");
        let log = Self {
            file: first.file,
            path: first.path,
            mirrors: copies
                .map(|copy| Mirror {
                    file: Some(copy.file),
                    path: copy.path,
                })
                .collect(),
            offset: truth.len() as u64,
            names,
            entry: PhantomData,
        };
        Ok((log, entries, report))
    }

    /// Re-scans the primary for frames appended by *other* processes
    /// since this handle last loaded or appended and returns them. A torn
    /// tail (a process killed mid-append) is truncated back to the last
    /// intact frame so the next append starts on a frame boundary, and
    /// every live mirror is brought to the primary's length — both safe
    /// only because the caller holds the exclusive fleet lock, meaning no
    /// live process can be mid-write. Never call this without that lock.
    ///
    /// On an error nothing is handed out and the scan position stays, so
    /// the next refresh sees the same frames again.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on filesystem failures.
    pub(crate) fn refresh(&mut self) -> Result<(Vec<E>, RefreshReport), ServiceError> {
        let bytes = self.file.read_from(self.offset)?;
        let (entries, good) = scan::<E>(&bytes);
        let end = self.offset + good as u64;
        let dropped_bytes = (bytes.len() - good) as u64;
        if dropped_bytes > 0 {
            event(
                Level::Warn,
                self.names.target,
                self.names.tail_dropped,
                &[
                    ("path", self.path.display().to_string().as_str().into()),
                    ("bytes", dropped_bytes.into()),
                ],
            );
            self.file.truncate(end)?;
            self.file.sync()?;
        }
        let (healed, retired) = self.heal_mirror_tails(end)?;
        self.offset = end;
        Ok((
            entries,
            RefreshReport {
                dropped_bytes,
                healed,
                retired,
            },
        ))
    }

    /// Verifies that every live mirror ends exactly where the primary's
    /// intact prefix (`end`) does, and heals any that does not by
    /// rewriting it from the primary. A process killed mid-append can
    /// leave a mirror with a torn tail — or missing the primary's fsynced
    /// last frame entirely — and because every handle appends with
    /// `O_APPEND`, a survivor would otherwise write the next frame after
    /// the damage: the mirror ends up unreadable past the tear (or worse,
    /// a valid-looking history that silently skips an entry) while its
    /// fsync still counts toward the append quorum. A mirror that cannot
    /// be healed is retired instead of acked, exactly like a failed
    /// append. A mirror retired before this call is re-opened and always
    /// rewritten — a failed write may have left any part of its frame —
    /// and re-admitted; if the open or the rewrite fails it stays retired
    /// and is not counted again.
    ///
    /// Appends are serialized fleet-wide and write identical bytes to
    /// every copy, so "same length as the primary's intact prefix"
    /// implies "same bytes" under the process-kill failure model; the
    /// check per refresh is one `stat` per mirror.
    ///
    /// Returns `(healed, retired)` mirror counts.
    fn heal_mirror_tails(&mut self, end: u64) -> Result<(u64, u64), ServiceError> {
        let mut truth: Option<Vec<u8>> = None;
        let (mut healed, mut retired) = (0, 0);
        for mirror in &mut self.mirrors {
            let retired_before = mirror.file.is_none();
            if retired_before {
                match S::open(&mirror.path) {
                    Ok(file) => mirror.file = Some(file),
                    Err(_) => continue,
                }
            }
            let file = mirror.file.as_mut().expect("live or re-opened");
            if !retired_before && file.size().ok() == Some(end) {
                continue;
            }
            // A primary read failure is the primary's problem, not the
            // mirror's: surface it instead of retiring the mirror. (Under
            // the lock the primary ends exactly at `end`.)
            if truth.is_none() {
                truth = Some(self.file.read_from(0)?);
            }
            match rewrite(file, truth.as_ref().expect("primary prefix loaded")) {
                Ok(()) => {
                    healed += 1;
                    event(
                        Level::Warn,
                        self.names.target,
                        self.names.tail_healed,
                        &[
                            ("path", mirror.path.display().to_string().as_str().into()),
                            ("now_bytes", end.into()),
                        ],
                    );
                }
                Err(_) if retired_before => mirror.file = None,
                Err(e) => {
                    retired += 1;
                    retire(mirror, &e, self.names);
                }
            }
        }
        Ok((healed, retired))
    }

    /// Appends one entry durably: written, flushed and fsynced on the
    /// primary, then on every live mirror, succeeding once the primary
    /// plus the acknowledging mirrors reach a majority of the whole set
    /// of `1 + mirrors` copies. A mirror whose write fails is retired
    /// (watch [`FrameLog::live_mirrors`] across the call to count them).
    /// Call it on a frame boundary: after an open, or after a
    /// [`FrameLog::refresh`] under the lock that serializes appenders.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the primary write fails or the quorum
    /// is lost; only after the quorum holds does the entry count as part
    /// of this handle's prefix, and only then may the owner extend its
    /// view. (A quorum-lost append may still have reached some files —
    /// exactly like a crash after fsync, the entry can resurface at the
    /// next open or refresh.)
    pub(crate) fn append(&mut self, entry: &E) -> Result<(), ServiceError> {
        let frame = seal_frame(&wire::to_bytes(entry));
        let kill = self.names.kill.as_ref();
        match kill {
            Some(kill) => {
                let split = frame.len() / 2;
                self.file.write(&frame[..split])?;
                killpoint::hit(kill.tear);
                self.file.write(&frame[split..])?;
            }
            None => self.file.write(&frame)?,
        }
        if let Some(kill) = kill {
            killpoint::hit(kill.append);
        }
        self.file.sync()?;

        let mut acks = 1;
        for mirror in &mut self.mirrors {
            let Some(file) = mirror.file.as_mut() else {
                continue;
            };
            let written = file.write(&frame).and_then(|()| file.sync());
            match written {
                Ok(()) => acks += 1,
                Err(e) => retire(mirror, &e, self.names),
            }
        }
        if let Some(kill) = kill {
            killpoint::hit(kill.commit);
        }
        let quorum = self.mirrors.len().div_ceil(2) + 1;
        if acks < quorum {
            return Err(io::Error::other(format!(
                "{} quorum lost: {acks} of {} copies acknowledged (need {quorum})",
                self.names.log,
                1 + self.mirrors.len()
            ))
            .into());
        }
        self.offset += frame.len() as u64;
        Ok(())
    }
}

impl<E, S> FrameLog<E, S> {
    /// The primary file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Paths of the mirror files, retired ones included.
    pub(crate) fn mirror_paths(&self) -> Vec<&Path> {
        self.mirrors.iter().map(|m| m.path.as_path()).collect()
    }

    /// Mirrors still receiving appends.
    pub(crate) fn live_mirrors(&self) -> usize {
        self.mirrors.iter().filter(|m| m.file.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: LogNames = LogNames {
        log: "test log",
        target: "test",
        healed: "test_healed",
        winner_trimmed: None,
        tail_dropped: "test_tail_dropped",
        tail_healed: "test_tail_healed",
        retired: "test_retired",
        kill: None,
    };

    /// Fresh `[primary, mirror a, mirror b]` paths.
    fn three_copies(name: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir().join(format!("gendpr-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (dir.join("primary"), vec![dir.join("a"), dir.join("b")])
    }

    fn open(primary: &Path, mirrors: &[PathBuf]) -> (FrameLog<u64>, Vec<u64>, OpenReport) {
        FrameLog::open(primary, mirrors, &NAMES).unwrap()
    }

    /// Swaps mirror `i`'s handle for a read-only one: every write to it
    /// fails with `EBADF`, every `set_len` with `EINVAL`.
    fn break_mirror(log: &mut FrameLog<u64>, i: usize) {
        log.mirrors[i].file = Some(File::open(&log.mirrors[i].path).unwrap());
    }

    #[test]
    fn a_failed_mirror_is_retired_skipped_and_healed_at_the_next_open() {
        let (primary, mirrors) = three_copies("one-bad");
        let (mut log, _, _) = open(&primary, &mirrors);
        log.append(&1).unwrap();
        break_mirror(&mut log, 0);

        // 2 of 3 copies acknowledge: the quorum holds without mirror a.
        log.append(&2).unwrap();
        assert_eq!(log.live_mirrors(), 1);
        let stale = std::fs::read(&mirrors[0]).unwrap();
        log.append(&3).unwrap();
        assert_eq!(
            std::fs::read(&mirrors[0]).unwrap(),
            stale,
            "a retired mirror receives nothing further"
        );
        let truth = std::fs::read(&primary).unwrap();
        assert_eq!(std::fs::read(&mirrors[1]).unwrap(), truth);
        assert!(truth.starts_with(&stale) && stale.len() < truth.len());
        drop(log);

        let (log, entries, report) = open(&primary, &mirrors);
        assert_eq!(entries, vec![1, 2, 3]);
        assert_eq!((report.rewritten, report.healed), (1, 1));
        assert_eq!(log.live_mirrors(), 2);
        assert_eq!(std::fs::read(&mirrors[0]).unwrap(), truth);
    }

    #[test]
    fn losing_the_quorum_fails_the_append_and_the_frame_can_resurface() {
        let (primary, mirrors) = three_copies("both-bad");
        let (mut log, _, _) = open(&primary, &mirrors);
        log.append(&1).unwrap();
        break_mirror(&mut log, 0);
        break_mirror(&mut log, 1);

        let before = log.offset;
        let error = log.append(&2).unwrap_err().to_string();
        assert!(
            error.contains("test log quorum lost: 1 of 3 copies acknowledged (need 2)"),
            "{error}"
        );
        assert_eq!(log.live_mirrors(), 0);
        assert_eq!(
            log.offset, before,
            "an unacknowledged frame is not part of the handle's prefix"
        );
        drop(log);

        // The primary did take the frame: like a crash after its fsync,
        // the next open finds it there and heals the mirrors to it.
        let (_, entries, report) = open(&primary, &mirrors);
        assert_eq!(entries, vec![1, 2]);
        assert_eq!(report.healed, 2);
        let truth = std::fs::read(&primary).unwrap();
        for mirror in &mirrors {
            assert_eq!(std::fs::read(mirror).unwrap(), truth);
        }
    }

    #[test]
    fn a_refresh_re_admits_a_mirror_an_append_retired() {
        // One mirror: the quorum is 2 of 2, so a retired mirror fails
        // every append until something brings it back.
        let (primary, mut mirrors) = three_copies("re-admit");
        mirrors.truncate(1);
        let (mut log, _, _) = open(&primary, &mirrors);
        log.append(&1).unwrap();
        break_mirror(&mut log, 0);
        let error = log.append(&2).unwrap_err().to_string();
        assert!(error.contains("quorum lost"), "{error}");
        assert_eq!(log.live_mirrors(), 0);

        // The file is fine again (the read-only handle is gone with the
        // retirement): the refresh re-opens it and rewrites it from the
        // primary, which took the unacknowledged frame.
        let (fresh, report) = log.refresh().unwrap();
        assert_eq!(fresh, vec![2]);
        assert_eq!((report.healed, report.retired), (1, 0));
        assert_eq!(log.live_mirrors(), 1);
        log.append(&3).unwrap();
        assert_eq!(
            std::fs::read(&mirrors[0]).unwrap(),
            std::fs::read(&primary).unwrap()
        );
    }

    #[test]
    fn refresh_heals_short_and_torn_mirrors_and_retires_an_unwritable_one() {
        let (primary, mirrors) = three_copies("refresh");
        let (mut log, _, _) = open(&primary, &mirrors);
        log.append(&1).unwrap();
        log.append(&2).unwrap();
        let truth = std::fs::read(&primary).unwrap();

        // Mirror a lost its last frame, mirror b gained a partial one.
        std::fs::write(&mirrors[0], &truth[..truth.len() / 2]).unwrap();
        let mut torn = truth.clone();
        torn.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        std::fs::write(&mirrors[1], &torn).unwrap();
        let (fresh, report) = log.refresh().unwrap();
        assert!(fresh.is_empty());
        assert_eq!(
            (report.dropped_bytes, report.healed, report.retired),
            (0, 2, 0)
        );
        for mirror in &mirrors {
            assert_eq!(std::fs::read(mirror).unwrap(), truth);
        }

        // A mirror that is off again but cannot be rewritten is retired,
        // not acked; the other keeps the quorum.
        std::fs::write(&mirrors[0], &truth[..truth.len() / 2]).unwrap();
        break_mirror(&mut log, 0);
        let (_, report) = log.refresh().unwrap();
        assert_eq!((report.healed, report.retired), (0, 1));
        assert_eq!(log.live_mirrors(), 1);
        log.append(&3).unwrap();
        assert_eq!(
            std::fs::read(&mirrors[1]).unwrap(),
            std::fs::read(&primary).unwrap()
        );
    }
}
