//! Trace-store integration: corruption, versioning and concurrent-writer
//! behavior of [`TraceDb`] through its public API. The rule under test is
//! "ignored, never trusted": any file the current build did not (or could
//! not have) written must make [`TraceDb::load`] miss — cleanly, with a
//! precise rejection reason from [`TraceDb::load_full`] — so callers fall
//! back to re-emulation instead of simulating garbage.

use std::path::{Path, PathBuf};

use rcmc_emu::{trace_program, Trace, TraceDb, TraceDbError};
use rcmc_isa::{Insn, Opcode, Program, Reg};

fn temp_db(tag: &str) -> (TraceDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rcmc-tracedb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TraceDb::at(dir.clone()), dir)
}

/// A small program with control flow and memory traffic: a loop that
/// stores then reloads a counter.
fn looped_program(iters: i32) -> Program {
    let r = |x| Some(Reg::int(x));
    let insns = vec![
        Insn::new(Opcode::Movi, r(1), None, None, iters),
        Insn::new(Opcode::Movi, r(2), None, None, 0x1000),
        // loop body (pc 2..5)
        Insn::new(Opcode::St, None, r(2), r(1), 0),
        Insn::new(Opcode::Ld, r(3), r(2), None, 0),
        Insn::new(Opcode::Addi, r(1), r(1), None, -1),
        Insn::new(Opcode::Bne, None, r(1), r(0), -4),
        Insn::halt(),
    ];
    Program {
        insns,
        data: vec![],
        entry: 0,
    }
}

fn sample(iters: i32) -> Trace {
    trace_program(&looped_program(iters), 100_000).expect("test program emulates")
}

/// Byte offset of the `len`-keyed trace file, for surgical corruption.
fn file_of(dir: &Path, name: &str, len: u64) -> PathBuf {
    dir.join(name).join(format!("{len}.trc"))
}

#[test]
fn round_trip_through_the_filesystem() {
    let (db, dir) = temp_db("roundtrip");
    let t = sample(50);
    assert!(db.save("loop", 7777, &t));
    let back = db.load_full("loop", 7777).expect("fresh save loads");
    assert_eq!(back.insns, t.insns);
    assert_eq!(back.halted, t.halted);
    assert_eq!(back.static_insns, t.static_insns);
    assert_eq!(db.verify("loop", 7777).unwrap(), t.insns.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_header_is_ignored() {
    let (db, dir) = temp_db("badmagic");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w", 100);
    let mut bytes = std::fs::read(&p).unwrap();
    bytes[3] ^= 0xff; // magic
    std::fs::write(&p, &bytes).unwrap();
    assert_eq!(db.load_full("w", 100).unwrap_err(), TraceDbError::BadMagic);
    assert!(db.load("w", 100).is_none(), "corrupt file must miss");
    assert!(db.verify("w", 100).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_versions_are_ignored() {
    let (db, dir) = temp_db("versions");
    let t = sample(10);
    for (off, expect_err) in [
        (8usize, TraceDbError::WrongFormatVersion(99)),
        (12usize, TraceDbError::WrongTraceVersion(99)),
    ] {
        assert!(db.save("w", 100, &t));
        let p = file_of(&dir, "w", 100);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[off] = 99; // low byte of the little-endian version word
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(db.load_full("w", 100).unwrap_err(), expect_err);
        assert!(db.load("w", 100).is_none(), "stale version must miss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_payload_is_ignored() {
    let (db, dir) = temp_db("trunc");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w", 100);
    let full = std::fs::read(&p).unwrap();
    // Chop mid-payload, mid-record, and into the header.
    for keep in [full.len() - 32, full.len() - 7, 40] {
        std::fs::write(&p, &full[..keep]).unwrap();
        assert_eq!(
            db.load_full("w", 100).unwrap_err(),
            TraceDbError::Truncated,
            "keep={keep}"
        );
        assert!(db.load("w", 100).is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn payload_bitflip_fails_the_checksum() {
    let (db, dir) = temp_db("cksum");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w", 100);
    let mut bytes = std::fs::read(&p).unwrap();
    // Flip a bit in a record's reserved word: the decoder ignores those
    // bytes, so only the checksum stands between this file and a bogus
    // "valid" load.
    let n = bytes.len();
    bytes[n - 1] ^= 0x01;
    std::fs::write(&p, &bytes).unwrap();
    assert_eq!(
        db.load_full("w", 100).unwrap_err(),
        TraceDbError::ChecksumMismatch
    );
    assert!(db.load("w", 100).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_key_is_ignored() {
    let (db, dir) = temp_db("key");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    // Copy the file under a different name and length: both must miss.
    let src = file_of(&dir, "w", 100);
    std::fs::create_dir_all(dir.join("stolen")).unwrap();
    std::fs::copy(&src, file_of(&dir, "stolen", 100)).unwrap();
    std::fs::copy(&src, file_of(&dir, "w", 200)).unwrap();
    assert_eq!(
        db.load_full("stolen", 100).unwrap_err(),
        TraceDbError::KeyMismatch
    );
    assert_eq!(
        db.load_full("w", 200).unwrap_err(),
        TraceDbError::KeyMismatch
    );
    // And neither shows up in the catalog.
    assert_eq!(db.list().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers racing on one key must never produce a torn file: whatever the
/// interleaving, the store ends up with exactly one file that validates
/// and equals one racer's payload in full.
#[test]
fn concurrent_writers_leave_one_valid_file() {
    let (db, dir) = temp_db("race");
    let a = sample(40);
    let b = sample(90);
    assert_ne!(a.insns, b.insns);
    std::thread::scope(|s| {
        for i in 0..8 {
            let db = db.clone();
            let t = if i % 2 == 0 { &a } else { &b };
            s.spawn(move || {
                for _ in 0..20 {
                    assert!(db.save("hot", 500, t));
                }
            });
        }
    });
    let winner = db
        .load_full("hot", 500)
        .expect("racers must not tear the file");
    assert!(
        winner.insns == a.insns || winner.insns == b.insns,
        "stored trace must be one racer's payload, whole"
    );
    assert_eq!(db.list().len(), 1);
    // No temp droppings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("hot"))
        .unwrap()
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().ends_with(".trc"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset of the payload in a trace file whose name is `name`.
fn payload_off(name: &str) -> usize {
    (64 + name.len()).div_ceil(32) * 32
}

/// The format-v1 image of a v2 image: the same header with format version
/// 1, and every zero-run-compressed record expanded back to its four flat
/// words. The checksum covers the logical words, so it carries over.
fn v1_of(v2: &[u8], name: &str) -> Vec<u8> {
    let off = payload_off(name);
    let mut out = v2[..off].to_vec();
    out[8..12].copy_from_slice(&1u32.to_le_bytes());
    let mut rest = &v2[off..];
    while let Some((&ctl, tail)) = rest.split_first() {
        rest = tail;
        for w in 0..4 {
            if ctl & (1 << w) != 0 {
                out.extend_from_slice(&rest[..8]);
                rest = &rest[8..];
            } else {
                out.extend_from_slice(&[0; 8]);
            }
        }
    }
    out
}

/// One file, one verdict: whichever reader meets a damaged image —
/// `load_full`, `verify` or `import` — rejects it for the same reason, and
/// good v1 and v2 images load, verify and import to the same trace.
#[test]
fn every_reader_gives_one_file_the_same_verdict() {
    let (db, dir) = temp_db("verdict");
    let (import_db, import_dir) = temp_db("verdict-import");
    let t = sample(10);
    assert!(db.save("w", 100, &t));
    let p = file_of(&dir, "w", 100);
    let v2 = std::fs::read(&p).unwrap();
    let v1 = v1_of(&v2, "w");
    let off = payload_off("w");
    let edit = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut b = v2.clone();
        f(&mut b);
        b
    };

    let cases: Vec<(&str, Vec<u8>, TraceDbError)> = vec![
        (
            "text file",
            b"this is a plain text file, not a trace at all\n".repeat(3),
            TraceDbError::BadMagic,
        ),
        ("bad magic", edit(&|b| b[3] ^= 0xff), TraceDbError::BadMagic),
        (
            "format version",
            edit(&|b| b[8] = 99),
            TraceDbError::WrongFormatVersion(99),
        ),
        (
            "trace version",
            edit(&|b| b[12] = 99),
            TraceDbError::WrongTraceVersion(99),
        ),
        (
            "truncated header",
            v2[..40].to_vec(),
            TraceDbError::Truncated,
        ),
        (
            "payload cut mid-record",
            v2[..v2.len() - 7].to_vec(),
            TraceDbError::Truncated,
        ),
        (
            "trailing byte",
            edit(&|b| b.push(0)),
            TraceDbError::Truncated,
        ),
        (
            "reserved control bit",
            edit(&|b| b[off] |= 0x80),
            TraceDbError::BadRecord(0),
        ),
        (
            "payload bit flip",
            edit(&|b| *b.last_mut().unwrap() ^= 0x01),
            TraceDbError::ChecksumMismatch,
        ),
        (
            "truncated v1 image",
            v1[..v1.len() - 32].to_vec(),
            TraceDbError::Truncated,
        ),
    ];
    for (what, image, want) in &cases {
        std::fs::write(&p, image).unwrap();
        assert_eq!(
            db.load_full("w", 100).unwrap_err(),
            *want,
            "{what}: load_full"
        );
        assert!(db.load("w", 100).is_none(), "{what}: load");
        assert_eq!(db.verify("w", 100).unwrap_err(), *want, "{what}: verify");
        assert_eq!(
            import_db.import(image, None).unwrap_err(),
            *want,
            "{what}: import"
        );
    }
    assert!(
        import_db.list().is_empty(),
        "a rejected import writes nothing"
    );

    // A good file under the wrong key: only keyed readers can tell.
    std::fs::write(&p, &v2).unwrap();
    std::fs::create_dir_all(dir.join("stolen")).unwrap();
    std::fs::copy(&p, file_of(&dir, "stolen", 100)).unwrap();
    std::fs::copy(&p, file_of(&dir, "w", 200)).unwrap();
    for (name, len) in [("stolen", 100), ("w", 200)] {
        assert_eq!(
            db.load_full(name, len).unwrap_err(),
            TraceDbError::KeyMismatch
        );
        assert_eq!(db.verify(name, len).unwrap_err(), TraceDbError::KeyMismatch);
    }

    // Good images of both layouts: same trace through every reader, and
    // import stores the v2 image whichever layout it was handed.
    for (what, image) in [("v1", &v1), ("v2", &v2)] {
        std::fs::write(&p, image).unwrap();
        let back = db.load_full("w", 100).unwrap();
        assert_eq!(back.insns, t.insns, "{what}: load_full");
        assert_eq!((back.halted, back.static_insns), (t.halted, t.static_insns));
        assert_eq!(db.verify("w", 100).unwrap(), t.insns.len() as u64, "{what}");
        assert_eq!(
            import_db.import(image, None).unwrap(),
            ("w".to_string(), 100)
        );
        let imported = import_db.load_full("w", 100).unwrap();
        assert_eq!(imported.insns, t.insns, "{what}: import");
        assert_eq!(std::fs::read(file_of(&import_dir, "w", 100)).unwrap(), v2);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&import_dir);
}
